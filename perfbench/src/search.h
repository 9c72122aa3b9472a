/**
 * @file
 * The in-process search driver: closed-loop threads each running
 * default TuningSessions (ModelEngine + EngineEvaluator) to completion,
 * optionally over one shared L2 cache, plus the checks and captures the
 * per-layer replays work from.
 */

#ifndef PERFBENCH_SEARCH_H
#define PERFBENCH_SEARCH_H

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cache/shared_cache.h"
#include "common.h"
#include "portfolio_ops.h"
#include "service/hosted_session.h"
#include "tuner/config.h"

namespace perfbench {

/** What one finished tuning run leaves for the checks. The champion is
 * kept as its value fingerprint plus the bits of its cost, so a run
 * needs a few words rather than a whole Config. */
struct RunRecord
{
    uint64_t championFingerprint = 0;
    uint64_t secondsBits = 0;
    int64_t candidates = 0;  ///< configs scored (evaluated + cache answers)
    int64_t evaluations = 0;
    int64_t l2Hits = 0;
    int64_t l2Misses = 0;
    bool ok = false;
};

/** Evaluator batches captured in a traced pass, replayed per layer. */
struct Capture
{
    struct Batch
    {
        std::string benchmark;
        std::string machine;
        int64_t inputSize = 0;
        uint64_t scope = 0;
        std::vector<petabricks::tuner::Config> configs;
    };

    /** Keep at most this many configs in total (replays sample). */
    static constexpr size_t kMaxConfigs = 40000;

    std::mutex mutex;
    std::vector<Batch> batches;
    size_t configs = 0;

    // engine layer accounting (every batch, captured or not)
    int64_t batchCount = 0;
    int64_t batchConfigs = 0;
    int64_t failures = 0; ///< NaN results: retries exhausted

    /** Count one evaluator batch; keep a copy while under the cap. */
    void record(const std::string &benchmark, const std::string &machine,
                int64_t inputSize, uint64_t scope,
                std::span<const petabricks::tuner::Config> batch,
                int64_t nanResults);
};

/** One pass of the driver over an operation list. */
struct SearchPass
{
    std::vector<RunRecord> records; ///< index-aligned with the ops
    Samples tuneMs;
    Samples stepMs;
    double windowSeconds = 0;
    int64_t candidates = 0;
    int64_t evaluations = 0;
    int64_t cacheHits = 0; ///< L1 + L2 + in-batch duplicates
    int64_t l2Hits = 0;
    int64_t l2Misses = 0;
    /** Resident memory when the runs finished, the L2 still alive. */
    double residentMb = 0;
    PortfolioPass portfolio; ///< filled in by the caller
};

/** The resolved spec of a default create request for @p op. */
petabricks::service::SessionSpec specFor(const TuneOp &op);

/**
 * Run @p ops on @p threads closed-loop threads, each taking the next
 * operation when its previous one finishes. @p l2 may be null; a
 * non-null @p capture wraps the evaluator in a timing decorator.
 */
SearchPass runSearch(const std::vector<TuneOp> &ops, int threads,
                     petabricks::cache::SharedEvaluationCache *l2,
                     Capture *capture, Report &report);

/**
 * The search check: every record of every pass over @p ops (one list
 * of records per pass, index-aligned with @p ops) must match
 * the same spec run with the L2 detached — champion, cost bits and
 * candidate count. When @p exactCounts (the warm replay), identical
 * (benchmark, seed) pairs must also repeat their evaluation and L2 hit
 * counts across runs and passes; a drift is reported as
 * nondeterminism.
 */
void checkDetached(const std::vector<TuneOp> &ops,
                   const std::vector<std::vector<RunRecord>> &passes,
                   int threads, bool exactCounts, Report &report);

} // namespace perfbench

#endif // PERFBENCH_SEARCH_H
