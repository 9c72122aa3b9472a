/**
 * @file
 * Per-layer replays for the traced run: captured evaluator batches and
 * cache probes fed back through one layer's public calls at a time, so
 * each layer's cost per call is measured without the layers above it.
 */

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <string>
#include <vector>

#include "cache/shared_cache.h"
#include "common.h"
#include "portfolio/portfolio.h"
#include "search.h"

namespace perfbench {

/**
 * compiler.*, sim.* (with sim.cost_mismatches, the reference-vs-fast
 * check), tuner.fingerprint_ns, cache.lookup_ns and cache.publish_ns
 * from @p capture. Lookups probe @p workloadCache (the cache the
 * workload ran against). When @p flushDir is non-empty the publishes go
 * to a persistent cache there and cache.flush_ms times its flush;
 * otherwise flush_ms is 0 (the workload persists nothing).
 */
void replayCapture(const Capture &capture,
                   petabricks::cache::SharedEvaluationCache &workloadCache,
                   const std::string &flushDir, Report &report);

/** engine.* and tuner.* from a traced pass and its capture. */
void reportSearchLayers(const Capture &capture, const SearchPass &pass,
                        Report &report);

/**
 * SessionTable::create/step/champion/stop over @p ops (table.*), and a
 * TuningSession checkpoint render + KvFile::saveAtomic after every step
 * (kvfile.*), with spool files under @p dir.
 */
void replaySessionTable(const std::vector<TuneOp> &ops,
                        const std::string &dir, Report &report);

/** portfolio.put_us: re-put every record of @p portfolio into a fresh
 * persistent portfolio under @p dir. */
void replayPortfolioPut(const petabricks::portfolio::ChampionPortfolio
                            &portfolio,
                        const std::string &dir, Report &report);

/** self_ms.<layer> from the recorded spans, plus trace.spans. */
void reportSelfTimes(Report &report);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
