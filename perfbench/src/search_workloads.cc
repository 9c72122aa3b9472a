/**
 * @file
 * search_cold and search_warm: closed-loop threads running default
 * TuningSessions in-process over one shared L2, each repeat preceded
 * by a light stream of portfolio requests (ladder tunes and
 * dispatches, the daemon's portfolio handlers called directly).
 *
 * search_cold starts from an empty L2 with a fresh seed for every run,
 * so the evaluation path (engine, compiler, simulator) does the work.
 * search_warm replays a fixed pool of specs over an L2 loaded from the
 * segments an untimed preparation persisted, so the fingerprint, the
 * L2 probe and the tuner's bookkeeping do the work.
 */

#include <atomic>
#include <filesystem>
#include <iostream>
#include <thread>

#include "benchmarks/registry.h"
#include "portfolio_ops.h"
#include "replay.h"
#include "support/error.h"
#include "search.h"
#include "workloads.h"

namespace perfbench {

using namespace petabricks;

namespace {

// Each of the kRepeats repeats runs on a fresh L2 (cold: empty; warm:
// reloaded from the segments) and its own prepared portfolio. A
// repeat is short enough that the cold L2 never reaches its eviction
// bound, so every repeat sees the same cache growth.

/** L2 constructions timed per repeat for setup_s (one per CPU of a
 * 4-core host). */
constexpr int kSetupSamples = 4;
/** Per second of --seconds, over all repeats: cold tuning rounds (8
 * runs each), warm runs, dispatches and ladder tunes, sized so a run
 * measures about --seconds on a 4-core x86 host. */
constexpr size_t kColdRoundsPerSecond = 560;
constexpr size_t kWarmRunsPerSecond = 15000;
constexpr size_t kDispatchesPerSecond = 2000;
constexpr size_t kPortfolioTunesPerSecond = 250;
/** The warm pool: this many rounds of the 8 benchmarks, enough specs
 * that the pool's cost mix barely depends on the seed. */
constexpr size_t kWarmPoolRounds = 32;

/** One repeat's operations (the same list every repeat). */
struct SearchOps
{
    std::vector<TuneOp> runs;
    std::vector<TuneOp> pool; ///< warm only: the distinct specs
    std::vector<PortfolioOp> dispatches;
    std::vector<PortfolioOp> tunes;
};

SearchOps
makeOps(const RunSettings &settings, bool warm)
{
    SearchOps ops;
    SeedRng rng(settings.seed);
    const size_t s = static_cast<size_t>(settings.seconds);
    if (warm) {
        ops.pool = tuneRounds(rng, kWarmPoolRounds);
        while (ops.runs.size() < s * kWarmRunsPerSecond / kRepeats) {
            std::vector<TuneOp> round = ops.pool;
            rng.shuffle(round);
            ops.runs.insert(ops.runs.end(), round.begin(), round.end());
        }
    } else {
        ops.runs = tuneRounds(rng, s * kColdRoundsPerSecond / kRepeats);
    }
    ops.dispatches = dispatchOps(rng, s * kDispatchesPerSecond / kRepeats);
    ops.tunes = portfolioTuneOps(rng, s * kPortfolioTunesPerSecond / kRepeats);
    return ops;
}

cache::SharedCacheOptions
warmCacheOptions(const RunSettings &settings)
{
    cache::SharedCacheOptions options;
    options.dir = settings.stateDir + "/warm/cache";
    return options;
}

/**
 * Untimed warm preparation: run the pool and the ladder tunes once over
 * a persistent L2 and persist it, so the timed repeats find every
 * finite result on disk. @p capture, when given, records that pass's
 * batches: the candidates the warm repeats probe the L2 for.
 */
void
prepareWarm(const RunSettings &settings, const SearchOps &ops,
            Capture *capture)
{
    std::filesystem::remove_all(settings.stateDir + "/warm");
    Report scratch;
    {
        cache::SharedEvaluationCache l2(warmCacheOptions(settings));
        portfolio::ChampionPortfolio portfolio;
        runSearch(ops.pool, settings.threads, &l2, capture, scratch);
        for (const PortfolioOp &op : ops.tunes)
            tuneInProcess(op, portfolio, &l2);
    } // the destructor flushes the last segment
    if (scratch.failed != 0)
        PB_FATAL("warm preparation failed");
    // Compaction runs once, on the first load after the writes.
    cache::SharedEvaluationCache compact(warmCacheOptions(settings));
}

/** The workload's L2: empty (cold) or loaded from the persisted
 * segments (warm), built kSetupSamples times with each build's seconds
 * appended to @p setupSeconds; the last build is returned. */
std::unique_ptr<cache::SharedEvaluationCache>
makeCache(const RunSettings &settings, bool warm,
          std::vector<double> &setupSeconds)
{
    cache::SharedCacheOptions options =
        warm ? warmCacheOptions(settings) : cache::SharedCacheOptions{};
    std::unique_ptr<cache::SharedEvaluationCache> l2;
    for (double seconds : onEachCpu(kSetupSamples, [&] {
             l2.reset();
             auto start = Clock::now();
             l2 = std::make_unique<cache::SharedEvaluationCache>(options);
             if (!warm) { // a cold fleet also builds its benchmark instances
                 std::vector<apps::BenchmarkPtr> instances =
                     apps::allBenchmarks();
                 instances.clear();
             }
             return secondsSince(start);
         }))
        setupSeconds.push_back(seconds);
    return l2;
}

/** The dispatches on @p threads closed-loop threads, with nothing else
 * running. */
PortfolioPass
dispatchAlone(const std::vector<PortfolioOp> &dispatches,
              const portfolio::ChampionPortfolio &portfolio, int threads,
              Report &report)
{
    PortfolioPass pass;
    pass.answers.resize(dispatches.size());
    std::vector<Samples> dispatchMs(static_cast<size_t>(threads));
    std::atomic<size_t> next{0};
    auto worker = [&](size_t self) {
        for (size_t k; (k = next.fetch_add(1)) < dispatches.size();) {
            ++report.attempted;
            auto start = Clock::now();
            try {
                ScopedSpan span("portfolio.dispatch");
                pass.answers[k] = dispatchInProcess(dispatches[k], portfolio);
                dispatchMs[self].add(secondsSince(start) * 1e3);
            } catch (const std::exception &error) {
                report.fail(std::string("dispatch: ") + error.what());
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker, static_cast<size_t>(t));
    for (std::thread &thread : pool)
        thread.join();
    for (const Samples &samples : dispatchMs)
        pass.dispatchMs.append(samples);
    return pass;
}

/**
 * Repeat @p repeat on a fresh L2 and its prepared portfolio: the ladder
 * tunes, then the dispatches, then the runs, then the dispatch check.
 * The ladder tunes run one at a time because each brings its own thread
 * pool, and the dispatches run on their own so that their tail does not
 * measure the search threads' memory traffic.
 * A traced repeat passes @p capture for the evaluator decorator and
 * @p replayFrom for the layer replays, which need this repeat's cache
 * and portfolio.
 */
SearchPass
runRepeat(const RunSettings &settings, bool warm, const SearchOps &ops,
          int repeat, Capture *capture, const Capture *replayFrom,
          std::vector<double> &setupSeconds, Report &report)
{
    releaseFreedMemory();
    portfolio::ChampionPortfolio portfolio;
    SeedRng rng = prepRng(repeat);
    preparePortfolio(portfolio, rng, nullptr);
    auto l2 = makeCache(settings, warm, setupSeconds);

    Samples ptuneMs;
    for (const PortfolioOp &op : ops.tunes) {
        ++report.attempted;
        auto start = Clock::now();
        try {
            ScopedSpan span("portfolio.tune");
            tuneInProcess(op, portfolio, l2.get());
            ptuneMs.add(secondsSince(start) * 1e3);
        } catch (const std::exception &error) {
            report.fail(std::string("ladder tune: ") + error.what());
        }
    }

    PortfolioPass dispatched =
        dispatchAlone(ops.dispatches, portfolio, settings.threads, report);
    SearchPass pass =
        runSearch(ops.runs, settings.threads, l2.get(), capture, report);
    pass.portfolio = std::move(dispatched);
    pass.portfolio.tuneMs = std::move(ptuneMs);
    checkDispatches(ops.dispatches, pass.portfolio, portfolio, report);
    if (replayFrom != nullptr) {
        replayCapture(*replayFrom, *l2,
                      warm ? settings.stateDir + "/warm/flush"
                           : std::string(),
                      report);
        replayPortfolioPut(portfolio, settings.stateDir + "/put", report);
    }
    return pass;
}

/** Closed-loop rate of one client: requests per second of their own
 * latency. */
double
closedLoopRate(const Samples &ms)
{
    return ms.size() ? 1e3 * static_cast<double>(ms.size()) / ms.sum() : 0.0;
}

void
runSearchWorkload(const RunSettings &settings, bool warm, Report &report)
{
    const SearchOps ops = makeOps(settings, warm);
    Capture prepCapture;
    if (warm)
        prepareWarm(settings, ops, settings.trace ? &prepCapture : nullptr);
    std::vector<double> setupSeconds;

    if (!settings.trace) {
        std::map<std::string, std::vector<double>> figures;
        std::vector<std::vector<RunRecord>> records;
        Samples ptuneMs; // too few per repeat for a p99: pooled
        for (int r = 0; r < kRepeats; ++r) {
            SearchPass pass = runRepeat(settings, warm, ops, r, nullptr,
                                        nullptr, setupSeconds, report);
            const double window = pass.windowSeconds;
            const PortfolioPass &portfolio = pass.portfolio;
            figures["tunes_per_s"].push_back(
                static_cast<double>(pass.tuneMs.size()) / window);
            figures["configs_per_s"].push_back(
                static_cast<double>(pass.candidates) / window);
            figures["tune_p50_ms"].push_back(pass.tuneMs.percentile(0.5));
            figures["tune_p99_ms"].push_back(pass.tuneMs.percentile(0.99));
            figures["step_p50_ms"].push_back(pass.stepMs.percentile(0.5));
            figures["step_p99_ms"].push_back(pass.stepMs.percentile(0.99));
            figures["dispatch_per_s"].push_back(
                closedLoopRate(portfolio.dispatchMs));
            figures["dispatch_p50_ms"].push_back(
                portfolio.dispatchMs.percentile(0.5));
            figures["dispatch_p99_ms"].push_back(
                portfolio.dispatchMs.percentile(0.99));
            figures["ptune_p50_ms"].push_back(portfolio.tuneMs.percentile(0.5));
            figures["peak_rss_mb"].push_back(pass.residentMb);
            ptuneMs.append(portfolio.tuneMs);
            std::cerr << settings.workload << " repeat " << r << ": "
                      << pass.tuneMs.size() << " runs, "
                      << portfolio.dispatchMs.size() << " dispatches, "
                      << portfolio.tuneMs.size() << " ladder tunes in "
                      << window << " s; L2 hits " << pass.l2Hits
                      << ", evaluations " << pass.evaluations << "\n";
            records.push_back(std::move(pass.records));
        }
        for (const auto &[name, values] : figures)
            report.set(name, median(values), unitOf(name));
        report.set("ptune_p99_ms", ptuneMs.percentile(0.99), "ms");
        report.set("setup_s", median(setupSeconds), "s");
        checkDetached(ops.runs, records, settings.threads, warm, report);
        return;
    }

    // Traced: one untraced repeat for the overhead baseline, then one
    // traced repeat, whose capture the layer replays then work from.
    double untracedSeconds;
    {
        Report baseline;
        untracedSeconds =
            runRepeat(settings, warm, ops, 0, nullptr, nullptr, setupSeconds,
                      baseline)
                .windowSeconds;
        if (baseline.failed != 0)
            report.fail("the untraced baseline repeat had failures");
    }
    Tracer::instance().reset();
    Tracer::instance().enable(true);
    Capture capture;
    const SearchPass pass =
        runRepeat(settings, warm, ops, 0, &capture,
                  warm ? &prepCapture : &capture, setupSeconds, report);
    Tracer::instance().enable(false);
    report.set("trace.overhead_pct",
               (pass.windowSeconds / untracedSeconds - 1) * 100, "%");
    reportSearchLayers(capture, pass, report);
    if (warm)
        report.set("cache.segment_load_ms", median(setupSeconds) * 1e3, "ms");
    reportPolicyShares(pass.portfolio, report);
    report.set("portfolio.dispatch_us", pass.portfolio.dispatchMs.mean() * 1e3,
               "us");
    report.set("portfolio.tune_us", pass.portfolio.tuneMs.mean() * 1e3, "us");
    reportSelfTimes(report);
    checkDetached(ops.runs, {pass.records}, settings.threads, warm, report);
}

} // namespace

void
runSearchCold(const RunSettings &settings, Report &report)
{
    runSearchWorkload(settings, false, report);
}

void
runSearchWarm(const RunSettings &settings, Report &report)
{
    runSearchWorkload(settings, true, report);
}

} // namespace perfbench
