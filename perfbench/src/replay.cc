#include "replay.h"

#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <map>

#include "benchmarks/registry.h"
#include "engine/execution_engine.h"
#include "service/session_table.h"
#include "support/error.h"
#include "tuner/evaluation_cache.h"
#include "tuner/session.h"

namespace perfbench {

using namespace petabricks;

namespace {

/** Configs per benchmark checked against the reference cost path; the
 * reference is the slow, scaffolding-from-scratch model. */
constexpr size_t kReferenceSample = 300;

/** Bits of a cost, with infeasible (FatalError) as +inf. */
template <typename Fn>
uint64_t
costBits(Fn &&evaluate)
{
    double seconds;
    try {
        seconds = evaluate();
    } catch (const FatalError &) {
        seconds = std::numeric_limits<double>::infinity();
    }
    return std::bit_cast<uint64_t>(seconds);
}

/** ns per call when @p calls calls ran since @p start. */
double
perCallNs(Clock::time_point start, size_t calls)
{
    return secondsSince(start) * 1e9 /
           static_cast<double>(std::max<size_t>(calls, 1));
}

} // namespace

void
replayCapture(const Capture &capture,
              cache::SharedEvaluationCache &workloadCache,
              const std::string &flushDir, Report &report)
{
    // ---- compiler and sim, per benchmark ------------------------------
    std::map<std::string, apps::BenchmarkPtr> benchmarks;
    std::map<std::string, sim::MachineProfile> machines;
    std::map<std::string, double> contextUs, contextCount;
    std::map<std::string, double> evaluateNs, evaluateCount;
    std::map<std::string, size_t> referenceChecked;
    double sourcesNs = 0, sourcesCount = 0;
    int64_t mismatches = 0;
    volatile size_t sink = 0;
    for (const Capture::Batch &batch : capture.batches) {
        auto &benchmark = benchmarks[batch.benchmark];
        if (!benchmark)
            benchmark = apps::findBenchmark(batch.benchmark);
        if (!machines.count(batch.machine))
            machines.emplace(batch.machine,
                             sim::MachineProfile::byName(batch.machine));
        const sim::MachineProfile &machine = machines.at(batch.machine);
        const std::string slug = slugOf(batch.benchmark);

        auto start = Clock::now();
        apps::EvalContextPtr ctx;
        {
            ScopedSpan span("compiler.eval_context");
            ctx = benchmark->makeEvalContext(batch.inputSize, machine);
        }
        contextUs[slug] += secondsSince(start) * 1e6;
        contextCount[slug] += 1;

        std::vector<uint64_t> fast(batch.configs.size());
        start = Clock::now();
        {
            ScopedSpan span("sim.evaluate");
            for (size_t i = 0; i < batch.configs.size(); ++i)
                fast[i] = costBits([&] {
                    return benchmark->evaluate(batch.configs[i],
                                               batch.inputSize, machine,
                                               ctx.get());
                });
        }
        evaluateNs[slug] += secondsSince(start) * 1e9;
        evaluateCount[slug] += static_cast<double>(batch.configs.size());

        start = Clock::now();
        {
            ScopedSpan span("compiler.kernel_sources");
            for (const tuner::Config &config : batch.configs)
                sink = sink + benchmark->kernelSources(config, batch.inputSize)
                                  .size();
        }
        sourcesNs += secondsSince(start) * 1e9;
        sourcesCount += static_cast<double>(batch.configs.size());

        // The golden check: the fast path must price bit-identically
        // to the reference model on every replayed config sampled.
        size_t &checked = referenceChecked[slug];
        for (size_t i = 0;
             i < batch.configs.size() && checked < kReferenceSample;
             ++i, ++checked) {
            uint64_t reference = costBits([&] {
                return benchmark->evaluate(batch.configs[i], batch.inputSize,
                                           machine);
            });
            if (reference != fast[i])
                ++mismatches;
        }
    }
    for (const std::string &name : benchmarkNames()) {
        const std::string slug = slugOf(name);
        report.set("compiler.eval_context_us." + slug,
                   contextCount[slug] ? contextUs[slug] / contextCount[slug]
                                      : 0.0,
                   "us");
        report.set("sim.evaluate_ns." + slug,
                   evaluateCount[slug]
                       ? evaluateNs[slug] / evaluateCount[slug]
                       : 0.0,
                   "ns");
    }
    report.set("compiler.kernel_sources_us",
               sourcesCount ? sourcesNs / sourcesCount / 1e3 : 0.0, "us");
    report.set("sim.cost_mismatches", static_cast<double>(mismatches),
               "count");
    if (mismatches != 0)
        report.mismatch(std::to_string(mismatches) +
                        " replayed configs priced differently by the "
                        "reference and fast paths");

    // ---- tuner: the config fingerprint --------------------------------
    struct Probe
    {
        uint64_t scope;
        int64_t size;
        uint64_t fingerprint;
    };
    std::vector<Probe> probes;
    probes.reserve(capture.configs);
    {
        ScopedSpan span("tuner.fingerprint");
        auto start = Clock::now();
        for (const Capture::Batch &batch : capture.batches)
            for (const tuner::Config &config : batch.configs)
                probes.push_back({batch.scope, batch.inputSize,
                                  tuner::EvaluationCache::fingerprint(config)});
        report.set("tuner.fingerprint_ns", perCallNs(start, probes.size()),
                   "ns");
    }

    // ---- cache: lookups on the workload's cache, publishes ------------
    // Several passes so the loop runs long enough to time in bulk.
    const size_t passes = 1 + 200000 / std::max<size_t>(probes.size(), 1);
    {
        ScopedSpan span("cache.lookup");
        auto start = Clock::now();
        size_t hits = 0;
        for (size_t p = 0; p < passes; ++p)
            for (const Probe &probe : probes)
                hits += workloadCache
                            .lookup(probe.scope, probe.size,
                                    probe.fingerprint, 0)
                            .has_value();
        report.set("cache.lookup_ns", perCallNs(start, passes * probes.size()),
                   "ns");
        sink = sink + hits;
    }
    cache::SharedCacheOptions options;
    options.dir = flushDir;
    options.flushEveryPublishes = 0; // flush timed on its own below
    cache::SharedEvaluationCache fresh(options);
    {
        ScopedSpan span("cache.publish");
        auto start = Clock::now();
        for (size_t i = 0; i < probes.size(); ++i)
            fresh.publish(probes[i].scope, probes[i].size,
                          probes[i].fingerprint,
                          1e-6 * static_cast<double>(i + 1), 0);
        report.set("cache.publish_ns", perCallNs(start, probes.size()), "ns");
    }
    double flushMs = 0;
    if (!flushDir.empty()) {
        ScopedSpan span("cache.flush");
        auto start = Clock::now();
        fresh.flush();
        flushMs = secondsSince(start) * 1e3;
    }
    report.set("cache.flush_ms", flushMs, "ms");
}

void
reportSearchLayers(const Capture &capture, const SearchPass &pass,
                   Report &report)
{
    std::map<std::string, SpanTotals> spans = Tracer::instance().totals();
    const SpanTotals &steps = spans["tuner.step"];
    const SpanTotals &batches = spans["engine.batch"];
    report.set("tuner.step_self_us",
               steps.count ? static_cast<double>(steps.selfNs) / 1e3 /
                                 static_cast<double>(steps.count)
                           : 0.0,
               "us");
    // Per generation, not per batch: a generation the caches answer
    // whole issues no batch and costs the engine nothing.
    const double generations = static_cast<double>(steps.count);
    report.set("engine.batch_us",
               generations ? static_cast<double>(batches.totalNs) / 1e3 /
                                 generations
                           : 0.0,
               "us");
    report.set("engine.batch_size",
               generations
                   ? static_cast<double>(capture.batchConfigs) / generations
                   : 0.0,
               "count");
    report.set("engine.failures", static_cast<double>(capture.failures),
               "count");

    const double runs = static_cast<double>(pass.records.size());
    const double l1Hits = static_cast<double>(pass.cacheHits - pass.l2Hits);
    report.set("tuner.candidates_per_run",
               runs ? static_cast<double>(pass.candidates) / runs : 0.0,
               "count");
    report.set("tuner.evaluations_per_run",
               runs ? static_cast<double>(pass.evaluations) / runs : 0.0,
               "count");
    report.set("tuner.l1_hit_ratio",
               pass.candidates ? l1Hits / static_cast<double>(pass.candidates)
                               : 0.0,
               "ratio");
    report.set("cache.l2_hits_per_run",
               runs ? static_cast<double>(pass.l2Hits) / runs : 0.0, "count");
    const double probes = static_cast<double>(pass.l2Hits + pass.l2Misses);
    report.set("cache.l2_hit_ratio",
               probes ? static_cast<double>(pass.l2Hits) / probes : 0.0,
               "ratio");
}

void
replaySessionTable(const std::vector<TuneOp> &ops, const std::string &dir,
                   Report &report)
{
    service::SessionTableOptions options;
    options.spoolDir = dir + "/table-spool";
    options.fsckSpool = false;
    cache::SharedCacheOptions cacheOptions;
    cache::SharedEvaluationCache l2(cacheOptions);
    options.sharedCache = &l2;
    service::SessionTable table(options);

    Samples createUs, stepUs;
    for (const TuneOp &op : ops) {
        try {
            service::SessionSpec spec = specFor(op);
            auto start = Clock::now();
            std::string id;
            {
                ScopedSpan span("table.create");
                id = table.create(spec);
            }
            createUs.add(secondsSince(start) * 1e6);
            for (;;) {
                start = Clock::now();
                int advanced;
                {
                    ScopedSpan span("table.step");
                    advanced = table.step(id, 1);
                }
                if (advanced == 0)
                    break;
                stepUs.add(secondsSince(start) * 1e6);
            }
            {
                ScopedSpan span("table.champion");
                table.champion(id);
            }
            ScopedSpan span("table.stop");
            table.stop(id);
        } catch (const std::exception &error) {
            report.mismatch(std::string("session table replay: ") +
                            error.what());
        }
    }
    report.set("table.create_us", createUs.mean(), "us");
    report.set("table.step_us", stepUs.mean(), "us");

    // kvfile: what the spool pays per checkpointed step.
    Samples renderUs, saveUs;
    double bytes = 0;
    const std::string path = dir + "/replay.ckpt";
    for (const TuneOp &op : ops) {
        service::SessionSpec spec = specFor(op);
        apps::BenchmarkPtr benchmark = apps::findBenchmark(spec.benchmark);
        engine::ModelEngine engine(sim::MachineProfile::byName(spec.machine),
                                   spec.engineParallelism);
        engine::EngineEvaluator evaluator(*benchmark, engine);
        tuner::TuningSession session(evaluator, benchmark->seedConfig(),
                                     spec.tuner);
        while (!session.done()) {
            session.step();
            auto start = Clock::now();
            KvFile kv;
            {
                ScopedSpan span("kvfile.render");
                kv = session.checkpointKv();
            }
            renderUs.add(secondsSince(start) * 1e6);
            start = Clock::now();
            {
                ScopedSpan span("kvfile.save_atomic");
                kv.saveAtomic(path, "spool.ckpt");
            }
            saveUs.add(secondsSince(start) * 1e6);
            bytes += static_cast<double>(kv.toString().size());
        }
    }
    std::filesystem::remove(path);
    report.set("kvfile.render_us", renderUs.mean(), "us");
    report.set("kvfile.save_atomic_us", saveUs.mean(), "us");
    report.set("kvfile.checkpoint_bytes",
               saveUs.size() ? bytes / static_cast<double>(saveUs.size())
                             : 0.0,
               "bytes");
}

void
replayPortfolioPut(const portfolio::ChampionPortfolio &source,
                   const std::string &dir, Report &report)
{
    portfolio::ChampionPortfolio target(dir, false);
    std::vector<portfolio::ChampionRecord> records = source.all();
    auto start = Clock::now();
    for (portfolio::ChampionRecord &record : records) {
        ScopedSpan span("portfolio.put");
        target.put(std::move(record));
    }
    report.set("portfolio.put_us",
               records.empty() ? 0.0
                               : secondsSince(start) * 1e6 /
                                     static_cast<double>(records.size()),
               "us");
}

void
reportSelfTimes(Report &report)
{
    std::map<std::string, double> selfMs;
    for (const auto &[name, totals] : Tracer::instance().totals())
        selfMs[name.substr(0, name.find('.'))] +=
            static_cast<double>(totals.selfNs) / 1e6;
    for (const char *layer : {"service", "table", "kvfile", "tuner", "cache",
                              "engine", "compiler", "sim", "portfolio"})
        report.set(std::string("self_ms.") + layer, selfMs[layer], "ms");
    report.set("trace.spans", static_cast<double>(Tracer::instance().spanCount()),
               "count");
}

} // namespace perfbench
