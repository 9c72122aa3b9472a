#include "search.h"

#include <bit>
#include <cmath>
#include <map>
#include <thread>

#include "benchmarks/registry.h"
#include "engine/execution_engine.h"
#include "support/error.h"
#include "tuner/evaluation_cache.h"
#include "tuner/session.h"

namespace perfbench {

using namespace petabricks;

namespace {

/**
 * The engine-layer probe: times each generation batch as an
 * "engine.batch" span, counts batch sizes and NaN failures, and keeps
 * a bounded sample of the batches for the compiler and sim replays.
 */
class TimingEvaluator : public tuner::Evaluator
{
  public:
    TimingEvaluator(tuner::Evaluator &inner, Capture &capture,
                    const service::SessionSpec &spec, uint64_t scope)
        : inner_(inner), capture_(capture), spec_(spec), scope_(scope)
    {}

    double
    evaluate(const tuner::Config &config, int64_t inputSize) override
    {
        return inner_.evaluate(config, inputSize);
    }

    std::vector<double>
    evaluateBatch(std::span<const tuner::Config> configs,
                  int64_t inputSize) override
    {
        std::vector<double> seconds;
        {
            ScopedSpan span("engine.batch");
            seconds = inner_.evaluateBatch(configs, inputSize);
        }
        int64_t failures = 0;
        for (double s : seconds)
            failures += std::isnan(s) ? 1 : 0;
        capture_.record(spec_.benchmark, spec_.machine, inputSize, scope_,
                        configs, failures);
        return seconds;
    }

    std::vector<std::string>
    kernelSources(const tuner::Config &config, int64_t inputSize) override
    {
        return inner_.kernelSources(config, inputSize);
    }

  private:
    tuner::Evaluator &inner_;
    Capture &capture_;
    const service::SessionSpec &spec_;
    uint64_t scope_;
};

} // namespace

void
Capture::record(const std::string &benchmark, const std::string &machine,
                int64_t inputSize,
                uint64_t scope, std::span<const tuner::Config> batch,
                int64_t nanResults)
{
    std::lock_guard<std::mutex> lock(mutex);
    ++batchCount;
    batchConfigs += static_cast<int64_t>(batch.size());
    failures += nanResults;
    if (configs + batch.size() > kMaxConfigs)
        return;
    configs += batch.size();
    batches.push_back({benchmark, machine, inputSize, scope,
                       std::vector<tuner::Config>(batch.begin(),
                                                  batch.end())});
}

service::SessionSpec
specFor(const TuneOp &op)
{
    KvFile kv;
    kv.set("benchmark", op.benchmark);
    kv.setInt("seed", static_cast<int64_t>(op.seed));
    return service::SessionSpec::fromCreateRequest(kv);
}

namespace {

/** One default tuning run of @p spec, start to champion. */
RunRecord
tuneOnce(const service::SessionSpec &spec,
         const sim::MachineProfile &machine,
         cache::SharedEvaluationCache *l2, Capture *capture,
         Samples *stepMs)
{
    ScopedSpan runSpan("tuner.run");
    apps::BenchmarkPtr benchmark = apps::findBenchmark(spec.benchmark);
    engine::ModelEngine engine(machine, spec.engineParallelism);
    engine::EngineEvaluator evaluator(*benchmark, engine);
    const uint64_t scope = engine.cacheScope(*benchmark);
    std::unique_ptr<TimingEvaluator> timed;
    if (capture != nullptr)
        timed = std::make_unique<TimingEvaluator>(evaluator, *capture, spec,
                                                  scope);
    tuner::Evaluator &used =
        timed ? static_cast<tuner::Evaluator &>(*timed) : evaluator;
    tuner::TuningSession session(used, benchmark->seedConfig(), spec.tuner);
    if (l2 != nullptr)
        session.attachSharedCache(l2, scope);
    while (!session.done()) {
        auto start = Clock::now();
        {
            ScopedSpan stepSpan("tuner.step");
            session.step();
        }
        if (stepMs != nullptr)
            stepMs->add(secondsSince(start) * 1e3);
    }
    tuner::TuningResult result = session.result();
    tuner::SessionIntrospection view = session.introspect();
    RunRecord record;
    record.championFingerprint = result.best.valueFingerprint();
    record.secondsBits = std::bit_cast<uint64_t>(result.bestSeconds);
    record.evaluations = result.evaluations;
    record.candidates = result.evaluations + result.cacheHits;
    record.l2Hits = view.sharedHits;
    record.l2Misses = view.sharedMisses;
    record.ok = std::isfinite(result.bestSeconds) &&
                result.evaluationFailures == 0;
    return record;
}

} // namespace

SearchPass
runSearch(const std::vector<TuneOp> &ops, int threads,
          cache::SharedEvaluationCache *l2, Capture *capture, Report &report)
{
    // Request parsing is not search work: resolve specs before timing,
    // once per distinct (benchmark, seed) since the warm list repeats.
    std::map<std::pair<std::string, uint64_t>, service::SessionSpec> resolved;
    std::vector<const service::SessionSpec *> specs;
    specs.reserve(ops.size());
    for (const TuneOp &op : ops) {
        auto [it, fresh] = resolved.try_emplace({op.benchmark, op.seed});
        if (fresh)
            it->second = specFor(op);
        specs.push_back(&it->second);
    }
    std::map<std::string, sim::MachineProfile> machines;
    for (const auto &[key, spec] : resolved)
        if (!machines.count(spec.machine))
            machines.emplace(spec.machine,
                             sim::MachineProfile::byName(spec.machine));

    SearchPass pass;
    pass.records.resize(ops.size());
    std::vector<Samples> tuneMs(static_cast<size_t>(threads));
    std::vector<Samples> stepMs(static_cast<size_t>(threads));
    std::atomic<size_t> next{0};

    auto worker = [&](size_t self) {
        for (size_t i; (i = next.fetch_add(1)) < ops.size();) {
            ++report.attempted;
            const service::SessionSpec &spec = *specs[i];
            try {
                auto start = Clock::now();
                pass.records[i] = tuneOnce(spec, machines.at(spec.machine),
                                           l2, capture, &stepMs[self]);
                tuneMs[self].add(secondsSince(start) * 1e3);
                if (!pass.records[i].ok)
                    report.fail("no finite champion for " + ops[i].benchmark);
            } catch (const std::exception &error) {
                report.fail(std::string("tuning run: ") + error.what());
            }
        }
    };

    auto start = Clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker, static_cast<size_t>(t));
    for (std::thread &thread : pool)
        thread.join();
    pass.windowSeconds = secondsSince(start);
    pass.residentMb = residentMb();

    for (int t = 0; t < threads; ++t) {
        pass.tuneMs.append(tuneMs[static_cast<size_t>(t)]);
        pass.stepMs.append(stepMs[static_cast<size_t>(t)]);
    }
    for (const RunRecord &record : pass.records) {
        pass.candidates += record.candidates;
        pass.evaluations += record.evaluations;
        pass.cacheHits += record.candidates - record.evaluations;
        pass.l2Hits += record.l2Hits;
        pass.l2Misses += record.l2Misses;
    }
    return pass;
}

void
checkDetached(const std::vector<TuneOp> &ops,
              const std::vector<std::vector<RunRecord>> &passes, int threads,
              bool exactCounts, Report &report)
{
    // One detached reference per distinct (benchmark, seed).
    std::map<std::pair<std::string, uint64_t>, size_t> slotOf;
    std::vector<size_t> unique; // op index of each distinct spec
    for (size_t i = 0; i < ops.size(); ++i)
        if (slotOf.emplace(std::make_pair(ops[i].benchmark, ops[i].seed),
                           unique.size())
                .second)
            unique.push_back(i);

    std::vector<RunRecord> reference(unique.size());
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t k; (k = next.fetch_add(1)) < unique.size();) {
            service::SessionSpec spec = specFor(ops[unique[k]]);
            try {
                reference[k] = tuneOnce(spec,
                                        sim::MachineProfile::byName(
                                            spec.machine),
                                        nullptr, nullptr, nullptr);
            } catch (const std::exception &error) {
                report.mismatch(std::string("detached reference: ") +
                                error.what());
            }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread &thread : pool)
        thread.join();

    // The first record seen per spec, for the exact-count comparison.
    std::vector<const RunRecord *> firstSeen(unique.size(), nullptr);
    for (const std::vector<RunRecord> &records : passes)
        for (size_t i = 0; i < ops.size(); ++i) {
            const RunRecord &got = records[i];
            if (!got.ok)
                continue; // already counted as a failed operation
            const size_t slot =
                slotOf.at(std::make_pair(ops[i].benchmark, ops[i].seed));
            const RunRecord &want = reference[slot];
            const std::string what =
                ops[i].benchmark + " seed " + std::to_string(ops[i].seed);
            if (got.championFingerprint != want.championFingerprint ||
                got.secondsBits != want.secondsBits)
                report.mismatch("champion differs from the detached run: " +
                                what);
            if (got.candidates != want.candidates)
                report.mismatch("nondeterminism: candidate count drifted: " +
                                what);
            const RunRecord *&first = firstSeen[slot];
            if (first == nullptr)
                first = &got;
            else if (exactCounts && (got.evaluations != first->evaluations ||
                                     got.l2Hits != first->l2Hits))
                report.mismatch("nondeterminism: warm L2 hits or "
                                "evaluations drifted: " +
                                what);
        }
}

} // namespace perfbench
