/**
 * @file
 * ModelEngine's process-wide evaluation-context memo: engines share
 * one context per (benchmark type, n, machine), whatever instance they
 * are handed; the memo stays within its bound; and concurrent engines
 * on many threads agree with a serial run.
 */

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "benchmarks/sort.h"
#include "engine/execution_engine.h"

namespace petabricks {
namespace engine {
namespace {

TEST(EvalContextMemo, FreshInstancesOnTwoEnginesShareOneContext)
{
    const sim::MachineProfile desktop = sim::MachineProfile::desktop();
    for (const apps::BenchmarkPtr &listed : apps::allBenchmarks()) {
        const int64_t n = listed->minTuningSize();
        apps::BenchmarkPtr a = apps::findBenchmark(listed->name());
        apps::BenchmarkPtr b = apps::findBenchmark(listed->name());
        ModelEngine first(desktop, 1);
        ModelEngine second(sim::MachineProfile::byName("Desktop"), 1);
        const apps::EvalContext *ctx = first.contextFor(*a, n);
        ASSERT_NE(ctx, nullptr) << listed->name();
        EXPECT_EQ(second.contextFor(*b, n), ctx) << listed->name();

        // Another size or another machine is another point.
        EXPECT_NE(second.contextFor(*b, 2 * n), ctx) << listed->name();
        ModelEngine server(sim::MachineProfile::server(), 1);
        EXPECT_NE(server.contextFor(*a, n), ctx) << listed->name();
    }
}

TEST(EvalContextMemo, StaysWithinItsBoundUnderManySizes)
{
    const size_t bound = ModelEngine::kContextMemoCapacity;
    apps::SortBenchmark sort;
    ModelEngine engine(sim::MachineProfile::laptop(), 1);
    const int64_t sizes = static_cast<int64_t>(3 * bound);
    for (int64_t n = 1; n <= sizes; ++n) {
        ASSERT_NE(engine.contextFor(sort, n), nullptr);
        ASSERT_LE(ModelEngine::contextMemoSize(), bound) << "n=" << n;
    }
    EXPECT_EQ(ModelEngine::contextMemoSize(), bound);

    // The most recently used entries survive eviction: another engine
    // and another instance still share the last context built.
    apps::SortBenchmark other;
    ModelEngine second(sim::MachineProfile::laptop(), 1);
    EXPECT_EQ(second.contextFor(other, sizes),
              engine.contextFor(sort, sizes));
}

TEST(EvalContextMemo, ConcurrentEnginesMatchSerialPricing)
{
    // Four threads, each with its own engine and benchmark instances,
    // price the same points while a fifth churns the memo past its
    // bound; every cost must equal the single-threaded answer.
    const sim::MachineProfile desktop = sim::MachineProfile::desktop();
    const std::vector<std::string> names = {"Black-Scholes", "Strassen",
                                            "Poisson2D SOR"};
    auto price = [&](ModelEngine &engine) {
        std::vector<double> out;
        for (const std::string &name : names) {
            apps::BenchmarkPtr benchmark = apps::findBenchmark(name);
            const std::vector<tuner::Config> configs{
                benchmark->seedConfig()};
            for (int64_t n : {benchmark->minTuningSize(),
                              2 * benchmark->minTuningSize()})
                for (double s : engine.measureBatch(*benchmark, configs, n))
                    out.push_back(s);
        }
        return out;
    };
    ModelEngine serialEngine(desktop, 1);
    const std::vector<double> serial = price(serialEngine);

    std::vector<std::vector<double>> got(4);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] {
            ModelEngine engine(desktop, 1);
            for (int round = 0; round < 8; ++round)
                got[t] = price(engine);
        });
    threads.emplace_back([&] {
        apps::SortBenchmark sort;
        ModelEngine engine(desktop, 1);
        for (int64_t n = 1;
             n <= static_cast<int64_t>(2 * ModelEngine::kContextMemoCapacity);
             ++n)
            engine.contextFor(sort, n);
    });
    for (std::thread &thread : threads)
        thread.join();
    for (const std::vector<double> &costs : got)
        EXPECT_EQ(costs, serial);
    EXPECT_LE(ModelEngine::contextMemoSize(),
              ModelEngine::kContextMemoCapacity);
}

} // namespace
} // namespace engine
} // namespace petabricks
