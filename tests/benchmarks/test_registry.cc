/**
 * @file
 * The benchmark registry: a lookup builds exactly the benchmark it
 * returns, case-insensitively, and an unknown name lists every
 * registered benchmark.
 */

#include <cctype>
#include <typeinfo>

#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "benchmarks/sort.h"
#include "support/error.h"

namespace petabricks {
namespace apps {
namespace {

TEST(Registry, FindBenchmarkConstructsOnlyTheMatch)
{
    // instanceId() counts constructions process-wide: one lookup must
    // advance it by exactly one, whichever row of the table matches.
    for (const std::string name : {"Black-Scholes", "Poisson2D SOR",
                                   "Tridiagonal Solver", "Mandelbrot"}) {
        const uint64_t before = SortBenchmark().instanceId();
        BenchmarkPtr found = findBenchmark(name);
        EXPECT_EQ(found->instanceId(), before + 1) << name;
        EXPECT_EQ(SortBenchmark().instanceId(), before + 2) << name;
    }
}

TEST(Registry, EveryBenchmarkIsFoundByItsNameInAnyCase)
{
    std::vector<BenchmarkPtr> all = allBenchmarks();
    ASSERT_EQ(all.size(), 8u);
    for (const BenchmarkPtr &benchmark : all) {
        const Benchmark &want = *benchmark;
        std::string upper = benchmark->name();
        for (char &c : upper)
            c = static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
        for (const std::string &query : {benchmark->name(), upper}) {
            BenchmarkPtr found = findBenchmark(query);
            const Benchmark &got = *found;
            EXPECT_EQ(got.name(), want.name()) << query;
            EXPECT_EQ(typeid(got), typeid(want)) << query;
        }
    }
}

TEST(Registry, LookupsReturnFreshInstances)
{
    BenchmarkPtr a = findBenchmark("SVD");
    BenchmarkPtr b = findBenchmark("svd");
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(a->instanceId(), b->instanceId());
}

TEST(Registry, UnknownNameListsEveryBenchmark)
{
    EXPECT_THROW(findBenchmark("Sort "), FatalError); // no trimming
    try {
        findBenchmark("FFT");
        FAIL() << "findBenchmark should have thrown";
    } catch (const FatalError &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("'FFT'"), std::string::npos) << what;
        for (const BenchmarkPtr &benchmark : allBenchmarks())
            EXPECT_NE(what.find(benchmark->name()), std::string::npos)
                << what;
    }
}

} // namespace
} // namespace apps
} // namespace petabricks
