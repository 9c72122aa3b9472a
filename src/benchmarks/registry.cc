#include "benchmarks/registry.h"

#include <cctype>

#include "benchmarks/blackscholes.h"
#include "benchmarks/convolution.h"
#include "benchmarks/mandelbrot.h"
#include "benchmarks/poisson.h"
#include "benchmarks/sort.h"
#include "benchmarks/strassen.h"
#include "benchmarks/svd.h"
#include "benchmarks/tridiagonal.h"

namespace petabricks {
namespace apps {

namespace {

/** One registry row: the display name and how to build an instance. */
struct Entry
{
    const char *name; // must equal the benchmark's name()
    BenchmarkPtr (*make)();
};

template <typename T>
BenchmarkPtr
make()
{
    return std::make_shared<T>();
}

// The paper's table order.
constexpr Entry kRegistry[] = {
    {"Black-Scholes", make<BlackScholesBenchmark>},
    {"Poisson2D SOR", make<PoissonBenchmark>},
    {"SeparableConv.", make<ConvolutionBenchmark>},
    {"Sort", make<SortBenchmark>},
    {"Strassen", make<StrassenBenchmark>},
    {"SVD", make<SvdBenchmark>},
    {"Tridiagonal Solver", make<TridiagBenchmark>},
    {"Mandelbrot", make<MandelbrotBenchmark>},
};

bool
equalsIgnoringCase(const std::string &a, const char *b)
{
    size_t i = 0;
    for (; i < a.size() && b[i] != '\0'; ++i)
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i])))
            return false;
    return i == a.size() && b[i] == '\0';
}

} // namespace

std::vector<BenchmarkPtr>
allBenchmarks()
{
    std::vector<BenchmarkPtr> out;
    for (const Entry &entry : kRegistry)
        out.push_back(entry.make());
    return out;
}

BenchmarkPtr
findBenchmark(const std::string &name)
{
    for (const Entry &entry : kRegistry)
        if (equalsIgnoringCase(name, entry.name))
            return entry.make();
    std::string known;
    for (const Entry &entry : kRegistry)
        known += (known.empty() ? "" : ", ") + std::string(entry.name);
    PB_FATAL("unknown benchmark '" << name << "' (known: " << known
                                   << ")");
}

} // namespace apps
} // namespace petabricks
