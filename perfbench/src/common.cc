#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "benchmarks/registry.h"
#include "tuner/portfolio_tuner.h"

namespace perfbench {

const std::vector<std::string> &
benchmarkNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &benchmark : petabricks::apps::allBenchmarks())
            out.push_back(benchmark->name());
        return out;
    }();
    return names;
}

std::string
slugOf(const std::string &benchmark)
{
    static const std::map<std::string, std::string> slugs = {
        {"Black-Scholes", "blackscholes"},
        {"Poisson2D SOR", "poisson"},
        {"SeparableConv.", "convolution"},
        {"Sort", "sort"},
        {"Strassen", "strassen"},
        {"SVD", "svd"},
        {"Tridiagonal Solver", "tridiagonal"},
        {"Mandelbrot", "mandelbrot"},
    };
    auto it = slugs.find(benchmark);
    return it == slugs.end() ? std::string() : it->second;
}

std::vector<TuneOp>
tuneRounds(SeedRng &rng, size_t rounds)
{
    std::vector<TuneOp> ops;
    for (size_t r = 0; r < rounds; ++r) {
        std::vector<std::string> order = benchmarkNames();
        rng.shuffle(order);
        for (const std::string &name : order)
            ops.push_back({name, rng.tunerSeed()});
    }
    return ops;
}

const std::vector<std::string> &
preparedMachines()
{
    static const std::vector<std::string> machines = {"Desktop", "Laptop"};
    return machines;
}

std::vector<PortfolioOp>
dispatchOps(SeedRng &rng, size_t count)
{
    // Dispatch cost differs ~10x between (benchmark, policy) classes
    // and grows with n, so a freely drawn mix would move the latency
    // tail with the seed. Every seed therefore gets the same mix: op i
    // is policy i % 3 of benchmark (i / 3) % 8, and within a class the
    // j-th op takes its size and machine from a Weyl sequence started
    // at a seeded offset, which covers the range evenly for any seed.
    // The seed still picks the offsets and the order.
    using petabricks::tuner::PortfolioTuner;
    static const std::vector<std::string> foreignMachines = {"Ultrabook",
                                                             "BigLittle"};
    constexpr double kGolden = 0.6180339887498949;
    const std::vector<std::string> &names = benchmarkNames();
    const size_t classes = 3 * names.size();
    std::vector<double> offsets(classes);
    for (double &offset : offsets)
        offset = static_cast<double>(rng.below(1u << 20)) /
                 static_cast<double>(1u << 20);
    std::vector<PortfolioOp> ops;
    for (size_t i = 0; i < count; ++i) {
        const size_t kind = i % 3;
        const size_t j = i / classes; // this op's turn within its class
        const double offset = offsets[i % classes];
        double u = offset + static_cast<double>(j) * kGolden;
        u -= std::floor(u);
        PortfolioOp op;
        op.benchmark = names[(i / 3) % names.size()];
        petabricks::apps::BenchmarkPtr benchmark =
            petabricks::apps::findBenchmark(op.benchmark);
        std::vector<int64_t> rungs = PortfolioTuner::sizeLadder(
            benchmark->minTuningSize(), benchmark->testingInputSize(), 4);
        const std::vector<std::string> &machines =
            kind == 2 ? foreignMachines : preparedMachines();
        op.machine = machines[(j + static_cast<size_t>(offset * 2)) % 2];
        if (kind == 0) {
            op.n = rungs[static_cast<size_t>(u * static_cast<double>(
                rungs.size()))];
        } else {
            // Log-uniform between half the smallest rung and twice the
            // largest, nudged off any rung so it cannot hit exactly.
            double lo = std::log(static_cast<double>(rungs.front()) / 2);
            double hi = std::log(static_cast<double>(rungs.back()) * 2);
            op.n = std::max<int64_t>(
                1, static_cast<int64_t>(std::exp(lo + u * (hi - lo))));
            if (std::find(rungs.begin(), rungs.end(), op.n) != rungs.end())
                ++op.n;
        }
        ops.push_back(op);
    }
    rng.shuffle(ops);
    return ops;
}

std::vector<PortfolioOp>
portfolioTuneOps(SeedRng &rng, size_t count)
{
    std::vector<PortfolioOp> ops;
    for (size_t i = 0; i < count; ++i) {
        PortfolioOp op;
        op.benchmark = benchmarkNames()[i % benchmarkNames().size()];
        op.machine = kWriteMachine;
        op.seed = rng.tunerSeed();
        ops.push_back(op);
    }
    return ops;
}

std::string
percentEncode(const std::string &text)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    for (unsigned char c : text) {
        if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
            out += static_cast<char>(c);
        } else {
            out += '%';
            out += hex[c >> 4];
            out += hex[c & 15];
        }
    }
    return out;
}

// ---- Samples -----------------------------------------------------------

void
Samples::append(const Samples &other)
{
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double
Samples::sum() const
{
    double total = 0;
    for (double v : values_)
        total += v;
    return total;
}

double
Samples::mean() const
{
    return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double
Samples::percentile(double q) const
{
    if (values_.empty())
        return 0.0;
    std::vector<double> sorted = values_;
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    std::nth_element(sorted.begin(), sorted.begin() + (rank - 1),
                     sorted.end());
    return sorted[rank - 1];
}

// ---- Tracer ------------------------------------------------------------

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

Tracer::ThreadLog &
Tracer::local()
{
    // One log per (thread, tracer); logs outlive their threads so the
    // dump at the end sees every worker's spans.
    thread_local ThreadLog *log = nullptr;
    thread_local const Tracer *owner = nullptr;
    if (log == nullptr || owner != this) {
        std::lock_guard<std::mutex> lock(mutex_);
        logs_.push_back(std::make_unique<ThreadLog>());
        log = logs_.back().get();
        owner = this;
    }
    return *log;
}

uint32_t
Tracer::intern(const char *name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] =
        ids_.emplace(name, static_cast<uint32_t>(names_.size()));
    if (inserted)
        names_.push_back(name);
    return it->second;
}

void
Tracer::open(const char *name)
{
    ThreadLog &log = local();
    // Span names are string literals: cache the interned id by address.
    thread_local std::map<const char *, uint32_t> cache;
    auto it = cache.find(name);
    uint32_t id = it != cache.end() ? it->second
                                    : (cache[name] = intern(name));
    Frame frame{id, 0, 0, -1};
    if (log.spans.size() < kMaxSpansPerThread) {
        Span span;
        span.name = id;
        span.parent = log.stack.empty() ? -1 : log.stack.back().index;
        frame.index = static_cast<int32_t>(log.spans.size());
        log.spans.push_back(span);
    }
    frame.startNs = nowNs();
    log.stack.push_back(frame);
}

void
Tracer::close()
{
    const int64_t end = nowNs();
    ThreadLog &log = local();
    Frame frame = log.stack.back();
    log.stack.pop_back();
    const int64_t duration = end - frame.startNs;
    SpanTotals &totals = log.totals[frame.name];
    ++totals.count;
    totals.totalNs += duration;
    totals.selfNs += duration - frame.childNs;
    if (!log.stack.empty())
        log.stack.back().childNs += duration;
    if (frame.index >= 0) {
        log.spans[static_cast<size_t>(frame.index)].startNs = frame.startNs;
        log.spans[static_cast<size_t>(frame.index)].endNs = end;
    }
}

std::map<std::string, SpanTotals>
Tracer::totals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, SpanTotals> out;
    for (const auto &log : logs_)
        for (const auto &[id, totals] : log->totals) {
            SpanTotals &sum = out[names_[id]];
            sum.count += totals.count;
            sum.totalNs += totals.totalNs;
            sum.selfNs += totals.selfNs;
        }
    return out;
}

size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t count = 0;
    for (const auto &log : logs_)
        count += log->spans.size();
    return count;
}

void
Tracer::write(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "thread\tname\tstart_ns\tend_ns\tparent\n";
    for (size_t t = 0; t < logs_.size(); ++t)
        for (const Span &span : logs_[t]->spans)
            out << t << '\t' << names_[span.name] << '\t' << span.startNs
                << '\t' << span.endNs << '\t' << span.parent << '\n';
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &log : logs_) {
        log->spans.clear();
        log->totals.clear();
    }
}

// ---- Report ------------------------------------------------------------

void
Report::fail(const std::string &why)
{
    ++failed;
    std::lock_guard<std::mutex> lock(mutex);
    if (problems.size() < 20)
        problems.push_back(why);
}

void
Report::mismatch(const std::string &why)
{
    ++mismatches_;
    fail("check failed: " + why);
}

std::vector<double>
onEachCpu(int times, const std::function<double()> &measure)
{
    cpu_set_t original;
    CPU_ZERO(&original);
    pthread_getaffinity_np(pthread_self(), sizeof(original), &original);
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &original))
            cpus.push_back(cpu);
    std::vector<double> values;
    for (int k = 0; k < times; ++k) {
        if (!cpus.empty()) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus[static_cast<size_t>(k) % cpus.size()], &one);
            pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
        }
        values.push_back(measure());
    }
    pthread_setaffinity_np(pthread_self(), sizeof(original), &original);
    return values;
}

double
residentMb()
{
    std::ifstream statm("/proc/self/statm");
    double pages = 0, resident = 0;
    statm >> pages >> resident;
    return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

void
releaseFreedMemory()
{
    malloc_trim(0);
}

std::string
unitOf(const std::string &metric)
{
    if (metric.ends_with("_per_s"))
        return "1/s";
    if (metric.ends_with("_mb"))
        return "MB";
    if (metric.ends_with("_s"))
        return "s";
    return "ms";
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

} // namespace perfbench
