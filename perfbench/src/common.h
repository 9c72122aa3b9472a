/**
 * @file
 * Shared pieces of the repository benchmark: the seed-generated
 * operation lists, latency samples, the span tracer and the metric
 * sink every workload reports into.
 *
 * The benchmark drives the library only through its public headers.
 * Spans are recorded here, around the calls the benchmark makes into
 * each layer; the library itself carries no tracing.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** SplitMix64: a portable generator, so one seed yields one operation
 * list whatever the standard library's distributions do. */
class SeedRng
{
  public:
    explicit SeedRng(uint64_t seed) : state_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

    /** A tuner seed: positive and within int64 for the wire format. */
    uint64_t tunerSeed() { return 1 + (next() >> 2); }

    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
    }

  private:
    uint64_t state_;
};

/** Where the untimed preparation's generators start. */
constexpr uint64_t kPrepSeed = 0x5eedull;

/**
 * The generator of repeat @p repeat's prepared state (the tuned
 * portfolio; for service_mixed also the warm segments and the spooled
 * sessions). It ignores --seed: a dispatch's cost is set by the
 * champions it re-prices, and portfolios tuned from different seeds
 * differ about twofold in their dispatch tail. So every run prepares
 * the same kRepeats portfolios, and --seed picks only the operations
 * run against them.
 */
inline SeedRng
prepRng(int repeat)
{
    return SeedRng(kPrepSeed + static_cast<uint64_t>(repeat));
}

/** One tuning run: a default search of @p benchmark with @p seed. */
struct TuneOp
{
    std::string benchmark;
    uint64_t seed = 0;
};

/** One portfolio request: a dispatch query or a ladder tune. */
struct PortfolioOp
{
    std::string benchmark;
    std::string machine;
    int64_t n = 0;       ///< dispatch only
    uint64_t seed = 0;   ///< tune only
};

/** The eight benchmarks in registry order, and their metric slugs. */
const std::vector<std::string> &benchmarkNames();
std::string slugOf(const std::string &benchmark);

/** @p rounds rounds, each every benchmark once in shuffled order with
 * a fresh seed. Every round has the same cost mix. */
std::vector<TuneOp> tuneRounds(SeedRng &rng, size_t rounds);

/** Machines the prepared portfolio is tuned on; dispatch queries on
 * them are answered exactly or by nearest-size pricing. */
const std::vector<std::string> &preparedMachines();

/** The machine portfolio writes go to. No dispatch query names it, so
 * writes can change only foreign-fallback answers. */
const char *const kWriteMachine = "Server";

/** Dispatch queries: a third exact (a prepared rung size), a third
 * nearest-size (between rungs), a third on machines with no champion
 * (foreign fallback). */
std::vector<PortfolioOp> dispatchOps(SeedRng &rng, size_t count);

/** Ladder tunes onto kWriteMachine with fresh seeds. */
std::vector<PortfolioOp> portfolioTuneOps(SeedRng &rng, size_t count);

/** Percent-encode a query-string value (benchmark names hold spaces). */
std::string percentEncode(const std::string &text);

/** Latency samples in milliseconds. */
class Samples
{
  public:
    void add(double ms) { values_.push_back(ms); }
    void append(const Samples &other);
    size_t size() const { return values_.size(); }
    double sum() const;
    double mean() const;
    /** Nearest-rank percentile, @p q in [0, 1]; 0 when empty. */
    double percentile(double q) const;

  private:
    std::vector<double> values_;
};

/**
 * Every workload runs its operation list this many times, each time on
 * fresh state, and reports the median over the repeats (a p99 whose
 * repeats are too small for one is taken over the pooled samples). On
 * a shared host a stretch of interference from another tenant then
 * moves one repeat, not the result.
 */
constexpr int kRepeats = 9;

// ---- Tracing ---------------------------------------------------------

/** Per-name span aggregate: count, total and self time. */
struct SpanTotals
{
    int64_t count = 0;
    int64_t totalNs = 0;
    int64_t selfNs = 0;
};

/**
 * Records spans (name, start, end, parent) per thread in memory and
 * writes them out at the end. Each span's self time (its duration minus
 * what its children cover) is aggregated as the span closes, so the
 * per-layer figures do not depend on how many spans are kept.
 * Disabled, a ScopedSpan costs one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        uint32_t name = 0;
        int32_t parent = -1; ///< index in the same thread's list
        int64_t startNs = 0;
        int64_t endNs = 0;
    };

    static Tracer &instance();

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /** Aggregates by span name over every thread. */
    std::map<std::string, SpanTotals> totals() const;

    /** Spans kept (at most kMaxSpansPerThread per thread). */
    size_t spanCount() const;

    /** Tab-separated dump: thread, name, start, end, parent. */
    void write(const std::string &path) const;

    /** Drop every recorded span and aggregate. */
    void reset();

    // Used by ScopedSpan.
    void open(const char *name);
    void close();

    static constexpr size_t kMaxSpansPerThread = 50000;

  private:
    struct Frame
    {
        uint32_t name;
        int64_t startNs;
        int64_t childNs;
        int32_t index; ///< kept span index, -1 when over the cap
    };
    struct ThreadLog
    {
        std::vector<Span> spans;
        std::vector<Frame> stack;
        std::map<uint32_t, SpanTotals> totals;
    };

    ThreadLog &local();
    uint32_t intern(const char *name);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadLog>> logs_;
    std::vector<std::string> names_;
    std::map<std::string, uint32_t> ids_;
};

class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name)
        : active_(Tracer::instance().enabled())
    {
        if (active_)
            Tracer::instance().open(name);
    }
    ~ScopedSpan()
    {
        if (active_)
            Tracer::instance().close();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    bool active_;
};

// ---- Results -----------------------------------------------------------

/** Operation accounting and the metrics a run prints. */
struct Report
{
    std::atomic<int64_t> attempted{0};
    std::atomic<int64_t> failed{0};
    std::vector<std::string> problems; ///< guarded by mutex
    std::mutex mutex;

    std::map<std::string, std::pair<double, std::string>> metrics;

    void set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Count a failed operation with a reason (first few are printed). */
    void fail(const std::string &why);

    /** Count a failed correctness check; it is also a failed
     * operation. */
    void mismatch(const std::string &why);

    bool checksPassed() const { return mismatches_ == 0; }

  private:
    std::atomic<int64_t> mismatches_{0};
};

/** Settings shared by every workload. */
struct RunSettings
{
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string stateDir; ///< scratch state, RAM-backed when possible
    std::string outDir;   ///< where the span dump goes
    int threads = 4; ///< closed-loop search threads: min(4, cores)
};

/** Resident set of this process now, MiB. */
double residentMb();

/** Hand freed heap memory back to the system between repeats, so each
 * repeat's resident figure starts from the same state. */
void releaseFreedMemory();

/** The unit of an end-to-end metric, from its name's suffix. */
std::string unitOf(const std::string &metric);

/**
 * Call @p measure @p times times, the k-th call pinned to the k-th of
 * the CPUs this thread may run on (round robin), and return what each
 * call measured; the thread's CPU mask is restored afterwards. Set-up
 * is single-threaded, and on a shared host one CPU can run far slower
 * than the others for a while; spreading the samples over every CPU
 * keeps their median off that CPU. Threads @p measure starts inherit
 * the pin.
 */
std::vector<double> onEachCpu(int times,
                              const std::function<double()> &measure);

/** Median of repeated measurements. */
double median(std::vector<double> values);



} // namespace perfbench

#endif // PERFBENCH_COMMON_H
