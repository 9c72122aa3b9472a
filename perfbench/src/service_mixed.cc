/**
 * @file
 * service_mixed: an in-process TuningServer on loopback driven by four
 * closed-loop clients side by side — two run tuning sessions (create,
 * step until done, champion, stop), one dispatches from the champion
 * portfolio, one tunes new champions into it. Each repeat boots a new
 * daemon over freshly prepared state dirs.
 */

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <thread>

#include "cache/shared_cache.h"
#include "portfolio_ops.h"
#include "replay.h"
#include "search.h"
#include "service/client.h"
#include "service/server.h"
#include "support/error.h"
#include "workloads.h"

namespace perfbench {

using namespace petabricks;

namespace {

// Operation counts per second of --seconds, over all kRepeats repeats,
// sized so that each client's lists take about that long on a 4-core
// x86 host. Every repeat runs on freshly prepared state dirs.
constexpr size_t kTuneRoundsPerSecond = 12; ///< per client, 8 runs each
constexpr size_t kDispatchesPerSecond = 2800;
constexpr size_t kPortfolioTunesPerSecond = 500;
constexpr int kTuningClients = 2;
/** Timed boots per repeat, one per CPU of a 4-core host. */
constexpr int kSetupBoots = 4;
/** At most this many tuning runs are replayed in-process for the
 * per-layer figures. */
constexpr size_t kReplayRuns = 400;

struct Ops
{
    std::vector<std::vector<TuneOp>> tuning; ///< one list per client
    std::vector<PortfolioOp> dispatches;
    std::vector<PortfolioOp> tunes;
};

Ops
makeOps(SeedRng &rng, int seconds)
{
    Ops ops;
    const size_t s = static_cast<size_t>(seconds);
    for (int c = 0; c < kTuningClients; ++c)
        ops.tuning.push_back(
            tuneRounds(rng, s * kTuneRoundsPerSecond / kRepeats));
    ops.dispatches = dispatchOps(rng, s * kDispatchesPerSecond / kRepeats);
    ops.tunes =
        portfolioTuneOps(rng, s * kPortfolioTunesPerSecond / kRepeats);
    return ops;
}

service::ServerOptions
serverOptions(const std::string &dir)
{
    service::ServerOptions options;
    options.workers = 4;
    options.table.spoolDir = dir + "/spool";
    options.cache.dir = dir + "/cache";
    options.portfolioDir = dir + "/portfolio";
    return options;
}

/** Untimed: the prepared portfolio, a warm cache segment dir, and a
 * few part-stepped spooled sessions for the boot-time spool fsck. */
void
prepareState(const service::ServerOptions &options, SeedRng &rng)
{
    cache::SharedEvaluationCache l2(options.cache);
    portfolio::ChampionPortfolio portfolio(options.portfolioDir);
    preparePortfolio(portfolio, rng, &l2);
    service::SessionTableOptions tableOptions = options.table;
    tableOptions.sharedCache = &l2;
    service::SessionTable table(tableOptions);
    for (const std::string &name : benchmarkNames()) {
        std::string id = table.create(specFor({name, rng.tunerSeed()}));
        table.step(id, 3);
    }
    l2.flush();
}

/** Boot over the state dirs until the first /healthz answers. */
std::unique_ptr<service::TuningServer>
boot(const service::ServerOptions &options, double *seconds)
{
    auto start = Clock::now();
    auto server = std::make_unique<service::TuningServer>(options);
    server->start();
    service::Client client("127.0.0.1", server->port(), 30000);
    KvFile health = client.command("GET", "/healthz");
    *seconds = secondsSince(start);
    if (health.getIntOr("health.ok", 0) != 1)
        PB_FATAL("daemon booted unhealthy");
    return server;
}

uint64_t
hexField(const KvFile &kv, const std::string &key)
{
    return std::strtoull(kv.get(key).c_str(), nullptr, 16);
}

struct HandlerTotals
{
    double count = 0;
    double micros = 0;
};

/** command.<name>.{count,meanMicros} from /stats, as totals. */
std::map<std::string, HandlerTotals>
handlerTotals(const KvFile &stats)
{
    std::map<std::string, HandlerTotals> out;
    for (const char *name :
         {"step", "create", "champion", "portfolio/champion"}) {
        const std::string prefix = std::string("command.") + name + ".";
        if (!stats.has(prefix + "count"))
            continue;
        HandlerTotals &totals = out[name];
        totals.count = static_cast<double>(stats.getInt(prefix + "count"));
        totals.micros = totals.count * stats.getDouble(prefix + "meanMicros");
    }
    return out;
}

/** What the four clients measured in one pass. */
struct ClientPass
{
    Samples tuneMs, stepMs, dispatchMs, ptuneMs;
    double tuningSeconds = 0;   ///< until the last tuning client finished
    double dispatchSeconds = 0; ///< the dispatch client's list
    double residentMb = 0;      ///< when the clients finished
    int64_t candidates = 0;
    int64_t rejections = 0;
    /** Champion bodies per tuning client, index-aligned with its ops
     * (empty when the run failed). */
    std::vector<std::vector<KvFile>> champions;
    PortfolioPass portfolio;
    KvFile statsBefore, statsAfter;
};

/** Count a failed request; a 503 is also a rejection. */
void
failRequest(const std::exception &error, const char *what, ClientPass &pass,
            std::mutex &mutex, Report &report)
{
    if (dynamic_cast<const TransientError *>(&error) != nullptr) {
        std::lock_guard<std::mutex> lock(mutex);
        ++pass.rejections;
    }
    report.fail(std::string(what) + ": " + error.what());
}

ClientPass
drive(uint16_t port, const Ops &ops, Report &report)
{
    ClientPass pass;
    pass.champions.resize(ops.tuning.size());
    pass.portfolio.answers.resize(ops.dispatches.size());
    std::mutex mutex; // guards the merged samples and counters
    pass.statsBefore = service::Client("127.0.0.1", port).stats();
    const auto start = Clock::now();

    auto tuningClient = [&](size_t c) {
        service::Client client("127.0.0.1", port);
        const std::vector<TuneOp> &list = ops.tuning[c];
        pass.champions[c].resize(list.size());
        Samples tuneMs, stepMs;
        int64_t candidates = 0;
        for (size_t i = 0; i < list.size(); ++i) {
            ++report.attempted;
            try {
                auto t0 = Clock::now();
                KvFile request;
                request.set("benchmark", list[i].benchmark);
                request.setInt("seed", static_cast<int64_t>(list[i].seed));
                std::string id;
                int64_t scored = 0;
                {
                    ScopedSpan span("service.create");
                    id = client.create(request);
                }
                for (;;) {
                    auto s0 = Clock::now();
                    KvFile status;
                    {
                        ScopedSpan span("service.step");
                        status = client.command(
                            "POST", "/step?session=" + id + "&steps=1");
                    }
                    stepMs.add(secondsSince(s0) * 1e3);
                    if (status.getInt("status.done") == 1) {
                        scored = status.getInt("status.evaluations") +
                                 status.getInt("status.cacheHits");
                        break;
                    }
                }
                KvFile champion;
                {
                    ScopedSpan span("service.champion");
                    champion = client.champion(id);
                }
                tuneMs.add(secondsSince(t0) * 1e3);
                candidates += scored;
                pass.champions[c][i] = std::move(champion);
                ScopedSpan span("service.stop");
                client.stopSession(id);
            } catch (const std::exception &error) {
                failRequest(error, "tuning session", pass, mutex, report);
            }
        }
        std::lock_guard<std::mutex> lock(mutex);
        pass.tuneMs.append(tuneMs);
        pass.stepMs.append(stepMs);
        pass.candidates += candidates;
        pass.tuningSeconds = std::max(pass.tuningSeconds, secondsSince(start));
    };

    auto dispatchClient = [&] {
        service::Client client("127.0.0.1", port);
        for (size_t i = 0; i < ops.dispatches.size(); ++i) {
            const PortfolioOp &op = ops.dispatches[i];
            ++report.attempted;
            // Client::portfolioChampion sends the benchmark name without
            // percent-encoding, so "Poisson2D SOR" and "Tridiagonal
            // Solver" would be refused with a 400; encode it here.
            const std::string target =
                "/portfolio/champion?benchmark=" +
                percentEncode(op.benchmark) + "&machine=" + op.machine +
                "&n=" + std::to_string(op.n);
            try {
                const int64_t startNs = nowNs();
                auto t0 = Clock::now();
                KvFile body;
                {
                    ScopedSpan span("service.dispatch");
                    body = client.command("GET", target);
                }
                pass.dispatchMs.add(secondsSince(t0) * 1e3);
                DispatchAnswer &answer = pass.portfolio.answers[i];
                answer.ok = true;
                answer.policy = body.get("dispatch.policy");
                answer.configFingerprint =
                    hexField(body, "champion.configFingerprint");
                answer.pricedBits =
                    hexField(body, "dispatch.pricedSecondsBits");
                answer.startNs = startNs;
            } catch (const std::exception &error) {
                failRequest(error, "dispatch", pass, mutex, report);
            }
        }
        pass.dispatchSeconds = secondsSince(start);
    };

    auto writerClient = [&] {
        service::Client client("127.0.0.1", port);
        std::map<std::string, int64_t> lastWrite;
        for (const PortfolioOp &op : ops.tunes) {
            ++report.attempted;
            KvFile body;
            body.set("benchmark", op.benchmark);
            body.set("machine", op.machine);
            body.setInt("seed", static_cast<int64_t>(op.seed));
            auto t0 = Clock::now();
            try {
                ScopedSpan span("service.ptune");
                client.command("POST", "/portfolio/tune", body.toString());
                pass.ptuneMs.add(secondsSince(t0) * 1e3);
            } catch (const std::exception &error) {
                failRequest(error, "portfolio tune", pass, mutex, report);
            }
            lastWrite[op.benchmark] = nowNs();
        }
        pass.portfolio.lastWriteEndNs = std::move(lastWrite);
    };

    std::vector<std::thread> clients;
    for (size_t c = 0; c < ops.tuning.size(); ++c)
        clients.emplace_back(tuningClient, c);
    clients.emplace_back(dispatchClient);
    clients.emplace_back(writerClient);
    for (std::thread &thread : clients)
        thread.join();
    pass.residentMb = residentMb();
    pass.statsAfter = service::Client("127.0.0.1", port).stats();
    return pass;
}

/** Every champion must be byte-identical to runSpecLocally's. */
void
checkChampions(const Ops &ops, const ClientPass &pass, Report &report)
{
    std::vector<std::pair<const TuneOp *, const KvFile *>> work;
    for (size_t c = 0; c < ops.tuning.size(); ++c)
        for (size_t i = 0; i < ops.tuning[c].size(); ++i)
            if (pass.champions[c][i].size() != 0)
                work.emplace_back(&ops.tuning[c][i], &pass.champions[c][i]);
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t k; (k = next.fetch_add(1)) < work.size();) {
            const TuneOp &op = *work[k].first;
            const KvFile &got = *work[k].second;
            tuner::TuningResult local = service::runSpecLocally(specFor(op));
            KvFile want = local.best.toKv();
            want.setDouble("champion.seconds", local.bestSeconds);
            want.setInt("champion.done", 1);
            for (const std::string &key : want.keys())
                if (!got.has(key) || got.get(key) != want.get(key)) {
                    report.mismatch("champion of " + op.benchmark + " seed " +
                                    std::to_string(op.seed) +
                                    " differs from runSpecLocally at '" +
                                    key + "'");
                    break;
                }
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t)
        pool.emplace_back(worker);
    for (std::thread &thread : pool)
        thread.join();
}

/** Fresh state, prepared, booted; one pass of the clients; checks. */
struct ServicePass
{
    ClientPass clients;
    std::unique_ptr<service::TuningServer> server; ///< stopped
};

/** Repeat @p repeat. @p boots, when given, gets the times of
 * kSetupBoots boots over the prepared state before the serving one
 * appended. */
ServicePass
runPass(const RunSettings &settings, const std::string &dir, int repeat,
        bool traced, std::vector<double> *boots, Report &report)
{
    releaseFreedMemory();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const service::ServerOptions options = serverOptions(dir);
    SeedRng prep = prepRng(repeat);
    prepareState(options, prep);
    SeedRng rng(settings.seed);
    Ops ops = makeOps(rng, settings.seconds);

    double bootSeconds = 0;
    if (boots != nullptr)
        for (double seconds : onEachCpu(kSetupBoots, [&] {
                 boot(options, &bootSeconds)->stop();
                 return bootSeconds;
             }))
            boots->push_back(seconds);
    ServicePass pass;
    pass.server = boot(options, &bootSeconds);
    Tracer::instance().enable(traced);
    pass.clients = drive(pass.server->port(), ops, report);
    Tracer::instance().enable(false);
    pass.server->stop();

    checkChampions(ops, pass.clients, report);
    int64_t checked = checkDispatches(ops.dispatches, pass.clients.portfolio,
                                      pass.server->portfolio(), report);
    std::cerr << "service_mixed: " << checked << " of "
              << ops.dispatches.size()
              << " dispatches checked against the final portfolio\n";
    return pass;
}

} // namespace

void
runServiceMixed(const RunSettings &settings, Report &report)
{
    const std::string dir = settings.stateDir + "/service";

    if (!settings.trace) {
        std::vector<double> boots;
        std::map<std::string, std::vector<double>> figures;
        Samples tuneMs, ptuneMs; // too few per repeat for a p99: pooled
        for (int r = 0; r < kRepeats; ++r) {
            const ClientPass c =
                runPass(settings, dir, r, false, &boots, report).clients;
            figures["tunes_per_s"].push_back(
                static_cast<double>(c.tuneMs.size()) / c.tuningSeconds);
            figures["configs_per_s"].push_back(
                static_cast<double>(c.candidates) / c.tuningSeconds);
            figures["tune_p50_ms"].push_back(c.tuneMs.percentile(0.5));
            figures["step_p50_ms"].push_back(c.stepMs.percentile(0.5));
            figures["step_p99_ms"].push_back(c.stepMs.percentile(0.99));
            figures["dispatch_per_s"].push_back(
                static_cast<double>(c.dispatchMs.size()) / c.dispatchSeconds);
            figures["dispatch_p50_ms"].push_back(c.dispatchMs.percentile(0.5));
            figures["dispatch_p99_ms"].push_back(
                c.dispatchMs.percentile(0.99));
            figures["ptune_p50_ms"].push_back(c.ptuneMs.percentile(0.5));
            figures["peak_rss_mb"].push_back(c.residentMb);
            tuneMs.append(c.tuneMs);
            ptuneMs.append(c.ptuneMs);
            std::cerr << "service_mixed repeat " << r << ": "
                      << c.tuneMs.size() << " tunes (" << c.stepMs.size()
                      << " steps) in " << c.tuningSeconds << " s, "
                      << c.dispatchMs.size() << " dispatches in "
                      << c.dispatchSeconds << " s, " << c.ptuneMs.size()
                      << " portfolio tunes\n";
        }
        for (const auto &[name, values] : figures)
            report.set(name, median(values), unitOf(name));
        report.set("tune_p99_ms", tuneMs.percentile(0.99), "ms");
        report.set("ptune_p99_ms", ptuneMs.percentile(0.99), "ms");
        report.set("setup_s", median(boots), "s");
        return;
    }

    // Traced: an untraced pass for the overhead baseline (its counts
    // stay off the report), then the traced pass.
    double untracedSeconds;
    {
        Report baseline;
        untracedSeconds = runPass(settings, dir, 0, false, nullptr, baseline)
                              .clients.tuningSeconds;
        if (baseline.failed != 0)
            report.fail("the untraced baseline pass had failures");
    }
    Tracer::instance().reset();
    ServicePass pass = runPass(settings, dir, 0, true, nullptr, report);
    const ClientPass &c = pass.clients;
    report.set("trace.overhead_pct",
               (c.tuningSeconds / untracedSeconds - 1) * 100, "%");

    // service: round trips minus the daemon's own handler time.
    std::map<std::string, HandlerTotals> before = handlerTotals(c.statsBefore);
    std::map<std::string, HandlerTotals> after = handlerTotals(c.statsAfter);
    auto handlerUs = [&](const std::string &name) {
        double count = after[name].count - before[name].count;
        return count > 0 ? (after[name].micros - before[name].micros) / count
                         : 0.0;
    };
    report.set("service.step_handler_us", handlerUs("step"), "us");
    report.set("service.dispatch_handler_us", handlerUs("portfolio/champion"),
               "us");
    report.set("service.create_handler_us", handlerUs("create"), "us");
    report.set("service.champion_handler_us", handlerUs("champion"), "us");
    report.set("service.step_overhead_us",
               c.stepMs.mean() * 1e3 - handlerUs("step"), "us");
    report.set("service.dispatch_overhead_us",
               c.dispatchMs.mean() * 1e3 - handlerUs("portfolio/champion"),
               "us");
    report.set("service.rejections", static_cast<double>(c.rejections),
               "count");
    const double hits = static_cast<double>(
        c.statsAfter.getInt("cache.hits") - c.statsBefore.getInt("cache.hits"));
    const double misses =
        static_cast<double>(c.statsAfter.getInt("cache.misses") -
                            c.statsBefore.getInt("cache.misses"));
    reportPolicyShares(c.portfolio, report);

    // Per-layer replays of the same operations, in-process.
    Tracer::instance().enable(true);
    SeedRng rng(settings.seed);
    Ops ops = makeOps(rng, settings.seconds);
    std::vector<TuneOp> sample(
        ops.tuning[0].begin(),
        ops.tuning[0].begin() +
            static_cast<std::ptrdiff_t>(
                std::min(kReplayRuns, ops.tuning[0].size())));
    replaySessionTable(sample, dir, report);

    cache::SharedEvaluationCache l2(cache::SharedCacheOptions{});
    Capture capture;
    Report scratch;
    SearchPass search = runSearch(sample, 1, &l2, &capture, scratch);
    reportSearchLayers(capture, search, report);
    replayCapture(capture, l2, dir + "/flush", report);
    report.set("cache.l2_hit_ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    std::vector<double> loads;
    for (int i = 0; i < 5; ++i) {
        auto start = Clock::now();
        cache::SharedEvaluationCache loaded(serverOptions(dir).cache);
        loads.push_back(secondsSince(start) * 1e3);
    }
    report.set("cache.segment_load_ms", median(loads), "ms");

    // portfolio: dispatch on the final portfolio, ladder tunes into a
    // scratch one.
    const portfolio::ChampionPortfolio &final = pass.server->portfolio();
    Samples dispatchMs, tuneMs;
    for (size_t i = 0; i < std::min<size_t>(ops.dispatches.size(), 2000);
         ++i) {
        auto start = Clock::now();
        ScopedSpan span("portfolio.dispatch");
        dispatchInProcess(ops.dispatches[i], final);
        dispatchMs.add(secondsSince(start) * 1e3);
    }
    portfolio::ChampionPortfolio scratchPortfolio;
    for (size_t i = 0; i < std::min<size_t>(ops.tunes.size(), 40); ++i) {
        auto start = Clock::now();
        ScopedSpan span("portfolio.tune");
        tuneInProcess(ops.tunes[i], scratchPortfolio, nullptr);
        tuneMs.add(secondsSince(start) * 1e3);
    }
    report.set("portfolio.dispatch_us", dispatchMs.mean() * 1e3, "us");
    report.set("portfolio.tune_us", tuneMs.mean() * 1e3, "us");
    replayPortfolioPut(final, dir + "/put", report);
    Tracer::instance().enable(false);
    reportSelfTimes(report);
}

} // namespace perfbench
