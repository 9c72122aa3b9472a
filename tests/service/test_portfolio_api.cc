/**
 * @file
 * The portfolio surface of the service API, over real sockets:
 * /machines inventory, tune-then-dispatch end to end, byte-identical
 * champions across a daemon restart on the same portfolio directory,
 * and error mapping for unknown names.
 */

#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>

#include "service/client.h"
#include "service/server.h"
#include "sim/machine.h"
#include "support/error.h"

using namespace petabricks;
using namespace petabricks::service;

namespace {

namespace fs = std::filesystem;

std::string
freshDir(const char *name)
{
    std::string path =
        std::string(::testing::TempDir()) + "pb_portfolio_api_" + name;
    fs::remove_all(path);
    return path;
}

ServerOptions
portfolioServerOptions(const char *name)
{
    ServerOptions options;
    options.port = 0;
    options.workers = 2;
    options.table.spoolDir = freshDir(name) + "/spool";
    options.portfolioDir = freshDir(name) + "/portfolio";
    return options;
}

KvFile
tinyTuneBody()
{
    KvFile kv;
    kv.set("benchmark", "Black-Scholes");
    kv.set("machine", "Desktop");
    kv.setIntList("sizes", {1024, 4096});
    kv.setInt("population", 4);
    kv.setInt("generations", 2);
    return kv;
}

} // namespace

TEST(PortfolioApi, MachinesEndpointListsEveryProfileWithFingerprint)
{
    TuningServer server(portfolioServerOptions("machines"));
    server.start();
    Client client("127.0.0.1", server.port());

    KvFile kv = client.machines();
    std::vector<sim::MachineProfile> machines =
        sim::MachineProfile::all();
    ASSERT_EQ(kv.getInt("machines"),
              static_cast<int64_t>(machines.size()));
    ASSERT_GE(machines.size(), 5u);
    for (size_t i = 0; i < machines.size(); ++i) {
        const std::string prefix = "machine." + std::to_string(i) + ".";
        EXPECT_EQ(kv.get(prefix + "name"), machines[i].name);
        char expected[17];
        std::snprintf(expected, sizeof(expected), "%016llx",
                      static_cast<unsigned long long>(
                          machines[i].fingerprint()));
        EXPECT_EQ(kv.get(prefix + "fingerprint"), expected);
    }
    server.stop();
}

TEST(PortfolioApi, TuneThenDispatchEndToEnd)
{
    TuningServer server(portfolioServerOptions("tune"));
    server.start();
    Client client("127.0.0.1", server.port());

    KvFile tuned = client.portfolioTune(tinyTuneBody());
    EXPECT_EQ(tuned.getInt("tune.rungs"), 2);
    EXPECT_EQ(tuned.get("tune.machine"), "Desktop");

    // Exact hit at a tuned rung serves the stored champion verbatim.
    KvFile served =
        client.portfolioChampion("Black-Scholes", "Desktop", 4096);
    EXPECT_EQ(served.get("dispatch.policy"), "exact");
    EXPECT_EQ(served.getInt("champion.inputSize"), 4096);
    EXPECT_EQ(served.get("champion.configFingerprint"),
              tuned.get("rung.1.configFingerprint"));
    EXPECT_EQ(served.get("champion.secondsBits"),
              tuned.get("rung.1.secondsBits"));

    // Between rungs the dispatcher prices candidates instead.
    KvFile between =
        client.portfolioChampion("Black-Scholes", "Desktop", 2000);
    EXPECT_EQ(between.get("dispatch.policy"), "priced");

    // The listing and the stats both see the stored champions.
    KvFile listing = client.portfolio();
    EXPECT_EQ(listing.getInt("portfolio.entries"), 2);
    EXPECT_EQ(listing.getInt("portfolio.stored"), 2);
    KvFile stats = client.stats();
    EXPECT_EQ(stats.getInt("portfolio.entries"), 2);
    EXPECT_EQ(stats.getInt("portfolio.persistent"), 1);
    server.stop();
}

TEST(PortfolioApi, ClientEncodesNamesWithSpaces)
{
    // "Poisson2D SOR" must reach the daemon percent-encoded; sent raw,
    // the space ends the request target and the daemon answers 400.
    TuningServer server(portfolioServerOptions("spaces"));
    server.start();
    Client client("127.0.0.1", server.port());

    KvFile body;
    body.set("benchmark", "Poisson2D SOR");
    body.set("machine", "Desktop");
    body.setIntList("sizes", {64, 256});
    body.setInt("population", 4);
    body.setInt("generations", 2);
    KvFile tuned = client.portfolioTune(body);
    EXPECT_EQ(tuned.getInt("tune.rungs"), 2);

    KvFile served =
        client.portfolioChampion("Poisson2D SOR", "Desktop", 256);
    EXPECT_EQ(served.get("dispatch.policy"), "exact");
    EXPECT_EQ(served.get("champion.configFingerprint"),
              tuned.get("rung.1.configFingerprint"));
    KvFile between =
        client.portfolioChampion("Poisson2D SOR", "Desktop", 128);
    EXPECT_EQ(between.get("dispatch.policy"), "priced");
    server.stop();
}

TEST(PortfolioApi, ChampionIsByteIdenticalAcrossRestart)
{
    ServerOptions options = portfolioServerOptions("restart");
    std::string before;
    {
        TuningServer server(options);
        server.start();
        Client client("127.0.0.1", server.port());
        client.portfolioTune(tinyTuneBody());
        before = client
                     .portfolioChampion("Black-Scholes", "Desktop", 4096)
                     .toString();
        server.stop();
    }
    // A fresh daemon on the same portfolio directory serves the
    // champion loaded from disk — byte-identical, config and cost bits
    // included.
    TuningServer restarted(options);
    restarted.start();
    Client client("127.0.0.1", restarted.port());
    std::string after =
        client.portfolioChampion("Black-Scholes", "Desktop", 4096)
            .toString();
    EXPECT_EQ(before, after);
    KvFile stats = client.stats();
    EXPECT_EQ(stats.getInt("portfolio.loaded"), 2);
    EXPECT_EQ(stats.getInt("portfolio.quarantined"), 0);
    restarted.stop();
}

TEST(PortfolioApi, UnknownNamesMapToClientErrors)
{
    TuningServer server(portfolioServerOptions("errors"));
    server.start();
    Client client("127.0.0.1", server.port());

    // Unknown machine profile: byName's FatalError (listing the known
    // profiles) surfaces as a 400 with the message intact.
    try {
        client.portfolioChampion("Black-Scholes", "Phone", 1024);
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("Phone"),
                  std::string::npos);
        EXPECT_NE(std::string(error.what()).find("BigLittle"),
                  std::string::npos);
    }
    EXPECT_THROW(client.portfolioChampion("NoSuchBenchmark", "Desktop",
                                          1024),
                 FatalError);
    // Tuning requires both names in the body.
    KvFile body;
    body.set("benchmark", "Black-Scholes");
    EXPECT_THROW(client.portfolioTune(body), FatalError);
    server.stop();
}
