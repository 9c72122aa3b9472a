/**
 * @file
 * perfbench: the repository benchmark's measuring program.
 *
 *   perfbench --workload <service_mixed|search_cold|search_warm>
 *             --seed <n> --seconds <s> --trace <0|1> --root <dir>
 *             [--tmpfs 1]
 *
 * Scratch state goes under <root>/.bench_state and span dumps under
 * <root>/.bench_out. With --tmpfs 1 (run.py passes it when it could
 * start the program in a private mount namespace) a tmpfs is mounted
 * over .bench_state first, so fsync costs RAM, not the host disk.
 * Prints informational lines, then one JSON object as the last line.
 */

#include <sys/mount.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "support/logging.h"
#include "workloads.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <service_mixed|search_cold|"
                 "search_warm> --seed <n> --seconds <s> --trace <0|1> "
                 "--root <dir> [--tmpfs 1]\n";
    std::exit(2);
}

std::string
filesystemType(const std::string &path)
{
    struct statfs info{};
    if (statfs(path.c_str(), &info) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    default: {
        char hex[32];
        std::snprintf(hex, sizeof(hex), "0x%lx",
                      static_cast<unsigned long>(info.f_type));
        return hex;
    }
    }
}

/** JSON number with every digit a double carries. */
std::string
number(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace

int
main(int argc, char **argv)
{
    RunSettings settings;
    std::string root;
    bool tmpfs = false;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                settings.workload = value;
            } else if (flag == "--seed") {
                settings.seed = std::stoull(value);
                haveSeed = true;
            } else if (flag == "--seconds") {
                settings.seconds = std::stoi(value);
                haveSeconds = true;
            } else if (flag == "--trace") {
                settings.trace = std::stoi(value) != 0;
                haveTrace = true;
            } else if (flag == "--root") {
                root = value;
            } else if (flag == "--tmpfs") {
                tmpfs = std::stoi(value) != 0;
            } else {
                usage("unknown flag " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (!haveSeed || !haveSeconds || !haveTrace || root.empty())
        usage("--seed, --seconds, --trace and --root are required");
    if (settings.seconds < 1 || settings.seconds > 60)
        usage("--seconds must be in 1..60");

    void (*run)(const RunSettings &, Report &) = nullptr;
    if (settings.workload == "service_mixed")
        run = runServiceMixed;
    else if (settings.workload == "search_cold")
        run = runSearchCold;
    else if (settings.workload == "search_warm")
        run = runSearchWarm;
    else
        usage("unknown workload '" + settings.workload + "'");

    settings.threads = static_cast<int>(std::clamp(
        std::thread::hardware_concurrency(), 1u, 4u));
    petabricks::setLogLevel(petabricks::LogLevel::Warn);
    const std::string stateRoot = root + "/.bench_state";
    std::filesystem::create_directories(stateRoot);
    if (tmpfs && mount("tmpfs", stateRoot.c_str(), "tmpfs",
                       MS_NOSUID | MS_NODEV, "size=512m,mode=0700") != 0)
        std::cerr << "perfbench: tmpfs mount failed (" << std::strerror(errno)
                  << "); state stays on the host filesystem\n";
    settings.stateDir = stateRoot + "/" + settings.workload + "-" +
                        std::to_string(::getpid());
    settings.outDir = root + "/.bench_out";
    std::filesystem::create_directories(settings.stateDir);
    std::filesystem::create_directories(settings.outDir);
    const std::string fsType = filesystemType(settings.stateDir);
    std::cout << "state_filesystem = " << fsType << "\n";
    if (fsType != "tmpfs")
        std::cout << "note = state dirs are on " << fsType
                  << ", so fsync latency of that disk is part of every "
                     "service figure\n";

    Report report;
    try {
        run(settings, report);
    } catch (const std::exception &error) {
        report.fail(std::string("workload aborted: ") + error.what());
    }
    std::filesystem::remove_all(settings.stateDir);

    if (settings.trace) {
        const std::string path = settings.outDir + "/trace-" +
                                 settings.workload + "-" +
                                 std::to_string(settings.seed) + ".tsv";
        Tracer::instance().write(path);
        std::cout << "trace_file = " << path << "\n";
    }
    {
        std::lock_guard<std::mutex> lock(report.mutex);
        for (const std::string &problem : report.problems)
            std::cerr << "perfbench: " << problem << "\n";
    }

    bool finite = true;
    std::string metrics;
    for (const auto &[name, entry] : report.metrics) {
        if (!std::isfinite(entry.first)) {
            finite = false;
            std::cerr << "perfbench: metric " << name << " is not finite\n";
            continue;
        }
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + name + "\": {\"value\": " + number(entry.first) +
                   ", \"unit\": \"" + entry.second + "\"}";
    }
    const bool correct = finite && report.checksPassed() &&
                         report.failed.load() == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<int64_t>(report.attempted, 1)
              << ", \"failed\": " << report.failed.load()
              << ", \"metrics\": {" << metrics << "}}" << std::endl;
    return 0;
}
