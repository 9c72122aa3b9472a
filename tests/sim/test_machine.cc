#include <gtest/gtest.h>

#include "sim/machine.h"
#include "support/error.h"

namespace petabricks {
namespace sim {
namespace {

TEST(Machine, FiveProfilesExist)
{
    auto machines = MachineProfile::all();
    ASSERT_EQ(machines.size(), 5u);
    EXPECT_EQ(machines[0].name, "Desktop");
    EXPECT_EQ(machines[1].name, "Server");
    EXPECT_EQ(machines[2].name, "Laptop");
    EXPECT_EQ(machines[3].name, "Ultrabook");
    EXPECT_EQ(machines[4].name, "BigLittle");
}

TEST(Machine, ByNameLookup)
{
    EXPECT_EQ(MachineProfile::byName("Server").cpu.cores, 32);
    EXPECT_EQ(MachineProfile::byName("Ultrabook").cpu.cores, 2);
    EXPECT_EQ(MachineProfile::byName("BigLittle").cpu.cores, 8);
    EXPECT_THROW(MachineProfile::byName("Phone"), FatalError);
}

TEST(Machine, ByNameFindsEveryRegisteredProfile)
{
    // The lookup table's names must match what each profile calls
    // itself, and return the same machine all() does.
    for (const auto &m : MachineProfile::all())
        EXPECT_EQ(MachineProfile::byName(m.name).fingerprint(),
                  m.fingerprint())
            << m.name;
}

TEST(Machine, ByNameUnknownListsKnownProfiles)
{
    try {
        MachineProfile::byName("Phone");
        FAIL() << "byName should have thrown";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("Phone"), std::string::npos) << what;
        for (const auto &m : MachineProfile::all())
            EXPECT_NE(what.find(m.name), std::string::npos) << what;
    }
}

TEST(Machine, UltrabookIsZeroCopyIntegratedGpu)
{
    auto m = MachineProfile::ultrabook();
    EXPECT_TRUE(m.hasOpenCL);
    EXPECT_EQ(m.ocl.type, DeviceType::Gpu);
    EXPECT_FALSE(m.oclSharesCpu);
    EXPECT_TRUE(m.transfer.isFree()); // shared memory: zero-copy
}

TEST(Machine, BigLittleHasNoOpenCL)
{
    auto m = MachineProfile::bigLittle();
    EXPECT_FALSE(m.hasOpenCL);
    EXPECT_EQ(m.cpu.cores, 8);
    EXPECT_EQ(m.workerThreads, 8);
}

TEST(Machine, CoreCountsMatchPaperFigure9)
{
    EXPECT_EQ(MachineProfile::desktop().cpu.cores, 4);
    EXPECT_EQ(MachineProfile::server().cpu.cores, 32);
    EXPECT_EQ(MachineProfile::laptop().cpu.cores, 2);
}

TEST(Machine, ServerUsesSixteenWorkers)
{
    // Section 6.1: "On Server, the number of threads is set to 16".
    EXPECT_EQ(MachineProfile::server().workerThreads, 16);
    EXPECT_EQ(MachineProfile::desktop().workerThreads, 4);
    EXPECT_EQ(MachineProfile::laptop().workerThreads, 2);
}

TEST(Machine, ServerOpenCLSharesCpuAndHasFreeTransfer)
{
    auto server = MachineProfile::server();
    EXPECT_TRUE(server.hasOpenCL);
    EXPECT_TRUE(server.oclSharesCpu);
    EXPECT_EQ(server.ocl.type, DeviceType::CpuOpenCL);
    EXPECT_TRUE(server.transfer.isFree());
    EXPECT_DOUBLE_EQ(server.transfer.seconds(1e9), 0.0);
}

TEST(Machine, DiscreteGpusPayForTransfers)
{
    for (const auto &m :
         {MachineProfile::desktop(), MachineProfile::laptop()}) {
        EXPECT_FALSE(m.oclSharesCpu) << m.name;
        EXPECT_FALSE(m.transfer.isFree()) << m.name;
        EXPECT_GT(m.transfer.seconds(1 << 20), 0.0) << m.name;
        EXPECT_TRUE(m.ocl.dedicatedLocalMem) << m.name;
    }
}

TEST(Machine, CpuOpenCLHasNoDedicatedLocalMem)
{
    // Section 2.2: on CPU OpenCL targets the shared memory maps onto the
    // same caches/buses, so prefetching is wasted work.
    EXPECT_FALSE(MachineProfile::server().ocl.dedicatedLocalMem);
}

TEST(Machine, DesktopGpuDwarfsItsCpu)
{
    auto desktop = MachineProfile::desktop();
    EXPECT_GT(desktop.ocl.peakGflops(), 10 * desktop.cpu.peakGflops());
}

TEST(Machine, LaptopGpuIsCloserToItsCpu)
{
    // Mobile GPUs have weak double-precision throughput: the Laptop's
    // GPU peak is only ~2x its CPU, versus ~25x on Desktop — which is
    // exactly why the Laptop benefits from CPU/GPU work splits.
    auto laptop = MachineProfile::laptop();
    double ratio = laptop.ocl.peakGflops() / laptop.cpu.peakGflops();
    EXPECT_GT(ratio, 1.2);
    EXPECT_LT(ratio, 10.0);
}

TEST(Machine, TransferSecondsScalesWithBytes)
{
    auto t = MachineProfile::desktop().transfer;
    double small = t.seconds(1 << 10);
    double large = t.seconds(1 << 26);
    EXPECT_GT(large, small);
    EXPECT_GT(small, 0.0); // latency floor
}

TEST(Machine, DeviceTypeNames)
{
    EXPECT_STREQ(deviceTypeName(DeviceType::Cpu), "CPU");
    EXPECT_STREQ(deviceTypeName(DeviceType::Gpu), "GPU");
    EXPECT_STREQ(deviceTypeName(DeviceType::CpuOpenCL), "CPU-OpenCL");
}

TEST(MachineFingerprint, StableForEqualContent)
{
    // Two independently built copies of the same profile must agree —
    // the fingerprint keys on-disk cache segments, so it has to be a
    // pure function of the parameters.
    EXPECT_EQ(MachineProfile::desktop().fingerprint(),
              MachineProfile::desktop().fingerprint());
    MachineProfile copy = MachineProfile::server();
    EXPECT_EQ(copy.fingerprint(), MachineProfile::server().fingerprint());
}

TEST(MachineFingerprint, DistinguishesEveryRegisteredProfile)
{
    auto machines = MachineProfile::all();
    for (size_t i = 0; i < machines.size(); ++i)
        for (size_t j = i + 1; j < machines.size(); ++j)
            EXPECT_NE(machines[i].fingerprint(),
                      machines[j].fingerprint())
                << machines[i].name << " vs " << machines[j].name;
}

TEST(MachineFingerprint, SensitiveToEveryParameterKind)
{
    const MachineProfile base = MachineProfile::desktop();

    MachineProfile m = base; // int field
    m.workerThreads = base.workerThreads + 1;
    EXPECT_NE(m.fingerprint(), base.fingerprint());

    m = base; // double field
    m.kernelCompileSeconds = base.kernelCompileSeconds * 2;
    EXPECT_NE(m.fingerprint(), base.fingerprint());

    m = base; // string field
    m.os = "TempleOS";
    EXPECT_NE(m.fingerprint(), base.fingerprint());

    m = base; // nested device field
    m.cpu.cores = base.cpu.cores + 1;
    EXPECT_NE(m.fingerprint(), base.fingerprint());

    m = base; // display name alone is content too
    m.name = "Desktop2";
    EXPECT_NE(m.fingerprint(), base.fingerprint());
}

TEST(MachineFingerprint, SwappedEqualValuesDoNotAlias)
{
    // Each field is hashed tagged with its name before the commutative
    // combine, so moving a value between two fields must change the
    // fingerprint — equal values in different slots are different
    // machines.
    MachineProfile a = MachineProfile::desktop();
    a.workerThreads = 2;
    a.blasThreads = 8;
    MachineProfile b = MachineProfile::desktop();
    b.workerThreads = 8;
    b.blasThreads = 2;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(MachineFingerprint, IgnoresOpenCLParametersWhenDisabled)
{
    // A CPU-only machine is the same machine whatever garbage its
    // unused OpenCL fields hold.
    MachineProfile a = MachineProfile::server();
    a.hasOpenCL = false;
    MachineProfile b = a;
    b.ocl.cores = 9999;
    b.transfer.latencyUs = 123.0;
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

} // namespace
} // namespace sim
} // namespace petabricks
