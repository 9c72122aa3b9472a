/**
 * Figure 7(c): Separable Convolution at width 7 — three autotuned
 * configs plus the hand-coded OpenCL baseline (NVIDIA-SDK-style
 * multi-output work-items; Desktop only).
 */

#include <iostream>

#include "benchmarks/convolution.h"
#include "common.h"
#include "sim/cost_model.h"

using namespace petabricks;
using namespace petabricks::apps;

namespace {

/**
 * The NVIDIA SDK separable-convolution sample: each work-item computes
 * multiple outputs. On the paper's Tesla C2070 this was 2.3x *slower*
 * than the autotuned one-output-per-item kernels (reduced occupancy
 * from higher register pressure; modeled as an efficiency factor).
 */
double
handCodedConvSeconds(int64_t n, int64_t kw,
                     const sim::MachineProfile &machine)
{
    double points = static_cast<double>(n - kw + 1) * (n - kw + 1);
    sim::CostReport pass;
    pass.flops = 2.0 * kw * points * 2.6; // occupancy-limited
    pass.globalBytesRead = 2.5 * 8.0 * points;
    pass.globalBytesWritten = 8.0 * points;
    pass.localBytes = 2.0 * kw * 8.0 * points;
    pass.invocations = 2;
    double kernel =
        sim::CostModel::kernelSeconds(machine.ocl, pass, 128);
    return machine.transfer.seconds(2.0 * 8.0 * n * n) + kernel;
}

} // namespace

int
main()
{
    std::cout << "=== Figure 7(c): Separable Convolution "
                 "(3520^2, width 7) ===\n";
    ConvolutionBenchmark bench;
    auto configs = bench::tuneAllMachines(bench);
    double handCoded = handCodedConvSeconds(
        3520, 7, sim::MachineProfile::desktop());
    bench::printCrossTable(bench, configs,
                           {{"Hand-coded OpenCL", handCoded}});
    bench::printConfigSummaries(bench, configs);
    std::cout << "\nPaper: the autotuned Desktop config beat the "
                 "NVIDIA SDK sample by 2.3x.\n";
    return 0;
}
