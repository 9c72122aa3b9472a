/**
 * Figure 2: execution time of the four OpenCL mappings of
 * SeparableConvolution (2D / separable, each with and without local
 * memory) for kernel widths 3..17 on the three test systems, with a
 * 3520x3520 input — plus the autotuner's choice, which should match
 * the best mapping at every point.
 */

#include <iostream>

#include "benchmarks/convolution.h"
#include "common.h"

using namespace petabricks;
using namespace petabricks::apps;

int
main()
{
    std::cout << "=== Figure 2: SeparableConvolution mappings vs kernel "
                 "width (3520x3520, modeled ms) ===\n";
    const int64_t n = 3520;
    // One type per width: a benchmark's type fixes its model.
    const std::vector<std::shared_ptr<ConvolutionBenchmark>> widths = {
        std::make_shared<ConvolutionAtWidth<3>>(),
        std::make_shared<ConvolutionAtWidth<5>>(),
        std::make_shared<ConvolutionAtWidth<7>>(),
        std::make_shared<ConvolutionAtWidth<9>>(),
        std::make_shared<ConvolutionAtWidth<11>>(),
        std::make_shared<ConvolutionAtWidth<13>>(),
        std::make_shared<ConvolutionAtWidth<15>>(),
        std::make_shared<ConvolutionAtWidth<17>>(),
    };

    for (const auto &machine : sim::MachineProfile::all()) {
        std::cout << "\n-- " << machine.name << " --\n";
        TextTable table({"width", "2D No-local", "2D Localmem",
                         "Separable No-local", "Separable Localmem",
                         "Autotuner", "Autotuner matches best"});
        for (const auto &width : widths) {
            const ConvolutionBenchmark &bench = *width;
            double best = std::numeric_limits<double>::infinity();
            std::vector<std::string> row{std::to_string(bench.kwidth())};
            for (bool separable : {false, true}) {
                for (bool local : {false, true}) {
                    // All four fixed mappings place work on the GPU,
                    // which is infeasible on an OpenCL-less profile
                    // (BigLittle): evaluate() throws FatalError there.
                    try {
                        double t = bench.evaluate(
                            ConvolutionBenchmark::fixedMapping(separable,
                                                               local),
                            n, machine);
                        best = std::min(best, t);
                        row.push_back(TextTable::num(t * 1e3, 2));
                    } catch (const FatalError &) {
                        row.push_back("n/a");
                    }
                }
            }
            // Reorder: the loop above fills (2d,nolocal), (2d,local),
            // (sep,nolocal), (sep,local) which matches the header.
            tuner::TuningResult tuned = bench::tuneFor(bench, machine);
            double autotuned = bench.evaluate(tuned.best, n, machine);
            row.push_back(TextTable::num(autotuned * 1e3, 2));
            row.push_back(autotuned <= best * 1.001 ? "yes" : "NO");
            table.addRow(row);
        }
        std::cout << table.toString();
    }
    std::cout << "\nAs in the paper: the best mapping varies with both "
                 "machine and kernel width; the autotuner tracks it.\n";
    return 0;
}
