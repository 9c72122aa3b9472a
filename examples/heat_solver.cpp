/**
 * Heat/Laplace solver: red-black SOR via the Poisson2D transform, with
 * the split phase on the CPU and the iterations on the emulated GPU —
 * the paper's Desktop-style placement — executed through the
 * RuntimeEngine.
 *
 * Build & run:  ./build/heat_solver
 */

#include <iostream>

#include "benchmarks/backend_util.h"
#include "benchmarks/poisson.h"
#include "engine/execution_engine.h"

using namespace petabricks;
using namespace petabricks::apps;

int
main()
{
    const int64_t n = 64;
    PoissonBenchmark bench;
    Rng rng(3);

    tuner::Config config = bench.seedConfig();
    config.selector("Poisson.split.backend")
        .setAlgorithm(0, backendAlg(compiler::Backend::Cpu));
    config.selector("Poisson.iterate.backend")
        .setAlgorithm(0, backendAlg(compiler::Backend::OpenClLocal));

    engine::RuntimeEngineOptions options;
    options.workers = 4;
    engine::RuntimeEngine engine(options);

    lang::Binding binding = bench.makeBinding(n, rng);
    MatrixD initial = binding.matrix("In").clone();
    engine::RunResult run =
        engine.runOnBinding(bench, config, n, binding);

    // Residual decrease as a sanity check that SOR is converging.
    auto residual = [](const MatrixD &g) {
        double r = 0.0;
        for (int64_t y = 1; y < g.height() - 1; ++y)
            for (int64_t x = 1; x < g.width() - 1; ++x)
                r += std::abs(4 * g.at(x, y) - g.at(x - 1, y) -
                              g.at(x + 1, y) - g.at(x, y - 1) -
                              g.at(x, y + 1));
        return r;
    };
    std::cout << PoissonBenchmark::kIterations
              << " red-black SOR iterations on a " << n << "x" << n
              << " grid\n"
              << "  split on CPU, iterate on GPU (local memory)\n"
              << "  max error vs direct SOR: " << run.maxError << "\n"
              << "  residual: " << residual(initial) << " -> "
              << residual(bench.unpackResult(binding)) << "\n";
    return 0;
}
