/**
 * Quickstart: evaluate one benchmark configuration through the unified
 * ExecutionEngine API — the same call priced on a machine profile
 * (ModelEngine) and really executed on the heterogeneous runtime with
 * the emulated OpenCL device (RuntimeEngine) — then autotune against
 * either engine with a one-line swap.
 *
 * Build & run:  ./build/quickstart
 */

#include <iostream>

#include "benchmarks/convolution.h"
#include "engine/execution_engine.h"
#include "tuner/session.h"

using namespace petabricks;
using namespace petabricks::apps;

int
main()
{
    // SeparableConvolution, the paper's running example: choice of a
    // single-pass 2-D convolution or two 1-D passes, each mappable to
    // the CPU backend or the (emulated) OpenCL backend.
    ConvolutionBenchmark bench;
    tuner::Config config =
        ConvolutionBenchmark::fixedMapping(/*separable=*/true,
                                           /*localMem=*/true);

    // --- Real mode: execute on the work-stealing runtime + GPU ------
    engine::RuntimeEngine real;
    engine::RunResult run = real.run(bench, config, 64);
    std::cout << "separable+local-memory on the emulated GPU: "
              << run.kernelCount << " kernels, max error "
              << run.maxError << "\n";

    // --- Model mode: what would each mapping cost on each machine? --
    // A placement can be infeasible on a profile (the fixed mapping
    // uses the GPU, and BigLittle has no OpenCL device): run() throws
    // FatalError for those, so price them as "n/a" like the tuner does.
    for (const auto &machine : sim::MachineProfile::all()) {
        engine::ModelEngine model(machine);
        std::cout << machine.name << ":";
        for (bool separable : {false, true}) {
            std::cout << (separable ? "  separable=" : "  2d=");
            try {
                engine::RunResult r = model.run(
                    bench,
                    ConvolutionBenchmark::fixedMapping(separable, false),
                    3520);
                std::cout << r.seconds * 1e3 << "ms";
            } catch (const FatalError &) {
                std::cout << "n/a";
            }
        }
        std::cout << "\n";
    }

    // --- Autotune for the Desktop profile ----------------------------
    // TuningSession is the session-oriented search API: every tuner
    // generation is evaluated as ONE batch (ModelEngine prices it in
    // parallel on a thread pool), duplicate candidates come from the
    // evaluation cache, and the whole search can be checkpointed with
    // save()/load() (see examples/resumable_tuning.cpp).
    engine::ModelEngine desktop(sim::MachineProfile::desktop());
    engine::EngineEvaluator evaluator(bench, desktop);
    tuner::TunerOptions options;
    options.minInputSize = bench.minTuningSize();
    options.maxInputSize = bench.testingInputSize();
    desktop.configureTuner(options);
    tuner::TuningSession sessionTuner(evaluator, bench.seedConfig(),
                                      options);
    sessionTuner.onProgress([](const tuner::SessionProgress &p) {
        if (p.completedSteps == p.totalSteps)
            std::cout << "  search done: " << p.evaluations
                      << " evaluations, " << p.cacheHits
                      << " cache hits\n";
    });
    tuner::TuningResult tuned = sessionTuner.run();
    std::cout << "Desktop autotuned config: "
              << bench.describeConfig(tuned.best, 3520) << "\n"
              << "modeled time " << tuned.bestSeconds * 1e3
              << " ms after " << tuned.evaluations << " evaluations\n";

    // --- The same search against real execution ----------------------
    // tuneWithEngine() is the engine swap: candidates are now timed by
    // actually running them (kept tiny here — real runs are slower).
    tuner::TunerOptions small;
    small.populationSize = 3;
    small.generationsPerSize = 2;
    small.minInputSize = 48;
    small.maxInputSize = 96;
    tuner::TuningResult realTuned = tuneWithEngine(bench, real, small);
    std::cout << "real-execution tuned config: "
              << bench.describeConfig(realTuned.best, 96) << "\n"
              << "measured " << realTuned.bestSeconds * 1e3
              << " ms per run\n";
    return 0;
}
