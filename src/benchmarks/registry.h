/**
 * @file
 * Registry of the eight benchmarks, in Figure 8 order (the paper's seven
 * plus Mandelbrot). A static name -> factory table: a lookup builds
 * only the benchmark it returns.
 */

#ifndef PETABRICKS_BENCHMARKS_REGISTRY_H
#define PETABRICKS_BENCHMARKS_REGISTRY_H

#include <vector>

#include "benchmarks/benchmark.h"

namespace petabricks {
namespace apps {

/** A fresh instance of every benchmark, in the paper's table order. */
std::vector<BenchmarkPtr> allBenchmarks();

/**
 * Fresh instance of the benchmark whose display name is @p name
 * (case-insensitive; "Black-Scholes", "Sort", ...); the other
 * benchmarks are not constructed. Every call returns a new instance,
 * because real mode arms per-instance ChoiceFiles. Fatal error with
 * the list of known names when no benchmark matches — this is the
 * service's `create` lookup, so the message is user-facing.
 */
BenchmarkPtr findBenchmark(const std::string &name);

} // namespace apps
} // namespace petabricks

#endif // PETABRICKS_BENCHMARKS_REGISTRY_H
