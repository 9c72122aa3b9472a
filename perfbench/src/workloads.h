/**
 * @file
 * The three workloads. Each builds its operation list from the seed,
 * prepares its state outside the timed window, runs the list closed
 * loop, checks the outputs, and sets the end-to-end metrics (untraced)
 * or the per-layer metrics (traced) on the report.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "common.h"

namespace perfbench {

/** tunerd on loopback: two tuning clients, one dispatcher, one writer. */
void runServiceMixed(const RunSettings &settings, Report &report);

/** In-process searches over a shared L2 that starts empty. */
void runSearchCold(const RunSettings &settings, Report &report);

/** In-process searches replaying specs over an L2 loaded from disk. */
void runSearchWarm(const RunSettings &settings, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
