// The four benchmark workloads. Each builds its inputs from the seed,
// drives the library through its public API, checks every answer, and
// returns its metrics: the end-to-end set when untraced, the per-layer
// set when traced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

Report RunUniformSmall(const RunOptions& run);
Report RunCityLarge(const RunOptions& run);
Report RunServeOpenLoop(const RunOptions& run);
Report RunBikeChurn(const RunOptions& run);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
