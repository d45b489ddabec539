// The three chainbench workloads (README.md says why each exists).
// Each one sets up its inputs from the seed, runs untraced (end-to-end
// metrics) or traced (per-layer metrics) according to options.trace,
// checks its outputs, and returns the run's result.
#pragma once

#include "common.hpp"

namespace chainbench {

RunResult run_sweep_ram(const Options& options);
RunResult run_sweep_packed(const Options& options);
RunResult run_chaind(const Options& options);

}  // namespace chainbench
