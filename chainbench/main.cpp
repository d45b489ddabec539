// chainbench: one command for the §4 sweep, the §5 differential sweep
// and chaind (see README.md).
//
//   chainbench --workload sweep-ram|sweep-packed|chaind --seed N
//              --seconds S --trace 0|1 --tmp DIR [--chaind PATH]
//              [--inject flip-record|tamper-body|perturb-count]
//
// Prints what it measured as a table, then one JSON result line (always
// the last line of stdout). Exits 0 only when every correctness gate
// held.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.hpp"

using namespace chainbench;

namespace {

/// Sweep workers and client connections: the paper's 4-core setting,
/// fewer on a smaller machine.
constexpr unsigned kMaxThreads = 4;

bool parse_inject(const std::string& name, Inject* out) {
  if (name == "flip-record") *out = Inject::kFlipRecord;
  else if (name == "tamper-body") *out = Inject::kTamperBody;
  else if (name == "perturb-count") *out = Inject::kPerturbCount;
  else return false;
  return true;
}

bool parse_args(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "chainbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--tmp") {
      options->tmp_dir = value;
    } else if (flag == "--chaind") {
      options->chaind_path = value;
    } else if (flag == "--inject") {
      if (!parse_inject(value, &options->inject)) {
        std::fprintf(stderr, "chainbench: unknown injection %s\n",
                     value.c_str());
        return false;
      }
    } else {
      std::fprintf(stderr, "chainbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (options->tmp_dir.empty() || options->seconds <= 0.0) {
    std::fprintf(stderr, "chainbench: --tmp and --seconds > 0 are required\n");
    return false;
  }
  options->threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, kMaxThreads);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_args(argc, argv, &options)) return 2;

  RunResult (*run)(const Options&) = nullptr;
  if (options.workload == "sweep-ram") run = run_sweep_ram;
  else if (options.workload == "sweep-packed") run = run_sweep_packed;
  else if (options.workload == "chaind") run = run_chaind;
  if (run == nullptr) {
    std::fprintf(stderr, "chainbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (!print_meta(options)) return 2;

  const RunResult result = run(options);
  return emit(result, options.trace ? per_layer_names() : end_to_end_names())
             ? 0
             : 1;
}
