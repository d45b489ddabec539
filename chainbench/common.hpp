// chainbench shared plumbing: options, timers, sample statistics, the
// work-count gate, the result line, and run metadata.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chain/issuance.hpp"
#include "crypto/verifier.hpp"
#include "net/aia_repository.hpp"

namespace chainbench {

using namespace chainchaos;

/// Fault injected on purpose to prove a correctness gate can fail.
enum class Inject {
  kNone,
  kFlipRecord,    ///< sweep-packed: one record's bytes flipped in the file
  kTamperBody,    ///< chaind: one expected body altered
  kPerturbCount,  ///< any: one per-pass work count altered
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;      ///< per-run temporary directory (must exist)
  std::string chaind_path;  ///< the daemon binary (chaind workload)
  unsigned threads = 1;     ///< sweep workers / client connections
  Inject inject = Inject::kNone;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Accumulates one layer's time and call count.
struct LayerTimer {
  double total_s = 0.0;
  std::uint64_t calls = 0;
  double mean_us() const {
    return calls > 0 ? total_s * 1e6 / static_cast<double>(calls) : 0.0;
  }
};

/// Times `fn` into `timer` and returns its result.
template <typename Fn>
auto timed(LayerTimer& timer, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    timer.total_s += seconds_since(start);
    ++timer.calls;
  } else {
    auto result = fn();
    timer.total_s += seconds_since(start);
    ++timer.calls;
    return result;
  }
}

/// Runs `fn`, timed into `timer` only when `on`: the traced and the
/// untraced walk share their code and differ only in the timers.
template <typename Fn>
auto maybe_timed(bool on, LayerTimer& timer, Fn&& fn) {
  if (on) return timed(timer, fn);
  return fn();
}

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process (or `pid`), in MiB, from
/// /proc/<pid>/status VmHWM.
double peak_rss_mib(int pid = 0);

/// Exact work counts of one cold pass. Every field must repeat across
/// passes of the same inputs; compared field by field.
struct WorkCounts {
  std::map<std::string, std::uint64_t> counts;
  std::string describe() const;
  bool operator==(const WorkCounts&) const = default;
};

/// Process-wide counters a pass can be measured by (deltas of two
/// snapshots are the pass's own work).
struct CounterSnapshot {
  chain::IssuanceCacheStats issuance;
  crypto::VerifierStats verifier;
  crypto::VerifyMemoStats memo;
  std::uint64_t aia_attempts = 0;

  static CounterSnapshot take(const crypto::VerifyMemo* memo,
                              const net::AiaRepository* aia);
};

/// Empties every memo a pass could ride: the issuance memo, the process
/// verification memo and `memo` (the pass's own, when given).
void reset_memos(crypto::VerifyMemo* memo);

/// Checks that every pass's counts equal the first pass's; prints the
/// counts and any divergence. Returns the number of divergent passes.
std::size_t check_counts(const char* what,
                         const std::vector<WorkCounts>& passes);

/// FNV-1a 64 over a byte string (response bodies, summaries).
std::uint64_t fnv1a(const void* data, std::size_t size);
inline std::uint64_t fnv1a(const std::string& s) {
  return fnv1a(s.data(), s.size());
}

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// The run's result: the correctness verdict, attempt/failure counts,
/// and the metrics in declaration order.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, Metric>> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.emplace_back(name, Metric{value, unit});
  }
  /// Records a failed gate: the run is incorrect, `count` operations
  /// count as failed.
  void fail(std::uint64_t count = 1) {
    correct = false;
    failed += count;
  }
};

/// Adds setup_s, the median of the run's set-ups, after printing each.
void add_setup(RunResult& result, const std::vector<double>& setups);

/// Prints the human-readable metric table, then the one-line JSON
/// result (always the last line of stdout). `declared` lists the metric
/// names the result line carries, in order; the rest are table-only.
/// Returns the verdict the line carries: false when a gate failed or a
/// declared metric was not measured.
bool emit(const RunResult& result, const std::vector<std::string>& declared);

/// The end-to-end metric names every workload reports.
const std::vector<std::string>& end_to_end_names();
/// The per-layer metric names every traced run reports.
const std::vector<std::string>& per_layer_names();

/// Prints the run's self-description (nproc, compiler, build type,
/// CHAINCHAOS_OBS, seed, source digest) and fails when the runtime
/// tracer is on.
bool print_meta(const Options& options);

}  // namespace chainbench
