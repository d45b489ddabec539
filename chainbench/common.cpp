#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/trace.hpp"

namespace chainbench {

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double peak_rss_mib(int pid) {
  const std::string path = pid == 0 ? std::string("/proc/self/status")
                                    : "/proc/" + std::to_string(pid) +
                                          "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string WorkCounts::describe() const {
  std::ostringstream out;
  bool first = true;
  for (const auto& [name, value] : counts) {
    out << (first ? "" : " ") << name << "=" << value;
    first = false;
  }
  return out.str();
}

CounterSnapshot CounterSnapshot::take(const crypto::VerifyMemo* memo,
                                      const net::AiaRepository* aia) {
  CounterSnapshot s;
  s.issuance = chain::issuance_cache_stats();
  s.verifier = crypto::Verifier::computation_stats();
  s.memo = memo != nullptr ? memo->stats()
                           : crypto::process_verify_memo().stats();
  s.aia_attempts = aia != nullptr ? aia->stats().attempts : 0;
  return s;
}

void reset_memos(crypto::VerifyMemo* memo) {
  chain::reset_issuance_cache();
  crypto::process_verify_memo().reset();
  if (memo != nullptr) memo->reset();
}

std::size_t check_counts(const char* what,
                         const std::vector<WorkCounts>& passes) {
  if (passes.empty()) return 0;
  std::printf("counts[%s] %s (%zu passes)\n", what,
              passes.front().describe().c_str(), passes.size());
  std::size_t divergent = 0;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    if (passes[i] == passes.front()) continue;
    ++divergent;
    std::printf("COUNT MISMATCH[%s] pass %zu: %s\n", what, i,
                passes[i].describe().c_str());
  }
  return divergent;
}

std::uint64_t fnv1a(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s", "chains_per_s", "p50_ms", "p99_ms", "peak_rss_mib"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "x509.parse_us",
      "x509.certs_per_record",
      "corpusio.bytes_per_record",
      "corpusio.decode_errors",
      "chain.leaf_placement_us",
      "chain.topology_us",
      "chain.order_us",
      "chain.completeness_us",
      "chain.issued_by_lookups_per_record",
      "chain.issued_by_hit_ratio",
      "chain.signature_checks_per_record",
      "crypto.verifications_per_record",
      "crypto.memo_hit_ratio",
      "crypto.verify_us",
      "net.aia_fetches_per_record",
      "pathbuild.build_us",
      "pathbuild.candidates_per_build",
      "pathbuild.steps_per_build",
      "pathbuild.backtracks_per_build",
      "lint.us",
      "net.frame_us",
      "service.decode_body_us",
      "service.handler_hit_us",
      "service.handler_miss_us",
      "service.cache_hit_ratio",
      "service.rejected_busy",
      "service.evictions",
      "engine.busy_frac",
      "trace.overhead_frac",
  };
  return names;
}

namespace {

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

}  // namespace

void add_setup(RunResult& result, const std::vector<double>& setups) {
  std::printf("set-ups:");
  for (const double s : setups) std::printf(" %.3f", s);
  std::printf(" s\n");
  result.add("setup_s", median(setups), "s");
}

bool emit(const RunResult& result, const std::vector<std::string>& declared) {
  RunResult out = result;
  std::printf("\n%-40s %16s  %s\n", "metric", "value", "unit");
  for (const auto& [name, metric] : out.metrics) {
    std::printf("%-40s %16s  %s\n", name.c_str(),
                number(metric.value).c_str(), metric.unit.c_str());
  }
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) /
                              static_cast<double>(out.attempted)
                        : 1.0;
  std::printf("%-40s %16s  %s\n", "failed_frac", number(failed_frac).c_str(),
              "fraction");

  std::string metrics;
  for (const std::string& name : declared) {
    const auto it = std::find_if(
        out.metrics.begin(), out.metrics.end(),
        [&](const auto& entry) { return entry.first == name; });
    if (it == out.metrics.end()) {
      std::fprintf(stderr, "chainbench: metric %s was not measured\n",
                   name.c_str());
      out.correct = false;
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(it->second.value) +
               ", \"unit\": \"" + it->second.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  out.attempted, 1)),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct && out.failed == 0;
}

bool print_meta(const Options& options) {
  const char* digest = std::getenv("CHAINBENCH_SOURCE_DIGEST");
  const char* commit = std::getenv("CHAINBENCH_COMMIT");
  std::printf("chainbench: workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%u nproc=%u compiler=\"%s\" build_type=%s "
              "CHAINCHAOS_OBS=%s commit=%s source_digest=%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.threads,
              std::thread::hardware_concurrency(), CHAINBENCH_COMPILER,
              CHAINBENCH_BUILD_TYPE, CHAINBENCH_OBS,
              commit != nullptr ? commit : "unknown",
              digest != nullptr ? digest : "unknown");
  // The chainprof span tracer is never part of a chainbench run: the
  // per-layer numbers come from chainbench's own timers.
  if (obs::Tracer::instance().enabled()) {
    std::fprintf(stderr, "chainbench: the runtime tracer is on\n");
    return false;
  }
  return true;
}

}  // namespace chainbench
