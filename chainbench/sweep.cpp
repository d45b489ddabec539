// sweep-ram and sweep-packed: the §4 compliance sweep (and, in RAM, the
// §5 differential sweep) over a generated corpus.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "clients/profiles.hpp"
#include "corpusio/reader.hpp"
#include "corpusio/source.hpp"
#include "corpusio/writer.hpp"
#include "difftest/harness.hpp"
#include "engine/engine.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace chainbench {

namespace {

constexpr std::size_t kRamDomains = 20000;
constexpr std::size_t kPackedDomains = 5000;
constexpr std::size_t kPackedReplicas = 10;
constexpr int kSetupRepeats = 9;
constexpr int kMinPasses = 3;
constexpr int kMinTracedRounds = 2;
constexpr std::size_t kProbeSample = 1000;

std::unique_ptr<dataset::Corpus> make_corpus(std::uint64_t seed,
                                             std::size_t domains) {
  dataset::CorpusConfig config;
  config.seed = seed;
  config.domain_count = domains;
  return std::make_unique<dataset::Corpus>(std::move(config));
}

const char* short_name(clients::ClientKind kind) {
  switch (kind) {
    case clients::ClientKind::kOpenSsl: return "openssl";
    case clients::ClientKind::kGnuTls: return "gnutls";
    case clients::ClientKind::kMbedTls: return "mbedtls";
    case clients::ClientKind::kCryptoApi: return "cryptoapi";
    case clients::ClientKind::kChrome: return "chrome";
    case clients::ClientKind::kEdge: return "edge";
    case clients::ClientKind::kSafari: return "safari";
    case clients::ClientKind::kFirefox: return "firefox";
  }
  return "?";
}

// Per-record §4 latency. The engine calls `filter` right before it
// analyzes a record and `per_record` right after, on the same worker.
// When a worker's previous record was the one just before, the record's
// time runs from that record's end instead, so it also covers fetching
// the record from its source (decoding it, for the packed file).
thread_local Clock::time_point t_record_start;
thread_local Clock::time_point t_last_end;
thread_local std::size_t t_last_index = 0;
thread_local std::uint64_t t_pass = 0;
std::atomic<std::uint64_t> g_pass{0};

/// A §4 sweep request over `source`, recording each record's time
/// (microseconds) at its index in `latency_us` when given.
engine::AnalysisRequest sweep_request(const engine::RecordSource& source,
                                      const chain::ComplianceAnalyzer& analyzer,
                                      unsigned threads,
                                      crypto::VerifyMemo* memo,
                                      std::vector<double>* latency_us) {
  engine::AnalysisRequest request;
  request.source = &source;
  request.analyzer = &analyzer;
  request.shards.threads = threads;
  request.verify_memo = memo;
  if (latency_us != nullptr) {
    latency_us->assign(source.size(), 0.0);
    const std::uint64_t pass = ++g_pass;
    request.filter = [](const dataset::DomainRecord&) {
      t_record_start = Clock::now();
      return true;
    };
    request.per_record = [latency_us, pass](const dataset::DomainRecord&,
                                            std::size_t index,
                                            const chain::ComplianceReport*,
                                            engine::ShardTally&) {
      const Clock::time_point now = Clock::now();
      const bool follows = t_pass == pass && t_last_index + 1 == index;
      const Clock::time_point start = follows ? t_last_end : t_record_start;
      (*latency_us)[index] =
          std::chrono::duration<double, std::micro>(now - start).count();
      t_last_end = now;
      t_last_index = index;
      t_pass = pass;
    };
  }
  return request;
}

std::string summary_of(const engine::AnalysisResult& result) {
  return engine::summary_table(result.tally.compliance).render();
}

std::string diff_digest(const difftest::DiffSummary& s) {
  std::ostringstream out;
  out << s.total_domains << ' ' << s.noncompliant_domains << ' '
      << s.noncompliant_all_browsers_ok << ' '
      << s.noncompliant_all_libraries_ok << ' ' << s.browser_discrepancies
      << ' ' << s.library_discrepancies << ' '
      << s.noncompliant_any_library_failure << ' '
      << s.noncompliant_any_browser_failure << " |";
  for (const auto& [finding, count] : s.findings) {
    out << ' ' << difftest::to_string(finding) << '=' << count;
  }
  out << " |";
  for (const std::size_t failures : s.failures_per_client) {
    out << ' ' << failures;
  }
  return out.str();
}

void add_delta(WorkCounts& counts, const std::string& prefix,
               const CounterSnapshot& before, const CounterSnapshot& after) {
  counts.counts[prefix + ".verifications"] =
      after.verifier.verifications - before.verifier.verifications;
  counts.counts[prefix + ".signature_checks"] =
      after.issuance.signature_checks - before.issuance.signature_checks;
  counts.counts[prefix + ".issued_by_lookups"] =
      after.issuance.lookups - before.issuance.lookups;
  counts.counts[prefix + ".aia_fetches"] =
      after.aia_attempts - before.aia_attempts;
}

/// Applies the perturbed-count injection to the last pass's counts.
void maybe_perturb(const Options& options, std::vector<WorkCounts>& passes) {
  if (options.inject != Inject::kPerturbCount || passes.empty()) return;
  auto& counts = passes.back().counts;
  if (!counts.empty()) counts.begin()->second += 1;
}

/// Adds the median quantiles of per-pass latency samples.
void add_latency(RunResult& result, const std::vector<double>& p50s,
                 const std::vector<double>& p99s, std::size_t samples) {
  result.add("p50_ms", median(p50s), "ms");
  result.add("p99_ms", median(p99s), "ms");
  result.add("latency_samples_per_pass", static_cast<double>(samples),
             "count");
}

void pass_quantiles(const std::vector<double>& latency_us,
                    std::vector<double>& p50s, std::vector<double>& p99s) {
  p50s.push_back(quantile(latency_us, 0.50) / 1000.0);
  p99s.push_back(quantile(latency_us, 0.99) / 1000.0);
}

/// Busy fraction of one parallel sweep: summed per-record analysis time
/// over (threads x wall time).
double busy_fraction(const engine::RecordSource& source,
                     const chain::ComplianceAnalyzer& analyzer,
                     unsigned threads) {
  crypto::VerifyMemo memo;
  reset_memos(&memo);
  std::vector<double> latency_us;
  const engine::AnalysisRequest request =
      sweep_request(source, analyzer, threads, &memo, &latency_us);
  const engine::AnalysisResult result = engine::run(request);
  double busy_us = 0.0;
  for (const double us : latency_us) busy_us += us;
  const double capacity_us =
      static_cast<double>(result.threads_used) * result.elapsed_seconds * 1e6;
  return capacity_us > 0.0 ? busy_us / capacity_us : 0.0;
}

/// Time shares of the e2e-path layers within the traced walk.
void add_shares(std::map<std::string, double>& values, const LayerStats& s) {
  if (s.path_seconds <= 0.0) return;
  const auto share = [&](const char* name, const LayerTimer& timer) {
    values[std::string("share.") + name] = timer.total_s / s.path_seconds;
  };
  if (s.decode.calls > 0) share("corpusio.decode", s.decode);
  share("chain.leaf_placement", s.leaf);
  share("chain.topology", s.topology);
  share("chain.order", s.order);
  share("chain.completeness", s.completeness);
  const LayerTimer build = s.build();
  if (build.calls > 0 && s.decode.calls == 0) share("pathbuild.build", build);
}

/// Records the per-round work counts of a traced walk.
WorkCounts walk_counts(const LayerStats& s) {
  WorkCounts counts;
  counts.counts["issued_by_lookups"] = s.issued_lookups;
  counts.counts["signature_checks"] = s.signature_checks;
  counts.counts["verifications"] = s.verifications;
  counts.counts["aia_fetches"] = s.aia_fetches;
  counts.counts["build_steps"] = s.steps;
  counts.counts["build_candidates"] = s.candidates;
  counts.counts["build_backtracks"] = s.backtracks;
  return counts;
}

void finish_counts(const Options& options, const char* what,
                   std::vector<WorkCounts>& passes, RunResult& result) {
  maybe_perturb(options, passes);
  const std::size_t divergent = check_counts(what, passes);
  if (divergent > 0) result.fail(divergent);
}

void add_service_placeholders(std::map<std::string, double>& values) {
  // chaind's own counters: no daemon runs on a sweep workload.
  values["service.cache_hit_ratio"] = 0.0;
  values["service.rejected_busy"] = 0.0;
  values["service.evictions"] = 0.0;
}

}  // namespace

// ---------------------------------------------------------------------
// sweep-ram
// ---------------------------------------------------------------------

RunResult run_sweep_ram(const Options& options) {
  RunResult result;
  std::vector<double> setups;
  std::unique_ptr<difftest::DifferentialHarness> harness;
  std::unique_ptr<dataset::Corpus> corpus;
  const int setup_repeats = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setup_repeats; ++i) {
    harness.reset();
    corpus.reset();
    const Clock::time_point start = Clock::now();
    corpus = make_corpus(options.seed, kRamDomains);
    harness = std::make_unique<difftest::DifferentialHarness>(*corpus);
    harness->seed_intermediate_caches();
    setups.push_back(seconds_since(start));
  }
  chain::CompletenessOptions completeness;
  completeness.store = &corpus->stores().union_store;
  completeness.aia = &corpus->aia();
  const chain::ComplianceAnalyzer analyzer(completeness);
  const engine::VectorRecordSource source(&corpus->records());
  const std::size_t n = corpus->size();
  net::AiaRepository* aia = &corpus->aia();
  std::printf("sweep-ram: %zu records, %zu profiles\n", n,
              harness->profiles().size());

  // One single-threaded cold pass of both sweeps: exact work counts and
  // the reference summaries.
  std::string ref_summary, ref_diff;
  std::vector<difftest::DomainDiff> ref_diffs;
  const auto count_pass = [&] {
    WorkCounts counts;
    crypto::VerifyMemo memo;
    reset_memos(&memo);
    CounterSnapshot before = CounterSnapshot::take(&memo, aia);
    const engine::AnalysisResult swept =
        engine::run(sweep_request(source, analyzer, 1, &memo, nullptr));
    add_delta(counts, "sweep", before, CounterSnapshot::take(&memo, aia));
    reset_memos(nullptr);
    before = CounterSnapshot::take(nullptr, aia);
    std::vector<difftest::DomainDiff> diffs = harness->run({1, 0});
    add_delta(counts, "difftest", before, CounterSnapshot::take(nullptr, aia));
    const std::string summary = summary_of(swept);
    const std::string digest = diff_digest(harness->summarize(diffs));
    if (ref_summary.empty()) {
      ref_summary = summary;
      ref_diff = digest;
      ref_diffs = std::move(diffs);
    } else if (summary != ref_summary || digest != ref_diff) {
      std::printf("DIGEST MISMATCH: single-threaded pass diverged\n");
      result.fail(2 * n);
    }
    return counts;
  };

  std::vector<WorkCounts> passes;
  passes.push_back(count_pass());

  if (!options.trace) {
    std::vector<double> combined, sweep_rps, diff_rps, p50s, p99s;
    const Clock::time_point begin = Clock::now();
    while (seconds_since(begin) < options.seconds ||
           static_cast<int>(combined.size()) < kMinPasses) {
      crypto::VerifyMemo memo;
      reset_memos(&memo);
      std::vector<double> latency_us;
      Clock::time_point start = Clock::now();
      const engine::AnalysisResult swept = engine::run(
          sweep_request(source, analyzer, options.threads, &memo, &latency_us));
      const double sweep_s = seconds_since(start);
      reset_memos(nullptr);
      start = Clock::now();
      const std::vector<difftest::DomainDiff> diffs =
          harness->run({options.threads, 0});
      const double diff_s = seconds_since(start);

      result.attempted += 2 * n;
      if (summary_of(swept) != ref_summary) {
        std::printf("DIGEST MISMATCH: sweep summary diverged\n");
        result.fail(n);
      }
      if (diff_digest(harness->summarize(diffs)) != ref_diff) {
        std::printf("DIGEST MISMATCH: difftest summary diverged\n");
        result.fail(n);
      }
      combined.push_back(static_cast<double>(n) / (sweep_s + diff_s));
      sweep_rps.push_back(static_cast<double>(n) / sweep_s);
      diff_rps.push_back(static_cast<double>(n) / diff_s);
      pass_quantiles(latency_us, p50s, p99s);
    }
    passes.push_back(count_pass());
    finish_counts(options, "sweep-ram", passes, result);

    add_setup(result, setups);
    result.add("chains_per_s", median(combined), "1/s");
    add_latency(result, p50s, p99s, n);
    result.add("peak_rss_mib", peak_rss_mib(), "MiB");
    result.add("sweep_rps", median(sweep_rps), "1/s");
    result.add("difftest_rps", median(diff_rps), "1/s");
    result.add("passes", static_cast<double>(combined.size()), "count");
    return result;
  }

  // --- traced: the same two sweeps composed call by call -----------------
  std::vector<pathbuild::PathBuilder> builders;
  std::vector<std::string> names;
  for (std::size_t p = 0; p < harness->profiles().size(); ++p) {
    const clients::ClientProfile& profile = harness->profiles()[p];
    builders.emplace_back(profile.policy, &corpus->stores().union_store, aia,
                          &harness->cache_for(p));
    builders.back().set_cache_learning(false);
    names.push_back(short_name(profile.kind));
  }
  std::vector<const chain::ChainObservation*> sample;
  for (std::size_t i = 0; i < n && sample.size() < kProbeSample; ++i) {
    sample.push_back(&corpus->records()[i].observation);
  }

  std::vector<std::map<std::string, double>> walks;
  std::vector<WorkCounts> rounds;
  const Clock::time_point begin = Clock::now();
  while (seconds_since(begin) < options.seconds ||
         static_cast<int>(walks.size()) < kMinTracedRounds) {
    passes.push_back(count_pass());

    // The walk twice from cold memos: first without per-call timers, then
    // with them. Each loop runs under one outer timer, so the two walks
    // differ only in the timers, and trace.overhead_frac is their cost.
    std::vector<chain::ComplianceReport> reports(n);
    std::vector<std::vector<pathbuild::BuildStatus>> statuses(n);
    const auto walk = [&](bool timers, LayerStats& stats) {
      double seconds = 0.0;
      {
        crypto::VerifyMemo memo;
        reset_memos(&memo);
        const crypto::VerifyMemoScope scope(&memo);
        const CounterSnapshot before = CounterSnapshot::take(&memo, aia);
        const Clock::time_point start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
          reports[i] = analyze_layers(corpus->records()[i].observation,
                                      completeness, timers, stats);
        }
        seconds += seconds_since(start);
        stats.add_counters(before, CounterSnapshot::take(&memo, aia));
      }
      reset_memos(nullptr);
      const CounterSnapshot before = CounterSnapshot::take(nullptr, aia);
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        const chain::ChainObservation& obs = corpus->records()[i].observation;
        statuses[i] = build_layers(builders, names, obs.certificates,
                                   obs.domain, timers, stats);
      }
      seconds += seconds_since(start);
      stats.add_counters(before, CounterSnapshot::take(nullptr, aia));
      return seconds;
    };
    LayerStats plain, stats;
    const double untraced = walk(false, plain);
    const double traced = walk(true, stats);
    stats.path_seconds = stats.leaf.total_s + stats.topology.total_s +
                         stats.order.total_s + stats.completeness.total_s +
                         stats.build().total_s;
    rounds.push_back(walk_counts(plain));
    rounds.push_back(walk_counts(stats));

    // The composition must be the library's: the analyzer's report and
    // the harness's statuses, record by record.
    for (std::size_t i = 0; i < n; ++i) {
      const chain::ChainObservation& obs = corpus->records()[i].observation;
      if (!same_report(reports[i], analyzer.analyze(obs)) ||
          statuses[i] != ref_diffs[i].statuses) {
        ++stats.mismatches;
      }
    }

    // Probes run after the walk so they cannot warm its memos.
    probe_layers(sample, corpus->stores().union_store, stats);

    std::map<std::string, double> values = layer_values(stats);
    values["trace.overhead_frac"] = traced / untraced - 1.0;
    values["engine.busy_frac"] =
        busy_fraction(source, analyzer, options.threads);
    add_service_placeholders(values);
    add_shares(values, stats);
    walks.push_back(std::move(values));
    result.attempted += 2 * n;
    if (stats.mismatches > 0) {
      std::printf("TRACE MISMATCH: %llu composed results differ from the "
                  "library's\n",
                  static_cast<unsigned long long>(stats.mismatches));
      result.fail(stats.mismatches);
    }
  }
  finish_counts(options, "sweep-ram passes", passes, result);
  finish_counts(options, "sweep-ram traced walks", rounds, result);
  add_layer_medians(walks, result);
  return result;
}

// ---------------------------------------------------------------------
// sweep-packed
// ---------------------------------------------------------------------

namespace {

/// Flips one byte in the middle of record `index`'s bytes on disk.
bool flip_record(const std::string& path, std::size_t index) {
  std::uint64_t offset = 0;
  {
    auto reader = corpusio::CorpusReader::open(path);
    if (!reader.ok() || reader.value()->size() <= index) return false;
    const corpusio::IndexEntry entry = reader.value()->index_entry(index);
    offset = entry.offset + entry.length / 2;
  }
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!file) return false;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  return static_cast<bool>(file);
}

}  // namespace

RunResult run_sweep_packed(const Options& options) {
  RunResult result;
  const std::string path = options.tmp_dir + "/sweep-packed.chc";
  std::vector<double> setups;
  std::unique_ptr<dataset::Corpus> corpus;
  std::unique_ptr<corpusio::PackedCorpus> packed;
  const int setup_repeats = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setup_repeats; ++i) {
    packed.reset();
    corpus.reset();
    std::remove(path.c_str());
    const Clock::time_point start = Clock::now();
    corpus = make_corpus(options.seed, kPackedDomains);
    const auto written = corpusio::pack_corpus(*corpus, path, kPackedReplicas);
    if (!written.ok()) {
      std::fprintf(stderr, "sweep-packed: pack failed: %s\n",
                   written.error().to_string().c_str());
      result.fail();
      return result;
    }
    const double pack_s = seconds_since(start);
    if (options.inject == Inject::kFlipRecord &&
        !flip_record(path, kPackedDomains / 2)) {
      std::fprintf(stderr, "sweep-packed: cannot flip a record\n");
    }
    const Clock::time_point open_start = Clock::now();
    auto opened = corpusio::PackedCorpus::open(path);
    if (!opened.ok()) {
      std::fprintf(stderr, "sweep-packed: open failed: %s\n",
                   opened.error().to_string().c_str());
      result.fail();
      return result;
    }
    packed = std::move(opened).value();
    setups.push_back(pack_s + seconds_since(open_start));
  }
  const corpusio::CorpusReader& reader = packed->reader();
  const std::size_t n = reader.size();
  std::printf("sweep-packed: %zu records (%zu domains x %zu replicas), "
              "%.1f MiB file, read through the page cache\n",
              n, corpus->size(), kPackedReplicas,
              static_cast<double>(reader.file_bytes()) / (1024.0 * 1024.0));

  chain::CompletenessOptions completeness;
  completeness.store = &packed->stores().union_store;
  completeness.aia = &packed->aia();
  const chain::ComplianceAnalyzer analyzer(completeness);
  net::AiaRepository* aia = &packed->aia();

  // Reference: the in-RAM sweep of the same seed, once per replica.
  std::string ref_summary;
  {
    chain::CompletenessOptions ram_options;
    ram_options.store = &corpus->stores().union_store;
    ram_options.aia = &corpus->aia();
    const chain::ComplianceAnalyzer ram_analyzer(ram_options);
    const engine::VectorRecordSource ram_source(&corpus->records());
    crypto::VerifyMemo memo;
    reset_memos(&memo);
    const engine::AnalysisResult ram = engine::run(
        sweep_request(ram_source, ram_analyzer, options.threads, &memo,
                      nullptr));
    engine::ComplianceTally replicated;
    for (std::size_t r = 0; r < kPackedReplicas; ++r) {
      replicated.merge(ram.tally.compliance);
    }
    ref_summary = engine::summary_table(replicated).render();
  }

  const auto check_sweep = [&](const engine::AnalysisResult& swept,
                               const corpusio::PackedRecordSource& source) {
    result.attempted += n;
    const std::uint64_t errors = source.decode_errors();
    if (errors > 0) {
      std::printf("DECODE ERRORS: %llu records failed to decode\n",
                  static_cast<unsigned long long>(errors));
      result.fail(errors);
    }
    if (summary_of(swept) != ref_summary) {
      std::printf("DIGEST MISMATCH: packed sweep differs from the in-RAM "
                  "sweep of the same seed\n");
      result.fail(n - errors);
    }
  };

  const auto count_pass = [&] {
    WorkCounts counts;
    crypto::VerifyMemo memo;
    reset_memos(&memo);
    const corpusio::PackedRecordSource source(&reader);
    const CounterSnapshot before = CounterSnapshot::take(&memo, aia);
    const engine::AnalysisResult swept =
        engine::run(sweep_request(source, analyzer, 1, &memo, nullptr));
    add_delta(counts, "sweep", before, CounterSnapshot::take(&memo, aia));
    counts.counts["sweep.decode_errors"] = source.decode_errors();
    check_sweep(swept, source);
    return counts;
  };

  std::vector<WorkCounts> passes;
  passes.push_back(count_pass());

  if (!options.trace) {
    std::vector<double> rps, p50s, p99s;
    const Clock::time_point begin = Clock::now();
    while (seconds_since(begin) < options.seconds ||
           static_cast<int>(rps.size()) < kMinPasses) {
      crypto::VerifyMemo memo;
      reset_memos(&memo);
      const corpusio::PackedRecordSource source(&reader);
      std::vector<double> latency_us;
      const Clock::time_point start = Clock::now();
      const engine::AnalysisResult swept = engine::run(
          sweep_request(source, analyzer, options.threads, &memo, &latency_us));
      const double elapsed = seconds_since(start);
      check_sweep(swept, source);
      rps.push_back(static_cast<double>(n) / elapsed);
      pass_quantiles(latency_us, p50s, p99s);
    }
    passes.push_back(count_pass());
    finish_counts(options, "sweep-packed", passes, result);

    add_setup(result, setups);
    result.add("chains_per_s", median(rps), "1/s");
    add_latency(result, p50s, p99s, n);
    result.add("peak_rss_mib", peak_rss_mib(), "MiB");
    result.add("sweep_rps", median(rps), "1/s");
    result.add("passes", static_cast<double>(rps.size()), "count");
    return result;
  }

  // --- traced: decode, then the four analyzers, record by record --------
  std::vector<pathbuild::PathBuilder> builders;
  std::vector<std::string> names;
  for (const clients::ClientProfile& profile : clients::all_profiles()) {
    builders.emplace_back(profile.policy, &packed->stores().union_store, aia);
    builders.back().set_cache_learning(false);
    names.push_back(short_name(profile.kind));
  }
  std::vector<dataset::DomainRecord> sample_records;
  for (std::size_t i = 0; i < n && sample_records.size() < kProbeSample; ++i) {
    auto decoded = reader.decode_record(i);
    if (decoded.ok()) sample_records.push_back(std::move(decoded).value());
  }
  std::vector<const chain::ChainObservation*> sample;
  for (const dataset::DomainRecord& record : sample_records) {
    sample.push_back(&record.observation);
  }
  const corpusio::PackedRecordSource busy_source(&reader);

  std::vector<std::map<std::string, double>> walks;
  std::vector<WorkCounts> rounds;
  const Clock::time_point begin = Clock::now();
  while (seconds_since(begin) < options.seconds ||
         static_cast<int>(walks.size()) < kMinTracedRounds) {
    passes.push_back(count_pass());

    // The walk twice from cold memos: first without per-call timers, then
    // with them, each loop under one outer timer (see sweep-ram). Each
    // starts with the file's pages released, as every sweep pass does.
    std::vector<chain::ComplianceReport> reports(n);
    const auto walk = [&](bool timers, LayerStats& stats) {
      reader.release_records(0, n);
      crypto::VerifyMemo memo;
      reset_memos(&memo);
      const crypto::VerifyMemoScope scope(&memo);
      const CounterSnapshot before = CounterSnapshot::take(&memo, aia);
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < n; ++i) {
        auto decoded = maybe_timed(timers, stats.decode,
                                   [&] { return reader.decode_record(i); });
        stats.record_bytes += reader.record_bytes(i, i + 1);
        if (!decoded.ok()) {
          ++stats.decode_errors;
          continue;
        }
        reports[i] = analyze_layers(decoded.value().observation, completeness,
                                    timers, stats);
      }
      const double seconds = seconds_since(start);
      stats.add_counters(before, CounterSnapshot::take(&memo, aia));
      return seconds;
    };
    LayerStats plain, stats;
    const double untraced = walk(false, plain);
    const double traced = walk(true, stats);
    stats.path_seconds = stats.decode.total_s + stats.leaf.total_s +
                         stats.topology.total_s + stats.order.total_s +
                         stats.completeness.total_s;
    rounds.push_back(walk_counts(plain));
    rounds.push_back(walk_counts(stats));

    // The composition must be the analyzer's, record by record.
    for (std::size_t i = 0; i < n; ++i) {
      auto decoded = reader.decode_record(i);
      if (decoded.ok() &&
          !same_report(reports[i],
                       analyzer.analyze(decoded.value().observation))) {
        ++stats.mismatches;
      }
    }

    // Probes: path building is not on this workload's path, so its
    // per-profile builds run on the sample only, after the walk.
    reset_memos(nullptr);
    for (const chain::ChainObservation* obs : sample) {
      build_layers(builders, names, obs->certificates, obs->domain, true,
                   stats);
    }
    probe_layers(sample, packed->stores().union_store, stats);

    std::map<std::string, double> values = layer_values(stats);
    values["trace.overhead_frac"] = traced / untraced - 1.0;
    values["engine.busy_frac"] =
        busy_fraction(busy_source, analyzer, options.threads);
    add_service_placeholders(values);
    add_shares(values, stats);
    walks.push_back(std::move(values));
    result.attempted += n;
    if (stats.mismatches > 0 || stats.decode_errors > 0) {
      std::printf("TRACE MISMATCH: %llu composed results differ, %llu "
                  "decode errors\n",
                  static_cast<unsigned long long>(stats.mismatches),
                  static_cast<unsigned long long>(stats.decode_errors));
      result.fail(stats.mismatches + stats.decode_errors);
    }
  }
  finish_counts(options, "sweep-packed passes", passes, result);
  finish_counts(options, "sweep-packed traced walks", rounds, result);
  add_layer_medians(walks, result);
  return result;
}

}  // namespace chainbench
