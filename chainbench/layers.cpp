#include "layers.hpp"

#include "chain/issuance.hpp"
#include "engine/tally.hpp"
#include "lint/lint.hpp"
#include "service/handlers.hpp"

namespace chainbench {

namespace {

double per(double numerator, std::uint64_t denominator) {
  return denominator > 0 ? numerator / static_cast<double>(denominator) : 0.0;
}

std::string unit_of(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("_us") || ends_with(".us") ||
      name.find("_us.") != std::string::npos) {
    return "us";
  }
  if (ends_with("_ms")) return "ms";
  if (ends_with("_ratio") || ends_with("_frac") ||
      name.rfind("share.", 0) == 0) {
    return "fraction";
  }
  return "count";
}

}  // namespace

LayerTimer LayerStats::build() const {
  LayerTimer total;
  for (const auto& [profile, timer] : build_by_profile) {
    total.total_s += timer.total_s;
    total.calls += timer.calls;
  }
  return total;
}

void LayerStats::add_counters(const CounterSnapshot& before,
                              const CounterSnapshot& after) {
  issued_lookups += after.issuance.lookups - before.issuance.lookups;
  issued_hits += after.issuance.hits - before.issuance.hits;
  signature_checks +=
      after.issuance.signature_checks - before.issuance.signature_checks;
  verifications += after.verifier.verifications - before.verifier.verifications;
  memo_lookups += after.memo.lookups - before.memo.lookups;
  memo_hits += after.memo.hits - before.memo.hits;
  aia_fetches += after.aia_attempts - before.aia_attempts;
}

chain::ComplianceReport analyze_layers(const chain::ChainObservation& obs,
                                       const chain::CompletenessOptions& opts,
                                       bool timers, LayerStats& stats) {
  chain::ComplianceReport report;
  report.leaf_placement = maybe_timed(timers, stats.leaf, [&] {
    return chain::classify_leaf_placement(obs.certificates, obs.domain);
  });
  const chain::Topology topology = maybe_timed(
      timers, stats.topology,
      [&] { return chain::Topology::build(obs.certificates); });
  report.order = maybe_timed(timers, stats.order, [&] {
    return chain::analyze_order(obs.certificates, topology);
  });
  report.completeness = maybe_timed(timers, stats.completeness, [&] {
    return chain::analyze_completeness(topology, opts);
  });
  ++stats.records;
  return report;
}

bool same_report(const chain::ComplianceReport& composed,
                 const chain::ComplianceReport& reference) {
  engine::ComplianceTally a, b;
  a.account(composed);
  b.account(reference);
  return a == b;
}

std::vector<pathbuild::BuildStatus> build_layers(
    const std::vector<pathbuild::PathBuilder>& builders,
    const std::vector<std::string>& names,
    const std::vector<x509::CertPtr>& certs, const std::string& domain,
    bool timers, LayerStats& stats) {
  std::vector<pathbuild::BuildStatus> statuses;
  statuses.reserve(builders.size());
  for (std::size_t p = 0; p < builders.size(); ++p) {
    const auto build = [&] { return builders[p].build(certs, domain); };
    const pathbuild::BuildResult result =
        timers ? timed(stats.build_by_profile[names[p]], build) : build();
    stats.candidates += static_cast<std::uint64_t>(
        result.stats.candidates_considered);
    stats.steps += static_cast<std::uint64_t>(result.stats.steps);
    stats.backtracks += static_cast<std::uint64_t>(result.stats.backtracks);
    statuses.push_back(result.status);
  }
  return statuses;
}

std::string pem_body(const std::vector<x509::CertPtr>& certs) {
  std::string body;
  for (const x509::CertPtr& cert : certs) body += x509::to_pem(*cert);
  return body;
}

net::HttpRequest chain_request(const std::string& endpoint,
                               const std::string& domain,
                               const std::string& body) {
  net::HttpRequest req;
  req.method = "POST";
  req.target = domain.empty() ? endpoint : endpoint + "?domain=" + domain;
  req.host = "127.0.0.1";
  req.headers["content-type"] = "application/x-pem-file";
  req.body = to_bytes(body);
  return req;
}

void probe_layers(const std::vector<const chain::ChainObservation*>& sample,
                  const truststore::RootStore& roots, LayerStats& stats) {
  // Standalone parse and one unmemoized verify per plausible issuing
  // pair of adjacent certificates.
  const crypto::Verifier unmemoized(nullptr);
  for (const chain::ChainObservation* obs : sample) {
    ++stats.parse_records;
    for (const x509::CertPtr& cert : obs->certificates) {
      const auto parsed =
          timed(stats.parse, [&] { return x509::parse_certificate(cert->der); });
      if (!parsed.ok()) ++stats.mismatches;
    }
    for (std::size_t i = 0; i + 1 < obs->certificates.size(); ++i) {
      const x509::Certificate& subject = *obs->certificates[i];
      const x509::Certificate& issuer = *obs->certificates[i + 1];
      if (!chain::plausibly_issued_by(subject, issuer)) continue;
      timed(stats.verify, [&] {
        return unmemoized.verify(issuer.public_key, subject.tbs_der,
                                 subject.signature);
      });
    }
  }

  // The service path in process, from cold memos: frame and parse the
  // request bytes, decode the body, then a cold handler (no cache: always
  // a miss) and a caching one asked twice (the second ask is the hit).
  reset_memos(nullptr);
  service::HandlerOptions handler_options;
  handler_options.roots = &roots;
  service::ResultCache no_cache(0);
  service::ResultCache cache(1u << 16);
  service::Metrics metrics;
  service::RequestHandler cold(handler_options, &no_cache, &metrics);
  service::RequestHandler warm(handler_options, &cache, &metrics);
  for (const chain::ChainObservation* obs : sample) {
    const std::string wire =
        chain_request("/v1/analyze", obs->domain, pem_body(obs->certificates))
            .encode();
    auto parsed = timed(stats.frame, [&]() -> chainchaos::Result<net::HttpRequest> {
      auto frame = net::probe_request_frame(wire);
      if (!frame.ok()) return frame.error();
      return net::parse_request(wire.substr(0, frame.value().total_bytes));
    });
    if (!parsed.ok()) {
      ++stats.mismatches;
      continue;
    }
    const auto chain_ok = timed(stats.decode_body, [&] {
      return service::decode_chain_body(parsed.value().body);
    });
    if (!chain_ok.ok()) ++stats.mismatches;
    const net::HttpResponse miss =
        timed(stats.handler_miss, [&] { return cold.handle(parsed.value()); });
    warm.handle(parsed.value());
    const net::HttpResponse hit =
        timed(stats.handler_hit, [&] { return warm.handle(parsed.value()); });
    const auto verdict = hit.headers.find("x-cache");
    if (miss.status != 200 || hit.body != miss.body ||
        verdict == hit.headers.end() || verdict->second != "hit") {
      ++stats.mismatches;
    }
  }

  // Lint over the analyzer's report, as the daemon's handler runs it.
  chain::CompletenessOptions opts;
  opts.store = &roots;
  opts.aia_enabled = false;
  const chain::ComplianceAnalyzer analyzer(opts);
  const lint::Linter linter(lint::LintOptions{0});
  for (const chain::ChainObservation* obs : sample) {
    const chain::ComplianceReport report = analyzer.analyze(*obs);
    timed(stats.lint, [&] { return linter.lint(*obs, report); });
  }
}

std::map<std::string, double> layer_values(const LayerStats& s) {
  std::map<std::string, double> v;
  v["x509.parse_us"] = s.parse.mean_us();
  v["x509.certs_per_record"] = per(static_cast<double>(s.parse.calls),
                                   s.parse_records);
  v["corpusio.bytes_per_record"] =
      per(static_cast<double>(s.record_bytes), s.decode.calls);
  v["corpusio.decode_errors"] = static_cast<double>(s.decode_errors);
  v["chain.leaf_placement_us"] = s.leaf.mean_us();
  v["chain.topology_us"] = s.topology.mean_us();
  v["chain.order_us"] = s.order.mean_us();
  v["chain.completeness_us"] = s.completeness.mean_us();
  v["chain.issued_by_lookups_per_record"] =
      per(static_cast<double>(s.issued_lookups), s.records);
  v["chain.issued_by_hit_ratio"] =
      per(static_cast<double>(s.issued_hits), s.issued_lookups);
  v["chain.signature_checks_per_record"] =
      per(static_cast<double>(s.signature_checks), s.records);
  v["crypto.verifications_per_record"] =
      per(static_cast<double>(s.verifications), s.records);
  v["crypto.memo_hit_ratio"] =
      per(static_cast<double>(s.memo_hits), s.memo_lookups);
  v["crypto.verify_us"] = s.verify.mean_us();
  v["net.aia_fetches_per_record"] =
      per(static_cast<double>(s.aia_fetches), s.records);
  const LayerTimer build = s.build();
  v["pathbuild.build_us"] = build.mean_us();
  v["pathbuild.candidates_per_build"] =
      per(static_cast<double>(s.candidates), build.calls);
  v["pathbuild.steps_per_build"] =
      per(static_cast<double>(s.steps), build.calls);
  v["pathbuild.backtracks_per_build"] =
      per(static_cast<double>(s.backtracks), build.calls);
  for (const auto& [profile, timer] : s.build_by_profile) {
    v["pathbuild.build_us." + profile] = timer.mean_us();
  }
  v["lint.us"] = s.lint.mean_us();
  v["net.frame_us"] = s.frame.mean_us();
  v["service.decode_body_us"] = s.decode_body.mean_us();
  v["service.handler_hit_us"] = s.handler_hit.mean_us();
  v["service.handler_miss_us"] = s.handler_miss.mean_us();
  if (s.decode.calls > 0) v["corpusio.decode_us"] = s.decode.mean_us();
  return v;
}

void add_layer_medians(
    const std::vector<std::map<std::string, double>>& walks,
    RunResult& result) {
  std::map<std::string, std::vector<double>> columns;
  for (const auto& walk : walks) {
    for (const auto& [name, value] : walk) columns[name].push_back(value);
  }
  for (auto& [name, values] : columns) {
    result.add(name, median(values), unit_of(name));
  }
}

}  // namespace chainbench
