// chainbench's traced run: its own timers and counters around public
// calls into each layer, composed the way the library composes them.
//
// Nothing here touches src/: every span is a steady_clock reading taken
// in chainbench around a public entry point (classify_leaf_placement,
// Topology::build, PathBuilder::build, RequestHandler::handle, ...).
// Each traced walk also checks that its composed results equal what
// the library's own composition (ComplianceAnalyzer::analyze, the
// difftest harness, the handler) returns, so the timed calls are the
// calls the untraced run makes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "chain/analyzer.hpp"
#include "common.hpp"
#include "net/http.hpp"
#include "pathbuild/path_builder.hpp"
#include "truststore/root_store.hpp"

namespace chainbench {

/// Everything one traced walk measured. Times are LayerTimers; counts
/// are sums over the walk's records.
struct LayerStats {
  std::uint64_t records = 0;  ///< records walked on the e2e path
  std::uint64_t mismatches = 0;

  // --- corpusio / x509 -------------------------------------------------
  LayerTimer decode;  ///< CorpusReader::decode_record, per record
  std::uint64_t record_bytes = 0;
  std::uint64_t decode_errors = 0;
  LayerTimer parse;  ///< x509::parse_certificate, per certificate
  std::uint64_t parse_records = 0;

  // --- chain analyzers (per record) ------------------------------------
  LayerTimer leaf, topology, order, completeness;

  // --- counter deltas over the e2e-path steps --------------------------
  std::uint64_t issued_lookups = 0, issued_hits = 0, signature_checks = 0;
  std::uint64_t verifications = 0, memo_lookups = 0, memo_hits = 0;
  std::uint64_t aia_fetches = 0;

  // --- path building (per build) ---------------------------------------
  std::map<std::string, LayerTimer> build_by_profile;
  std::uint64_t candidates = 0, steps = 0, backtracks = 0;

  // --- crypto / lint / service probes ----------------------------------
  LayerTimer verify;  ///< one unmemoized Verifier check
  LayerTimer lint;    ///< Linter::lint, per record
  LayerTimer frame;   ///< probe_request_frame + parse_request
  LayerTimer decode_body;  ///< service::decode_chain_body
  LayerTimer handler_hit, handler_miss;  ///< RequestHandler::handle

  /// Seconds the walk's timers summed over the steps on the workload's
  /// untraced path (the whole of its share.* figures).
  double path_seconds = 0.0;

  /// Every profile's builds together.
  LayerTimer build() const;

  void add_counters(const CounterSnapshot& before,
                    const CounterSnapshot& after);
};

/// Runs leaf placement, topology, order and completeness one by one,
/// as ComplianceAnalyzer::analyze composes them. With `timers`, each
/// call runs under its timer in `stats`; without, the walk does the same
/// work untimed (the baseline of the tracing overhead). Returns the
/// composed report.
chain::ComplianceReport analyze_layers(const chain::ChainObservation& obs,
                                       const chain::CompletenessOptions& opts,
                                       bool timers, LayerStats& stats);

/// True when `composed` equals `reference`, compared through the tally
/// every sweep accounts into.
bool same_report(const chain::ComplianceReport& composed,
                 const chain::ComplianceReport& reference);

/// One PathBuilder::build per builder, in order, counting BuildStats.
/// With `timers`, each build runs under the shared timer and its
/// profile's (`names` labels those). Returns the statuses.
std::vector<pathbuild::BuildStatus> build_layers(
    const std::vector<pathbuild::PathBuilder>& builders,
    const std::vector<std::string>& names,
    const std::vector<x509::CertPtr>& certs, const std::string& domain,
    bool timers, LayerStats& stats);

/// The body chainbench posts for a chain: its PEM bundle.
std::string pem_body(const std::vector<x509::CertPtr>& certs);

/// A chain request as chaind receives it.
net::HttpRequest chain_request(const std::string& endpoint,
                               const std::string& domain,
                               const std::string& body);

/// Probes on a sample of records, for layers the workload's untraced
/// path may not reach: standalone x509 parse, an unmemoized verify per
/// issuing pair, lint, and the service path (frame, decode body,
/// handler miss and hit) through an in-process handler anchored on
/// `roots`. Mismatches (a hit body differing from the miss body) count
/// into stats.mismatches.
void probe_layers(const std::vector<const chain::ChainObservation*>& sample,
                  const truststore::RootStore& roots, LayerStats& stats);

/// The per-layer metric values of one walk (names as in
/// per_layer_names(), plus table-only extras).
std::map<std::string, double> layer_values(const LayerStats& stats);

/// Medians over several walks' values, added to `result` with units.
void add_layer_medians(
    const std::vector<std::map<std::string, double>>& walks,
    RunResult& result);

}  // namespace chainbench
