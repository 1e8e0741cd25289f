// The shared macro-scenario substrate.
//
// bench/macro_scenario, the sweep engine and the chaos harness all drive
// the same workload shape: a backbone ring (with chords) of top-level
// domains, customer children hanging off round-robin, a full MASC sibling
// mesh between the tops, then claim → groups/joins → send phases. Each
// used to reimplement that setup; `ScenarioSpec` + `build_scenario()` is
// the one copy. New workloads configure a struct instead of cloning code.
//
// Scale knobs (`max_tops`, `active_children`, `flap_pairs`) exist for the
// 10k-domain ladder: at their defaults (0 = uncapped) construction is
// byte-identical to the historical shape, so the committed 256-domain
// `rib_digest` is invariant. Capped, the backbone stops growing as
// domains/8 (which would square the MASC sibling mesh) and only the first
// `active_children` children claim address space and announce unicast —
// the rest are pure members, the regime the paper's 3326-domain BGP-dump
// experiment models (few sources, many receivers).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "eval/telemetry.hpp"
#include "net/ip.hpp"
#include "net/rng.hpp"
#include "workload/spec.hpp"

namespace core {
class Domain;
class Internet;
}  // namespace core
namespace workload {
class Session;
}

namespace eval {

struct ScenarioSpec {
  int domains = 64;
  std::uint64_t seed = 1;
  /// Groups to lease (0 = max(1, domains/4)) and member joins per group.
  int groups = 0;
  int joins = 4;

  // ---- scale knobs (0 = uncapped legacy shape) --------------------------
  /// Cap on backbone size; uncapped the backbone is max(2, domains/8).
  int max_tops = 0;
  /// Cap on how many children claim address space + announce unicast (and
  /// thus can initiate groups). Uncapped, every child does.
  int active_children = 0;
  /// Cap on ring-link pairs flapped by phase_flap (0 = every pair).
  int flap_pairs = 0;

  // ---- harness options --------------------------------------------------
  /// Telemetry attached for the run (recorder ticks, span sampling); the
  /// harness owning the Internet turns this into a TelemetrySession.
  TelemetrySpec telemetry;
  /// Record every inter-domain link in BuiltScenario::links (chaos picks
  /// flap victims from it).
  bool record_links = false;
  /// Deduplicate member joins and remember membership per group (chaos
  /// churn needs the member sets; the bench harnesses keep the historical
  /// fire-and-forget joins).
  bool track_members = false;
  /// The aggregate end-host layer (src/workload). Disabled by default:
  /// the legacy phases, their RNG streams and every committed digest are
  /// untouched unless `workload.enabled` is set.
  workload::Spec workload;

  /// The backbone size this spec produces.
  [[nodiscard]] int effective_tops() const;
  /// The group count this spec produces.
  [[nodiscard]] int effective_groups() const;
};

/// One leased group: its initiator, the initiator's domain index, and —
/// when `track_members` — the member domain indices joined so far.
struct LiveGroup {
  core::Domain* root = nullptr;
  std::size_t root_index = 0;
  net::Ipv4Addr group;
  std::set<std::size_t> members;
};

struct BuiltScenario {
  std::vector<core::Domain*> tops;
  std::vector<core::Domain*> children;
  /// The children that claim space / announce unicast / initiate groups;
  /// aliases `children` when `active_children` is uncapped.
  std::vector<core::Domain*> active;
  /// Every inter-domain link, in creation order (only if `record_links`).
  std::vector<std::pair<core::Domain*, core::Domain*>> links;
};

/// Creates the domains, links, MASC hierarchy and unicast announcements.
[[nodiscard]] BuiltScenario build_scenario(core::Internet& net,
                                           const ScenarioSpec& spec);

/// Phase 1 — address claiming: tops carve 224/4 between themselves,
/// active children claim /24s out of their parents' ranges.
void phase_claim(core::Internet& net, const BuiltScenario& topo);

/// The workload RNG every harness derives from its seed.
[[nodiscard]] net::Rng make_workload_rng(std::uint64_t seed);

/// Phase 2 — group lifetime: active children lease groups round-robin,
/// `joins` member picks per group are drawn from `rng` (one draw per pick
/// regardless of dedupe, so RNG streams replay identically), then every
/// initiator sends one packet down its tree. `rng` is advanced in place:
/// chaos continues the same stream into its churn schedule.
[[nodiscard]] std::vector<LiveGroup> phase_groups(core::Internet& net,
                                                  const ScenarioSpec& spec,
                                                  const BuiltScenario& topo,
                                                  net::Rng& rng);

/// Phase 3 — backbone perturbation: flap alternating ring links (each
/// flap withdraws and re-learns whole tables), bounded by `flap_pairs`.
void phase_flap(core::Internet& net, const ScenarioSpec& spec,
                const BuiltScenario& topo);

/// Workload setup — leases `spec.workload.groups` group addresses
/// round-robin over the active children (the MAAS address-request load)
/// and returns a live workload::Session over them. nullptr when the
/// workload is disabled or no child can lease. The caller drives it:
/// `session->run()` for the canonical tick loop, or
/// `session->advance_to(now)` interleaved with its own run_until calls
/// (the chaos harness). Keep the session alive until after the final
/// metrics snapshot.
[[nodiscard]] std::unique_ptr<workload::Session> phase_workload(
    core::Internet& net, const ScenarioSpec& spec, const BuiltScenario& topo);

/// Digest of the converged routing state of one simulation: every
/// domain's unicast and G-RIB best routes in address order. Identical
/// tables produce identical digests regardless of the message history.
[[nodiscard]] std::uint64_t rib_digest(core::Internet& net);

/// Digest of the chosen paths: every best route in the unicast view and
/// the G-RIB of every border speaker, each hashed with its holder, the
/// view's name, prefix, origin AS, neighbour AS, iBGP flag and full hop
/// sequence. rib_digest sees only path lengths; this one moves when a tie
/// is broken toward a different neighbour. Per-route hashes are summed,
/// so the digest does not depend on walk order.
[[nodiscard]] std::uint64_t path_digest(core::Internet& net);

/// Digest of the BGMP trees: every (*,G) and (S,G) entry of every border
/// router, each hashed with its holder, group (and source), parent target
/// and sorted child targets. A target is hashed as (kind,
/// TargetKey::order), never as a pointer. Per-entry hashes are summed.
[[nodiscard]] std::uint64_t tree_digest(core::Internet& net);

}  // namespace eval
