// Session — the workload engine attached to a live core::Internet.
//
// The engine owns the member counts; the session owns the glue: it maps
// 0↔nonzero cell transitions to real host_join()/host_leave() calls (the
// BGMP join/prune path), answers the engine's hops queries from the
// topology, streams the aggregate tree-edge load into
// `bgmp.tree_edge_load.by_domain`, and keeps the `workload.*` instruments
// current.
//
// Ticks are applied *between* event-queue runs (advance_to() never runs
// events), exactly like chaos perturbations, so the protocol only ever
// sees a tick's already-scheduled consequences and a rerun with the same
// seed is byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/ip.hpp"
#include "net/time.hpp"
#include "workload/engine.hpp"
#include "workload/spec.hpp"

namespace core {
class Internet;
}
namespace obs {
class Counter;
class Gauge;
class Sharded;
}  // namespace obs

namespace workload {

/// One leased group: the domain index of its initiator (the tree root)
/// and the address its MAAS granted.
struct GroupSite {
  std::size_t root_index = 0;
  net::Ipv4Addr group;
};

struct SessionReport {
  std::uint64_t members_total = 0;
  std::uint64_t members_peak = 0;
  std::uint64_t joins_total = 0;
  std::uint64_t leaves_total = 0;
  std::uint64_t tree_joins = 0;   ///< 0→nonzero transitions (BGMP joins)
  std::uint64_t tree_prunes = 0;  ///< nonzero→0 transitions (BGMP prunes)
  std::uint64_t active_cells = 0;
  std::uint64_t active_groups = 0;
  std::uint64_t groups_leased = 0;
  std::uint64_t lease_failures = 0;
  std::uint64_t flash_crowds = 0;
  std::int64_t ticks_run = 0;
  std::uint64_t edge_load_total = 0;  ///< packet-hops, exact
  std::uint64_t engine_digest = 0;
  /// members_total sampled at each whole simulated day boundary.
  std::vector<std::uint64_t> members_by_day;
};

class Session {
 public:
  /// The session registers instruments and a snapshot refresh hook with
  /// `net`'s metrics registry; it must outlive every snapshot taken while
  /// the workload's gauges should stay live (harnesses keep it until
  /// after their final snapshot). `spec.groups` is clamped to
  /// sites.size() — lease failures shrink the realized group population.
  Session(core::Internet& net, const Spec& spec, std::vector<GroupSite> sites,
          std::uint64_t seed);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Applies every tick due at simulated time `t` (tick i is due at
  /// start + i × tick_seconds, where start is the construction-time
  /// clock). Runs no events — call between run_until()s, chaos-style.
  void advance_to(net::SimTime t);

  /// The full canonical run: per tick, apply the churn then run the event
  /// queue to the next tick boundary; finally settle and flush.
  void run();

  /// Final load flush + gauge refresh (idempotent; run() calls it).
  void finish();

  void set_lease_failures(std::uint64_t n) { lease_failures_ = n; }

  [[nodiscard]] const Engine& engine() const { return *engine_; }
  [[nodiscard]] SessionReport report() const;

 private:
  void apply_tick();
  /// Snapshot-time sampling (members per domain, mean MAAS
  /// fragmentation); called by the metrics refresh hook and by finish().
  void refresh_sampled();

  core::Internet& net_;
  Spec spec_;
  std::vector<GroupSite> sites_;
  std::shared_ptr<Engine> engine_;
  net::SimTime start_;
  std::uint64_t lease_failures_ = 0;
  std::uint64_t edge_load_total_ = 0;
  std::vector<std::uint64_t> members_by_day_;
  std::vector<std::size_t> root_domains_;  // unique, sorted (fragmentation)

  obs::Counter* joins_ = nullptr;
  obs::Counter* leaves_ = nullptr;
  obs::Counter* tree_joins_ = nullptr;
  obs::Counter* tree_prunes_ = nullptr;
  obs::Counter* flashes_ = nullptr;
  obs::Counter* ticks_ = nullptr;
  obs::Gauge* members_ = nullptr;
  obs::Gauge* peak_ = nullptr;
  obs::Gauge* join_rate_ = nullptr;
  obs::Gauge* active_groups_ = nullptr;
  obs::Gauge* active_cells_ = nullptr;
  obs::Gauge* fragmentation_ = nullptr;
  obs::Sharded* edge_load_ = nullptr;
  obs::Sharded* members_by_domain_ = nullptr;
};

}  // namespace workload
