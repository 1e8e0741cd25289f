#include "workload/session.hpp"

#include <algorithm>
#include <cmath>

#include "core/domain.hpp"
#include "core/internet.hpp"
#include "obs/metrics.hpp"
#include "topology/paths.hpp"

namespace workload {

Session::Session(core::Internet& net, const Spec& spec,
                 std::vector<GroupSite> sites, std::uint64_t seed)
    : net_(net),
      spec_(spec),
      sites_(std::move(sites)),
      start_(net.events().now()) {
  spec_.groups = static_cast<int>(sites_.size());
  std::vector<std::uint32_t> roots;
  roots.reserve(sites_.size());
  for (const GroupSite& s : sites_) {
    roots.push_back(static_cast<std::uint32_t>(s.root_index));
    root_domains_.push_back(s.root_index);
  }
  std::sort(root_domains_.begin(), root_domains_.end());
  root_domains_.erase(
      std::unique(root_domains_.begin(), root_domains_.end()),
      root_domains_.end());
  engine_ = std::make_shared<Engine>(
      spec_, static_cast<std::uint32_t>(net_.domain_count()),
      std::move(roots), seed);

  engine_->set_hops_fn([this](std::uint32_t g, std::uint32_t d) {
    const std::uint32_t hops = net_.domain_hops(
        net_.domain(sites_[g].root_index), net_.domain(d));
    return hops == topology::kUnreachable ? 0u : hops;
  });
  engine_->set_transition_observer([this](const Transition& t) {
    core::Domain& member = net_.domain(t.domain);
    if (t.up) {
      member.host_join(sites_[t.group].group);
    } else {
      member.host_leave(sites_[t.group].group);
    }
  });

  obs::Metrics& metrics = net_.metrics();
  joins_ = &metrics.counter("workload.joins_total");
  leaves_ = &metrics.counter("workload.leaves_total");
  tree_joins_ = &metrics.counter("workload.tree_joins");
  tree_prunes_ = &metrics.counter("workload.tree_prunes");
  flashes_ = &metrics.counter("workload.flash_crowds_started");
  ticks_ = &metrics.counter("workload.ticks_run");
  members_ = &metrics.gauge("workload.members_total");
  peak_ = &metrics.gauge("workload.members_peak");
  join_rate_ = &metrics.gauge("workload.join_rate");
  active_groups_ = &metrics.gauge("workload.groups_active");
  active_cells_ = &metrics.gauge("workload.active_cells");
  fragmentation_ = &metrics.gauge("workload.address_fragmentation");
  edge_load_ = &metrics.sharded("bgmp.tree_edge_load.by_domain");
  members_by_domain_ = &metrics.sharded("workload.members.by_domain");

  // Snapshot-time sampling only (never on the tick path): the members of
  // every domain and the mean MAAS block fragmentation across the
  // domains hosting group roots. The weak_ptr keeps a stale hook inert if
  // a snapshot outlives the session.
  std::weak_ptr<Engine> weak = engine_;
  metrics.add_refresh_hook([this, weak] {
    if (!weak.expired()) refresh_sampled();
  });
}

void Session::refresh_sampled() {
  members_by_domain_->clear();
  const std::vector<std::uint64_t>& members = engine_->members_by_domain();
  for (std::uint32_t d = 0; d < members.size(); ++d) {
    members_by_domain_->set(net_.domain(d).id(), members[d]);
  }
  double fragmentation_sum = 0.0;
  std::size_t sampled = 0;
  for (const std::size_t root : root_domains_) {
    const double f =
        net_.domain(root).maas().fragmentation(net_.events().now());
    if (f > 0.0) {
      fragmentation_sum += f;
      ++sampled;
    }
  }
  fragmentation_->set(
      sampled == 0
          ? 0.0
          : fragmentation_sum / static_cast<double>(sampled));
}

Session::~Session() = default;

void Session::apply_tick() {
  const TickStats stats = engine_->tick();
  joins_->inc(stats.joins);
  leaves_->inc(stats.leaves);
  tree_joins_->inc(stats.up_transitions);
  tree_prunes_->inc(stats.down_transitions);
  flashes_->inc(stats.flashes_started);
  ticks_->inc();
  members_->set(static_cast<double>(engine_->members_total()));
  peak_->set(static_cast<double>(engine_->members_peak()));
  join_rate_->set(static_cast<double>(stats.joins) / spec_.tick_seconds);
  active_groups_->set(static_cast<double>(engine_->active_groups()));
  active_cells_->set(static_cast<double>(engine_->active_cells()));
  engine_->drain_loads([this](std::uint32_t d, std::uint64_t delta) {
    edge_load_->add(net_.domain(d).id(), delta);
    edge_load_total_ += delta;
  });
  // Sample the population at each whole simulated day: the "sustains N
  // members over a week" evidence in the workload report.
  const double t = static_cast<double>(engine_->ticks_done()) *
                   spec_.tick_seconds;
  if (std::fmod(t, 86400.0) < spec_.tick_seconds * 0.5) {
    members_by_day_.push_back(engine_->members_total());
  }
}

void Session::advance_to(net::SimTime t) {
  while (engine_->ticks_done() < spec_.ticks()) {
    const net::SimTime due =
        start_ + net::SimTime::seconds_f(
                     spec_.tick_seconds *
                     static_cast<double>(engine_->ticks_done()));
    if (due > t) break;
    apply_tick();
  }
}

void Session::run() {
  const std::int64_t ticks = spec_.ticks();
  for (std::int64_t i = 0; i < ticks; ++i) {
    apply_tick();
    net_.run_until(start_ +
                   net::SimTime::seconds_f(spec_.tick_seconds *
                                           static_cast<double>(i + 1)));
  }
  net_.settle();
  finish();
}

void Session::finish() {
  engine_->drain_loads([this](std::uint32_t d, std::uint64_t delta) {
    edge_load_->add(net_.domain(d).id(), delta);
    edge_load_total_ += delta;
  });
  members_->set(static_cast<double>(engine_->members_total()));
  peak_->set(static_cast<double>(engine_->members_peak()));
  active_groups_->set(static_cast<double>(engine_->active_groups()));
  active_cells_->set(static_cast<double>(engine_->active_cells()));
  // Push the snapshot-time samples too: a harness may destroy the session
  // (inerting the refresh hook) before it takes its final snapshot, and
  // the registry keeps these last values.
  refresh_sampled();
}

SessionReport Session::report() const {
  SessionReport r;
  r.members_total = engine_->members_total();
  r.members_peak = engine_->members_peak();
  r.joins_total = engine_->joins_total();
  r.leaves_total = engine_->leaves_total();
  r.tree_joins = engine_->up_transitions();
  r.tree_prunes = engine_->down_transitions();
  r.active_cells = engine_->active_cells();
  r.active_groups = engine_->active_groups();
  r.groups_leased = sites_.size();
  r.lease_failures = lease_failures_;
  r.flash_crowds = engine_->flashes().size();
  r.ticks_run = engine_->ticks_done();
  r.edge_load_total = edge_load_total_;
  r.engine_digest = engine_->digest();
  r.members_by_day = members_by_day_;
  return r;
}

}  // namespace workload
