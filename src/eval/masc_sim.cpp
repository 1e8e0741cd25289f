#include "eval/masc_sim.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace eval {

namespace {

using masc::ClaimRegistry;
using masc::DomainPool;
using masc::ExpansionPlan;
using net::Prefix;
using net::SimTime;

/// A top-level (backbone) domain: claims from 224/4, arbitrates its
/// children's claims, mirrors them as usage of its own space.
struct TopDomain {
  masc::DomainId id;
  DomainPool pool;
  ClaimRegistry child_claims;
  /// Child prefix → mirror block id in `pool`.
  std::map<Prefix, std::uint64_t> mirror;
  /// The space this backbone claims from: all of 224/4, or its nearby
  /// exchange point's partition (§4.4).
  Prefix claim_space = net::multicast_space();

  TopDomain(masc::DomainId id_in, const masc::PoolParams& params)
      : id(id_in), pool(id_in, params) {}
};

struct ChildDomain {
  masc::DomainId id;
  std::size_t parent;
  DomainPool pool;

  ChildDomain(masc::DomainId id_in, std::size_t parent_in,
              const masc::PoolParams& params)
      : id(id_in), parent(parent_in), pool(id_in, params) {}
};

class Simulation {
 public:
  explicit Simulation(const MascSimParams& params)
      : params_(params),
        rng_(params.seed),
        requests_served_(&metrics_.counter("masc.requests_served")),
        allocation_failures_(&metrics_.counter("masc.allocation_failures")),
        expansions_executed_(&metrics_.counter("masc.expansions_executed")),
        claim_grant_latency_(&metrics_.histogram("masc.claim_grant_latency")),
        collision_resolution_latency_(
            &metrics_.histogram("masc.collision_resolution_latency")) {
    tops_.reserve(params.top_level_domains);
    masc::DomainId next_id = 1;
    // §4.4 exchange partitions: the first power-of-two cover of k slices.
    std::vector<Prefix> exchange_spaces;
    if (params.exchanges > 1) {
      int bits = 0;
      while ((std::size_t{1} << bits) < params.exchanges) ++bits;
      for (std::size_t e = 0; e < params.exchanges; ++e) {
        exchange_spaces.push_back(net::multicast_space().subprefix_at(
            net::multicast_space().length() + bits, e));
      }
    }
    for (std::size_t t = 0; t < params.top_level_domains; ++t) {
      tops_.emplace_back(next_id++, params.pool);
      if (!exchange_spaces.empty()) {
        tops_.back().claim_space =
            exchange_spaces[t % exchange_spaces.size()];
      }
    }
    for (std::size_t t = 0; t < params.top_level_domains; ++t) {
      for (std::size_t c = 0; c < params.children_per_top; ++c) {
        children_.emplace_back(next_id++, t, params.pool);
      }
    }
  }

  MascSimResult run() {
    // Each child's request process starts at a random offset.
    for (std::size_t i = 0; i < children_.size(); ++i) {
      queue_.push(Event{
          rng_.uniform_time(SimTime::nanoseconds(0),
                            params_.max_interarrival),
          i});
    }
    SimTime next_sample = params_.sample_interval;
    while (!queue_.empty()) {
      const Event event = queue_.top();
      if (event.at > params_.horizon) break;
      queue_.pop();
      while (next_sample <= event.at) {
        age_all(next_sample);
        sample(next_sample);
        next_sample += params_.sample_interval;
      }
      serve_request(children_[event.child], event.at);
      queue_.push(Event{event.at + rng_.uniform_time(
                                       params_.min_interarrival,
                                       params_.max_interarrival),
                        event.child});
    }
    while (next_sample <= params_.horizon) {
      age_all(next_sample);
      sample(next_sample);
      next_sample += params_.sample_interval;
    }
    result_.invariants_ok = verify_invariants();
    result_.requests_served = requests_served_->value();
    result_.allocation_failures =
        static_cast<int>(allocation_failures_->value());
    result_.final_metrics = metrics_.snapshot(params_.horizon.to_seconds());
    return std::move(result_);
  }

  /// End-of-run integrity checks (see MascSimResult::invariants_ok).
  [[nodiscard]] bool verify_invariants() const {
    // Top-level claims pairwise disjoint, each inside its top's claim
    // space (its exchange's partition, §4.4).
    std::vector<Prefix> top_claims;
    for (const TopDomain& top : tops_) {
      for (const masc::ClaimedPrefix& p : top.pool.prefixes()) {
        if (!top.claim_space.contains(p.prefix)) return false;
        for (const Prefix& q : top_claims) {
          if (p.prefix.overlaps(q)) return false;
        }
        top_claims.push_back(p.prefix);
      }
    }
    // Every child's claims sit inside the parent's held space, mutually
    // disjoint among siblings, and the mirror accounting matches.
    for (std::size_t t = 0; t < tops_.size(); ++t) {
      const TopDomain& top = tops_[t];
      std::uint64_t mirrored = top.pool.allocated_addresses();
      std::uint64_t child_total = 0;
      std::vector<Prefix> sibling_claims;
      for (const ChildDomain& child : children_) {
        if (child.parent != t) continue;
        for (const masc::ClaimedPrefix& p : child.pool.prefixes()) {
          child_total += p.prefix.size();
          bool inside = false;
          for (const masc::ClaimedPrefix& held : top.pool.prefixes()) {
            if (held.prefix.contains(p.prefix)) inside = true;
          }
          if (!inside) return false;
          for (const Prefix& q : sibling_claims) {
            if (p.prefix.overlaps(q)) return false;
          }
          sibling_claims.push_back(p.prefix);
        }
      }
      if (mirrored != child_total) return false;
    }
    return true;
  }

 private:
  struct Event {
    SimTime at;
    std::size_t child;
    friend bool operator>(const Event& a, const Event& b) {
      if (a.at != b.at) return a.at > b.at;
      return a.child > b.child;
    }
  };

  [[nodiscard]] std::vector<Prefix> active_spaces(const DomainPool& pool)
      const {
    std::vector<Prefix> spaces;
    for (const masc::ClaimedPrefix& p : pool.prefixes()) {
      if (p.active) spaces.push_back(p.prefix);
    }
    return spaces;
  }

  void serve_request(ChildDomain& child, SimTime now) {
    if (child.pool
            .request_block(params_.block_size, now, params_.block_lifetime)
            .has_value()) {
      requests_served_->inc();
      return;
    }
    // Expansion loop: the pool proposes moves, the hierarchy executes
    // them, until the block fits or the policy is out of moves.
    for (int attempt = 0; attempt < 4; ++attempt) {
      TopDomain& parent = tops_[child.parent];
      const auto spaces = active_spaces(parent.pool);
      const auto can_double_fn = [&](const Prefix& p) {
        return masc::can_double(p, spaces, parent.child_claims, now);
      };
      const auto plan =
          child.pool.plan_expansion(params_.block_size, can_double_fn);
      if (!plan || !execute_child_plan(child, *plan, now)) break;
      expansions_executed_->inc();
      // At the protocol level this claim would have waited out one §4.1
      // waiting period before the block could be handed out.
      claim_grant_latency_->observe(
          params_.claim_waiting_period.to_seconds());
      if (child.pool
              .request_block(params_.block_size, now, params_.block_lifetime)
              .has_value()) {
        requests_served_->inc();
        return;
      }
    }
    allocation_failures_->inc();
  }

  bool execute_child_plan(ChildDomain& child, const ExpansionPlan& plan,
                          SimTime now) {
    TopDomain& parent = tops_[child.parent];
    const SimTime child_expiry = now + params_.pool.prefix_lifetime;
    if (plan.kind == ExpansionPlan::Kind::kDouble) {
      const Prefix merged = *plan.target.parent();
      if (!parent.child_claims.claim(merged, child.id, net::kTimeInfinity,
                                     now)) {
        // Raced: sibling no longer free. Protocol-level equivalent: a claim
        // collision whose resolution restarts one waiting period.
        collision_resolution_latency_->observe(
            params_.claim_waiting_period.to_seconds());
        return false;
      }
      parent.pool.release_block(parent.mirror.at(plan.target));
      parent.mirror.erase(plan.target);
      const auto mirror = parent.pool.place_block_at(merged,
                                                     net::kTimeInfinity);
      if (!mirror) {
        throw std::logic_error("masc_sim: mirror doubling failed");
      }
      parent.mirror[merged] = mirror->id;
      child.pool.apply_double(plan.target, child_expiry);
      sync_child_merges(child, parent, now);
      return true;
    }
    // kNewPrefix / kRenumber: claim a fresh prefix from the parent space,
    // expanding the parent from 224/4 if its space is full. Top-up claims
    // prefer space adjacent to the child's existing prefixes so that they
    // CIDR-aggregate (§4.3.2); renumbering starts fresh.
    std::vector<Prefix> own;
    if (plan.kind == ExpansionPlan::Kind::kNewPrefix) {
      for (const masc::ClaimedPrefix& p : child.pool.prefixes()) {
        if (p.active) own.push_back(p.prefix);
      }
    }
    std::optional<Prefix> chosen;
    for (int parent_attempt = 0; parent_attempt < 3 && !chosen;
         ++parent_attempt) {
      const auto spaces = active_spaces(parent.pool);
      chosen =
          masc::choose_claim_near(own, spaces, parent.child_claims,
                                  plan.new_len, now, rng_,
                                  params_.pool.strategy);
      if (!chosen && !expand_parent(parent, plan.new_len, now)) return false;
    }
    if (!chosen) return false;
    if (!parent.child_claims.claim(*chosen, child.id, net::kTimeInfinity,
                                   now)) {
      collision_resolution_latency_->observe(
          params_.claim_waiting_period.to_seconds());
      return false;
    }
    const auto mirror =
        parent.pool.place_block_at(*chosen, net::kTimeInfinity);
    if (!mirror) throw std::logic_error("masc_sim: mirror placement failed");
    parent.mirror[*chosen] = mirror->id;
    if (plan.kind == ExpansionPlan::Kind::kRenumber) {
      child.pool.deactivate_all();
    }
    child.pool.add_prefix(*chosen, child_expiry, /*active=*/true);
    sync_child_merges(child, parent, now);
    return true;
  }

  /// Applies CIDR aggregation of the child's prefixes to the parent's
  /// claim registry and mirror blocks. A merge is allowed only while the
  /// merged range sits within one prefix the parent still holds.
  void sync_child_merges(ChildDomain& child, TopDomain& parent, SimTime now) {
    const auto mergeable = [&](const Prefix& merged) {
      for (const masc::ClaimedPrefix& p : parent.pool.prefixes()) {
        if (p.prefix.contains(merged)) return true;
      }
      return false;
    };
    for (const auto& merge : child.pool.aggregate_prefixes(mergeable)) {
      parent.child_claims.claim(merge.merged, child.id, net::kTimeInfinity,
                                now);  // folds the two halves
      for (const Prefix& half : {merge.left, merge.right}) {
        const auto it = parent.mirror.find(half);
        if (it != parent.mirror.end()) {
          parent.pool.release_block(it->second);
          parent.mirror.erase(it);
        }
      }
      const auto mirror = parent.pool.place_block_at(
          merge.merged, net::kTimeInfinity, /*require_active=*/false);
      if (!mirror) throw std::logic_error("masc_sim: mirror merge failed");
      parent.mirror[merge.merged] = mirror->id;
    }
  }

  bool expand_parent(TopDomain& parent, int child_len, SimTime now) {
    const std::uint64_t deficit = std::uint64_t{1} << (32 - child_len);
    const std::vector<Prefix> top_space{parent.claim_space};
    const auto can_double_fn = [&](const Prefix& p) {
      return masc::can_double(p, top_space, top_registry_, now);
    };
    const auto plan = parent.pool.plan_expansion(deficit, can_double_fn);
    if (!plan) return false;
    const SimTime expiry = now + params_.pool.prefix_lifetime;
    switch (plan->kind) {
      case ExpansionPlan::Kind::kDouble: {
        const Prefix merged = *plan->target.parent();
        if (!top_registry_.claim(merged, parent.id, net::kTimeInfinity,
                                 now)) {
          collision_resolution_latency_->observe(
              params_.claim_waiting_period.to_seconds());
          return false;
        }
        parent.pool.apply_double(plan->target, expiry);
        return true;
      }
      case ExpansionPlan::Kind::kRenumber:
      case ExpansionPlan::Kind::kNewPrefix: {
        std::vector<Prefix> own;
        if (plan->kind == ExpansionPlan::Kind::kNewPrefix) {
          for (const masc::ClaimedPrefix& p : parent.pool.prefixes()) {
            if (p.active) own.push_back(p.prefix);
          }
        }
        const auto chosen =
            masc::choose_claim_near(own, top_space, top_registry_,
                                    plan->new_len, now, rng_,
                                    params_.pool.strategy);
        if (!chosen ||
            !top_registry_.claim(*chosen, parent.id, net::kTimeInfinity,
                                 now)) {
          return false;
        }
        if (plan->kind == ExpansionPlan::Kind::kRenumber) {
          parent.pool.deactivate_all();
        }
        parent.pool.add_prefix(*chosen, expiry, /*active=*/true);
        for (const auto& merge : parent.pool.aggregate_prefixes()) {
          top_registry_.claim(merge.merged, parent.id, net::kTimeInfinity,
                              now);  // folds the two halves
        }
        return true;
      }
    }
    return false;
  }

  void age_all(SimTime now) {
    for (ChildDomain& child : children_) {
      TopDomain& parent = tops_[child.parent];
      for (const Prefix& released : child.pool.age(now)) {
        parent.child_claims.release(released);
        const auto mirror = parent.mirror.find(released);
        if (mirror != parent.mirror.end()) {
          parent.pool.release_block(mirror->second);
          parent.mirror.erase(mirror);
        }
      }
    }
    for (TopDomain& top : tops_) {
      for (const Prefix& released : top.pool.age(now)) {
        top_registry_.release(released);
      }
    }
  }

  void sample(SimTime now) {
    MascSimSample s;
    s.day = now.to_days();
    std::uint64_t requested = 0;
    std::uint64_t children_claimed = 0;
    for (const ChildDomain& child : children_) {
      requested += child.pool.allocated_addresses();
      children_claimed += child.pool.claimed_addresses();
    }
    s.children_claimed = children_claimed;
    std::uint64_t top_claimed = 0;
    std::size_t global_prefixes = 0;
    for (const TopDomain& top : tops_) {
      top_claimed += top.pool.claimed_addresses();
      global_prefixes += top.pool.prefixes().size();
    }
    s.requested_addresses = requested;
    s.top_level_claimed = top_claimed;
    s.utilization = top_claimed == 0
                        ? 0.0
                        : static_cast<double>(requested) /
                              static_cast<double>(top_claimed);
    // G-RIB sizes per the paper's definition: a top-level domain sees the
    // globally advertised prefixes plus its own children's prefixes; a
    // child sees the global prefixes plus its siblings' prefixes.
    double grib_sum = 0.0;
    std::size_t grib_max = 0;
    std::size_t total_child_prefixes = 0;
    for (const TopDomain& top : tops_) {
      const std::size_t grib = global_prefixes + top.child_claims.size();
      grib_sum += static_cast<double>(grib);
      grib_max = std::max(grib_max, grib);
      total_child_prefixes += top.child_claims.size();
    }
    for (const ChildDomain& child : children_) {
      const TopDomain& parent = tops_[child.parent];
      const std::size_t own = child.pool.prefixes().size();
      const std::size_t grib =
          global_prefixes + parent.child_claims.size() - own;
      grib_sum += static_cast<double>(grib);
      grib_max = std::max(grib_max, grib);
    }
    const double domain_count =
        static_cast<double>(tops_.size() + children_.size());
    s.grib_average = grib_sum / domain_count;
    s.grib_max = grib_max;
    s.total_prefixes = global_prefixes + total_child_prefixes;
    // The same series, as registry gauges — the final snapshot reports the
    // last sample's values.
    metrics_.gauge("masc.pool_utilization").set(s.utilization);
    metrics_.gauge("masc.pool_claimed_addresses")
        .set(static_cast<double>(s.top_level_claimed));
    metrics_.gauge("masc.pool_allocated_addresses")
        .set(static_cast<double>(s.requested_addresses));
    metrics_.gauge("masc.grib_average").set(s.grib_average);
    metrics_.gauge("masc.grib_max").set(static_cast<double>(s.grib_max));
    metrics_.gauge("masc.total_prefixes")
        .set(static_cast<double>(s.total_prefixes));
    result_.samples.push_back(s);
  }

  MascSimParams params_;
  net::Rng rng_;
  obs::Metrics metrics_;
  obs::Counter* requests_served_;
  obs::Counter* allocation_failures_;
  obs::Counter* expansions_executed_;
  obs::Histogram* claim_grant_latency_;
  obs::Histogram* collision_resolution_latency_;
  std::vector<TopDomain> tops_;
  std::vector<ChildDomain> children_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  ClaimRegistry top_registry_;
  MascSimResult result_;
};

}  // namespace

MascSimSample MascSimResult::steady_state(double from_day) const {
  MascSimSample out;
  std::size_t n = 0;
  for (const MascSimSample& s : samples) {
    if (s.day < from_day) continue;
    out.day = s.day;
    out.utilization += s.utilization;
    out.grib_average += s.grib_average;
    out.grib_max = std::max(out.grib_max, s.grib_max);
    out.requested_addresses += s.requested_addresses;
    out.top_level_claimed += s.top_level_claimed;
    out.children_claimed += s.children_claimed;
    out.total_prefixes += s.total_prefixes;
    ++n;
  }
  if (n == 0) throw std::invalid_argument("steady_state: no samples");
  out.utilization /= static_cast<double>(n);
  out.grib_average /= static_cast<double>(n);
  out.requested_addresses /= n;
  out.top_level_claimed /= n;
  out.children_claimed /= n;
  out.total_prefixes /= n;
  return out;
}

MascSimResult run_masc_sim(const MascSimParams& params) {
  if (params.top_level_domains == 0 || params.children_per_top == 0) {
    throw std::invalid_argument("run_masc_sim: empty hierarchy");
  }
  Simulation sim(params);
  return sim.run();
}

}  // namespace eval
