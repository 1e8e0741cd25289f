// The Figure-2 MASC simulation (§4.3.3): a hierarchy of domains claiming
// multicast address ranges, driven by the paper's workload — each child
// domain requests blocks of 256 addresses with 30-day lifetimes at
// inter-request times uniform in [1 h, 95 h] — measuring address-space
// utilization and G-RIB size over 800 days.
//
// This harness runs at the allocation level (claims are visible to
// siblings when made), exactly the granularity the paper's own simulation
// evaluates; the claim algorithm, pool bookkeeping and expansion policy
// are the very classes the message-level protocol node uses, and the test
// suite pins the two layers together on small scenarios.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "masc/claim_algorithm.hpp"
#include "masc/pool.hpp"
#include "masc/registry.hpp"
#include "net/rng.hpp"
#include "net/time.hpp"
#include "obs/metrics.hpp"

namespace eval {

struct MascSimParams {
  std::size_t top_level_domains = 50;
  std::size_t children_per_top = 50;
  net::SimTime horizon = net::SimTime::days(800);
  net::SimTime sample_interval = net::SimTime::days(1);
  /// The paper's workload: 256-address blocks, 30-day lifetime,
  /// inter-request time U(1 h, 95 h).
  std::uint64_t block_size = 256;
  net::SimTime block_lifetime = net::SimTime::days(30);
  net::SimTime min_interarrival = net::SimTime::hours(1);
  net::SimTime max_interarrival = net::SimTime::hours(95);
  /// Claim-lifetime / policy parameters shared by children and parents.
  masc::PoolParams pool;
  /// §4.1 claim waiting period, used to derive the *implied* protocol-level
  /// latency of each allocation-level claim: this harness grants claims
  /// instantly, but every executed expansion corresponds to one
  /// message-level claim that would have waited this long (and one more per
  /// collision) — recorded as masc.claim_grant_latency /
  /// masc.collision_resolution_latency histogram samples.
  net::SimTime claim_waiting_period = net::SimTime::hours(48);
  /// §4.4 start-up: the multicast space "is initially partitioned among
  /// one or more Internet exchange points (say, one per continent)"; each
  /// top-level domain claims from the partition of a nearby exchange.
  /// 0 = no partitioning (every backbone claims from all of 224/4).
  std::size_t exchanges = 0;
  std::uint64_t seed = 1;
};

/// One daily sample of the Figure-2 series.
struct MascSimSample {
  double day = 0.0;
  /// Figure 2(a): requested addresses / addresses claimed from 224/4.
  double utilization = 0.0;
  /// Figure 2(b): G-RIB size averaged / maximized over all domains.
  double grib_average = 0.0;
  std::size_t grib_max = 0;
  std::uint64_t requested_addresses = 0;
  std::uint64_t top_level_claimed = 0;
  /// Sum of the child domains' claimed ranges (diagnostic: utilization
  /// factors into requested/children_claimed x children_claimed/top).
  std::uint64_t children_claimed = 0;
  std::size_t total_prefixes = 0;
};

struct MascSimResult {
  std::vector<MascSimSample> samples;
  /// Requests that could not be satisfied even after expansion.
  int allocation_failures = 0;
  /// Block requests served.
  std::uint64_t requests_served = 0;
  /// End-of-run metrics snapshot (masc.* counters and gauges) — the
  /// machine-readable form of the summary, for bench/ reporting.
  obs::Snapshot final_metrics;
  /// End-of-run integrity: children's claims lie inside their parent's
  /// held space, parents' mirror accounting equals the children's claims,
  /// and top-level claims are mutually disjoint, each inside its top's
  /// claim space (224/4, or its exchange's partition).
  bool invariants_ok = false;

  [[nodiscard]] const MascSimSample& final_sample() const {
    return samples.back();
  }
  /// Mean over samples from `from_day` onward (steady-state statistics).
  [[nodiscard]] MascSimSample steady_state(double from_day) const;
};

[[nodiscard]] MascSimResult run_masc_sim(const MascSimParams& params);

}  // namespace eval
