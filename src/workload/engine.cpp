#include "workload/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace workload {

namespace {

constexpr double kPi = 3.14159265358979323846;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001B3ull;
}

/// The domain at `slot` of a window starting at `offset` over the
/// `eligible` domains other than `root`.
std::uint32_t window_domain(std::uint32_t offset, std::uint32_t root,
                            std::uint32_t eligible, std::uint32_t slot) {
  // offset < eligible and slot < span <= eligible: one wrap at most.
  std::uint32_t e = offset + slot;
  if (e >= eligible) e -= eligible;
  return e < root ? e : e + 1;  // skip the group's root domain
}

}  // namespace

Engine::Engine(const Spec& spec, std::uint32_t domain_count,
               std::vector<std::uint32_t> roots, std::uint64_t seed)
    : spec_(spec),
      domain_count_(domain_count),
      roots_(std::move(roots)),
      churn_rng_(churn_seed(seed)) {
  if (domain_count_ < 2) {
    throw std::invalid_argument("workload: need at least 2 domains");
  }
  if (roots_.size() != static_cast<std::size_t>(spec_.groups)) {
    throw std::invalid_argument("workload: roots.size() != spec.groups");
  }
  const auto groups = static_cast<std::uint32_t>(roots_.size());

  // Zipf weights, spans, window offsets, per-tick packet budgets. The
  // offset is a multiplicative hash of the rank — deterministic without
  // consuming the churn stream, so adding knobs never shifts the draws.
  weights_.resize(groups);
  spans_.resize(groups);
  offsets_.resize(groups);
  packets_per_tick_.resize(groups);
  double weight_sum = 0.0;
  for (std::uint32_t g = 0; g < groups; ++g) {
    weights_[g] = std::pow(static_cast<double>(g) + 1.0, -spec_.zipf_alpha);
    weight_sum += weights_[g];
  }
  const std::uint32_t eligible = domain_count_ - 1;  // all but the root
  for (std::uint32_t g = 0; g < groups; ++g) {
    weights_[g] /= weight_sum;
    const double raw =
        static_cast<double>(spec_.span_base) *
        std::pow(static_cast<double>(g) + 1.0, -spec_.span_alpha);
    spans_[g] = static_cast<std::uint32_t>(std::clamp<double>(
        std::llround(raw), 1.0, static_cast<double>(eligible)));
    offsets_[g] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(g) * 2654435761ull) % eligible);
    packets_per_tick_[g] = static_cast<std::uint64_t>(std::max<std::int64_t>(
        1, std::llround(spec_.packets_per_second * spec_.tick_seconds)));
  }

  // Flash crowds from a dedicated stream: biasing the group draw by u²
  // points bursts at popular ranks (the flash regime BIER-Star's LEO
  // scenarios motivate) while still occasionally hitting the tail.
  net::Mt64 flash_rng(seed * 0xA24BAED4963EE407ull + 5);
  const std::int64_t horizon = spec_.ticks();
  const auto duration_ticks = std::max<std::int64_t>(
      1, std::llround(spec_.flash_duration_seconds / spec_.tick_seconds));
  for (int i = 0; i < spec_.flash_crowds && horizon > 0; ++i) {
    const double u = u01(flash_rng);
    FlashCrowd f;
    f.group = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        groups - 1,
        static_cast<std::uint64_t>(u * u * static_cast<double>(groups))));
    f.start_tick = static_cast<std::int64_t>(
        draw_index(flash_rng, static_cast<std::uint64_t>(horizon)));
    f.duration_ticks = duration_ticks;
    flashes_.push_back(f);
  }
  std::sort(flashes_.begin(), flashes_.end(),
            [](const FlashCrowd& a, const FlashCrowd& b) {
              if (a.start_tick != b.start_tick)
                return a.start_tick < b.start_tick;
              return a.group < b.group;
            });

  cell_base_.resize(groups + 1, 0);
  block_base_.resize(groups + 1, 0);
  for (std::uint32_t g = 0; g < groups; ++g) {
    cell_base_[g + 1] = cell_base_[g] + spans_[g];
    block_base_[g + 1] =
        block_base_[g] + (spans_[g] + kBlockSlots - 1) / kBlockSlots;
  }
  counts_.assign(cell_base_[groups], 0);
  block_counts_.assign(block_base_[groups], 0);
  hops_.assign(cell_base_[groups], 0);
  group_total_.assign(groups, 0);
  domain_members_.assign(domain_count_, 0);
  load_rate_.assign(domain_count_, 0);
  load_acc_.assign(domain_count_, 0);
  load_flushed_at_.assign(domain_count_, 0);
}

double Engine::diurnal_factor(std::int64_t tick) const {
  const double t = static_cast<double>(tick) * spec_.tick_seconds;
  return 1.0 + spec_.diurnal_amplitude * std::sin(2.0 * kPi * t / 86400.0);
}

double Engine::flash_factor(std::uint32_t g, std::int64_t tick) const {
  double factor = 1.0;
  for (const FlashCrowd& f : flashes_) {
    if (f.start_tick > tick) break;  // sorted by start
    if (f.group == g && tick < f.start_tick + f.duration_ticks) {
      factor *= spec_.flash_multiplier;
    }
  }
  return factor;
}

std::uint32_t Engine::slot_domain(std::uint32_t g, std::uint32_t slot) const {
  return window_domain(offsets_[g], roots_[g], domain_count_ - 1, slot);
}

std::uint32_t Engine::find_member_slot(const std::uint32_t* blocks,
                                       const std::uint32_t* cells,
                                       std::uint64_t k) {
  std::uint32_t slot = 0;
  for (; k >= *blocks; ++blocks) {
    k -= *blocks;
    slot += kBlockSlots;
  }
  for (; k >= cells[slot]; ++slot) k -= cells[slot];
  return slot;
}

void Engine::flush_domain(std::uint32_t d) {
  const std::int64_t dt = ticks_done_ - load_flushed_at_[d];
  if (dt > 0) {
    load_acc_[d] += load_rate_[d] * static_cast<std::uint64_t>(dt);
  }
  load_flushed_at_[d] = ticks_done_;
}

void Engine::cell_up(std::uint32_t g, std::uint32_t slot, std::uint32_t d) {
  ++ups_;
  ++active_cells_;
  const std::uint32_t hops = hops_fn_ ? hops_fn_(g, d) : 0;
  hops_[cell_base_[g] + slot] = hops;
  if (hops != 0) {
    flush_domain(d);
    load_rate_[d] += packets_per_tick_[g] * hops;
  }
  if (observer_) observer_({ticks_done_, g, d, true});
}

void Engine::cell_down(std::uint32_t g, std::uint32_t slot, std::uint32_t d) {
  ++downs_;
  --active_cells_;
  // The hops cached at join time are subtracted — not re-queried — so
  // the rate returns to exactly what this cell added even if the
  // topology changed underneath (chaos partitions).
  const std::uint32_t hops = hops_[cell_base_[g] + slot];
  if (hops != 0) {
    flush_domain(d);
    load_rate_[d] -= packets_per_tick_[g] * hops;
  }
  if (observer_) observer_({ticks_done_, g, d, false});
}

TickStats Engine::tick() {
  TickStats stats;
  if (ticks_done_ >= spec_.ticks()) return stats;
  const std::uint64_t ups_before = ups_;
  const std::uint64_t downs_before = downs_;
  const auto groups = static_cast<std::uint32_t>(roots_.size());
  const double diurnal = diurnal_factor(ticks_done_);
  // The groups of this tick's active flashes, sorted: walked beside the
  // rank loop, they give flash_factor's product for every group at once.
  std::vector<std::uint32_t> flashing;
  for (const FlashCrowd& f : flashes_) {
    if (f.start_tick > ticks_done_) break;  // sorted by start
    if (f.start_tick == ticks_done_) ++stats.flashes_started;
    if (ticks_done_ < f.start_tick + f.duration_ticks) {
      flashing.push_back(f.group);
    }
  }
  std::sort(flashing.begin(), flashing.end());
  auto next_flash = flashing.begin();
  const std::uint32_t eligible = domain_count_ - 1;
  // Rank order, joins before leaves within a group: the one canonical
  // draw sequence both the engine and the oracle consume. A group's cells,
  // blocks and window stay in locals, and its totals are written back
  // once per loop: joins only raise them and leaves only lower them, so
  // the peak and the active-group count come out as per-member updates
  // would leave them. The transition handlers read none of them.
  for (std::uint32_t g = 0; g < groups; ++g) {
    double flash = 1.0;
    for (; next_flash != flashing.end() && *next_flash == g; ++next_flash) {
      flash *= spec_.flash_multiplier;
    }
    const double join_rate = spec_.arrivals_per_second * weights_[g] *
                             diurnal * flash * spec_.tick_seconds;
    const std::uint64_t n_join =
        sample_poisson(churn_rng_, join_rate, poisson_scratch_);
    std::uint64_t total = group_total_[g];
    // Nothing to place and nobody to leave: a leave rate of 0 draws nothing.
    if (n_join == 0 && total == 0) continue;
    std::uint32_t* const cells = counts_.data() + cell_base_[g];
    std::uint32_t* const blocks = block_counts_.data() + block_base_[g];
    const std::uint32_t offset = offsets_[g];
    const std::uint32_t root = roots_[g];
    const std::uint32_t span = spans_[g];
    for (std::uint64_t j = 0; j < n_join; ++j) {
      const auto slot =
          static_cast<std::uint32_t>(draw_index(churn_rng_, span));
      const std::uint32_t d = window_domain(offset, root, eligible, slot);
      ++blocks[slot / kBlockSlots];
      ++domain_members_[d];
      if (cells[slot]++ == 0) [[unlikely]] cell_up(g, slot, d);
    }
    // From here on the group has members (the skip above saw to that).
    if (total == 0) ++active_groups_;
    total += n_join;
    members_total_ += n_join;
    members_peak_ = std::max(members_peak_, members_total_);
    joins_total_ += n_join;
    stats.joins += n_join;
    const double leave_rate = static_cast<double>(total) *
                              spec_.tick_seconds /
                              spec_.mean_lifetime_seconds;
    const std::uint64_t n_leave = std::min<std::uint64_t>(
        total, sample_poisson(churn_rng_, leave_rate, poisson_scratch_));
    for (std::uint64_t j = 0; j < n_leave; ++j) {
      const std::uint64_t k = draw_index(churn_rng_, total);
      const std::uint32_t slot = find_member_slot(blocks, cells, k);
      const std::uint32_t d = window_domain(offset, root, eligible, slot);
      --total;
      --blocks[slot / kBlockSlots];
      --domain_members_[d];
      if (--cells[slot] == 0) [[unlikely]] cell_down(g, slot, d);
    }
    if (total == 0) --active_groups_;
    members_total_ -= n_leave;
    leaves_total_ += n_leave;
    stats.leaves += n_leave;
    group_total_[g] = total;
  }
  ++ticks_done_;
  stats.up_transitions = ups_ - ups_before;
  stats.down_transitions = downs_ - downs_before;
  return stats;
}

std::uint64_t Engine::digest() const {
  std::uint64_t h = 0xCBF29CE484222325ull;
  fnv_mix(h, members_total_);
  fnv_mix(h, joins_total_);
  fnv_mix(h, leaves_total_);
  fnv_mix(h, ups_);
  fnv_mix(h, downs_);
  fnv_mix(h, active_cells_);
  fnv_mix(h, active_groups_);
  fnv_mix(h, static_cast<std::uint64_t>(ticks_done_));
  for (const std::uint64_t m : domain_members_) fnv_mix(h, m);
  for (const std::uint64_t t : group_total_) fnv_mix(h, t);
  return h;
}

void Engine::drain_loads(
    const std::function<void(std::uint32_t, std::uint64_t)>& visit) {
  for (std::uint32_t d = 0; d < domain_count_; ++d) {
    flush_domain(d);
    if (load_acc_[d] != 0) {
      visit(d, load_acc_[d]);
      load_acc_[d] = 0;
    }
  }
}

}  // namespace workload
