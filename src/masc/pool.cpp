#include "masc/pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace masc {

DomainPool::DomainPool(DomainId domain, PoolParams params)
    : domain_(domain), params_(params) {
  if (params_.occupancy_target <= 0.0 || params_.occupancy_target > 1.0) {
    throw std::invalid_argument("DomainPool: bad occupancy target");
  }
  if (params_.max_prefixes < 1) {
    throw std::invalid_argument("DomainPool: need max_prefixes >= 1");
  }
}

void DomainPool::add_prefix(const net::Prefix& prefix, net::SimTime expires,
                            bool active) {
  for (const ClaimedPrefix& held : prefixes_) {
    if (held.prefix.overlaps(prefix)) {
      throw std::invalid_argument("DomainPool::add_prefix: " +
                                  prefix.to_string() + " overlaps held " +
                                  held.prefix.to_string());
    }
  }
  prefixes_.push_back(ClaimedPrefix{prefix, expires, active});
}

void DomainPool::apply_double(const net::Prefix& prefix,
                              net::SimTime expires) {
  const auto it = std::find_if(
      prefixes_.begin(), prefixes_.end(),
      [&](const ClaimedPrefix& p) { return p.prefix == prefix; });
  if (it == prefixes_.end()) {
    throw std::logic_error("DomainPool::apply_double: prefix not held");
  }
  const std::optional<net::Prefix> parent = prefix.parent();
  if (!parent) throw std::logic_error("DomainPool::apply_double: /0");
  it->prefix = *parent;
  it->expires = std::max(it->expires, expires);
}

void DomainPool::deactivate_all() {
  for (ClaimedPrefix& p : prefixes_) p.active = false;
}

void DomainPool::remove_prefix(const net::Prefix& prefix) {
  const auto it = std::find_if(
      prefixes_.begin(), prefixes_.end(),
      [&](const ClaimedPrefix& p) { return p.prefix == prefix; });
  if (it == prefixes_.end()) {
    throw std::logic_error("DomainPool::remove_prefix: prefix not held");
  }
  for (const Block& b : blocks_) {
    if (prefix.contains(b.range)) {
      throw std::logic_error("DomainPool::remove_prefix: live blocks in " +
                             prefix.to_string());
    }
  }
  prefixes_.erase(it);
}

std::vector<Block> DomainPool::remove_prefix_force(const net::Prefix& prefix) {
  std::vector<Block> destroyed;
  std::erase_if(blocks_, [&](const Block& b) {
    if (!prefix.contains(b.range)) return false;
    destroyed.push_back(b);
    return true;
  });
  remove_prefix(prefix);
  return destroyed;
}

void DomainPool::renew_prefix(const net::Prefix& prefix,
                              net::SimTime expires) {
  const auto it = std::find_if(
      prefixes_.begin(), prefixes_.end(),
      [&](const ClaimedPrefix& p) { return p.prefix == prefix; });
  if (it == prefixes_.end()) {
    throw std::logic_error("DomainPool::renew_prefix: prefix not held");
  }
  it->expires = std::max(it->expires, expires);
}

std::vector<DomainPool::MergeEvent> DomainPool::aggregate_prefixes(
    const std::function<bool(const net::Prefix& merged)>& allowed) {
  std::vector<MergeEvent> merges;
  bool merged_any = true;
  while (merged_any) {
    merged_any = false;
    for (std::size_t i = 0; i < prefixes_.size() && !merged_any; ++i) {
      for (std::size_t j = i + 1; j < prefixes_.size(); ++j) {
        if (prefixes_[i].active != prefixes_[j].active) continue;
        const auto parent =
            net::aggregate(prefixes_[i].prefix, prefixes_[j].prefix);
        if (!parent) continue;
        if (allowed && !allowed(*parent)) continue;
        MergeEvent event;
        event.merged = *parent;
        event.left = std::min(prefixes_[i].prefix, prefixes_[j].prefix);
        event.right = std::max(prefixes_[i].prefix, prefixes_[j].prefix);
        prefixes_[i].prefix = *parent;
        prefixes_[i].expires =
            std::max(prefixes_[i].expires, prefixes_[j].expires);
        prefixes_.erase(prefixes_.begin() + static_cast<std::ptrdiff_t>(j));
        merges.push_back(event);
        merged_any = true;
        break;
      }
    }
  }
  return merges;
}

bool DomainPool::overlaps_block(const net::Prefix& range) const {
  return std::any_of(blocks_.begin(), blocks_.end(),
                     [&](const Block& b) { return b.range.overlaps(range); });
}

std::optional<net::Prefix> DomainPool::place_block(
    std::uint64_t addresses) const {
  const int len = mask_length_for(addresses);
  // First-fit: scan active prefixes in address order, lowest free aligned
  // sub-range first (inner-domain packing has no collision concerns).
  std::vector<const ClaimedPrefix*> active;
  for (const ClaimedPrefix& p : prefixes_) {
    if (p.active) active.push_back(&p);
  }
  std::sort(active.begin(), active.end(),
            [](const ClaimedPrefix* a, const ClaimedPrefix* b) {
              return a->prefix < b->prefix;
            });
  for (const ClaimedPrefix* held : active) {
    if (held->prefix.length() > len) continue;  // block larger than prefix
    const std::uint64_t slots = std::uint64_t{1}
                                << (len - held->prefix.length());
    for (std::uint64_t i = 0; i < slots; ++i) {
      const net::Prefix slot = held->prefix.subprefix_at(len, i);
      if (!overlaps_block(slot)) return slot;
    }
  }
  return std::nullopt;
}

std::optional<Block> DomainPool::request_block(std::uint64_t addresses,
                                               net::SimTime now,
                                               net::SimTime lifetime) {
  if (addresses == 0) {
    throw std::invalid_argument("DomainPool::request_block: zero size");
  }
  const std::optional<net::Prefix> slot = place_block(addresses);
  if (!slot) return std::nullopt;
  Block block{next_block_id_++, *slot, now + lifetime};
  blocks_.push_back(block);
  return block;
}

std::optional<Block> DomainPool::place_block_at(const net::Prefix& range,
                                                net::SimTime expires,
                                                bool require_active) {
  const bool inside = std::any_of(
      prefixes_.begin(), prefixes_.end(), [&](const ClaimedPrefix& p) {
        return (p.active || !require_active) && p.prefix.contains(range);
      });
  if (!inside || overlaps_block(range)) return std::nullopt;
  Block block{next_block_id_++, range, expires};
  blocks_.push_back(block);
  return block;
}

bool DomainPool::release_block(std::uint64_t id) {
  const auto it = std::find_if(blocks_.begin(), blocks_.end(),
                               [&](const Block& b) { return b.id == id; });
  if (it == blocks_.end()) return false;
  blocks_.erase(it);
  return true;
}

std::vector<net::Prefix> DomainPool::age(net::SimTime now) {
  // Expired blocks free their ranges.
  std::erase_if(blocks_, [&](const Block& b) { return b.expires <= now; });
  // Prefixes: renew if still in use; surrender if lapsed and empty.
  std::vector<net::Prefix> released;
  std::erase_if(prefixes_, [&](ClaimedPrefix& held) {
    if (held.expires > now) return false;
    net::SimTime last_block_expiry;
    bool in_use = false;
    for (const Block& b : blocks_) {
      if (held.prefix.contains(b.range)) {
        in_use = true;
        last_block_expiry = std::max(last_block_expiry, b.expires);
      }
    }
    if (in_use) {
      // §4.3.1: valid "unless the request is renewed before expiration".
      // An active prefix renews fully; an inactive (renumbered-away) one
      // renews only until its remaining allocations drain — "old prefixes
      // … will timeout when the currently allocated addresses timeout".
      held.expires = held.active ? now + params_.prefix_lifetime
                                 : last_block_expiry;
      return false;
    }
    released.push_back(held.prefix);
    return true;
  });
  return released;
}

std::optional<ExpansionPlan> DomainPool::plan_expansion(
    std::uint64_t deficit_addresses, net::SimTime now,
    const std::function<bool(const net::Prefix&)>& can_double_fn) const {
  (void)now;
  if (deficit_addresses == 0) {
    throw std::invalid_argument("DomainPool::plan_expansion: zero deficit");
  }
  const std::uint64_t demand = allocated_addresses() + deficit_addresses;

  // Doubling candidates: active prefixes big enough that one doubling
  // covers the deficit, smallest first ("typically … we double the
  // smallest one").
  std::vector<net::Prefix> doublable;
  if (params_.expansion != ExpansionPolicy::kNewPrefixOnly) {
    for (const ClaimedPrefix& p : prefixes_) {
      if (p.active && p.prefix.size() >= deficit_addresses &&
          can_double_fn(p.prefix)) {
        doublable.push_back(p.prefix);
      }
    }
    std::sort(doublable.begin(), doublable.end(),
              [](const net::Prefix& a, const net::Prefix& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
  }

  // Preferred move: a doubling that keeps utilization at the target
  // ("we double an active prefix if the total demand … after doubling
  // this prefix, utilization … will be at least 75%").
  for (const net::Prefix& p : doublable) {
    const double post_util =
        static_cast<double>(demand) /
        static_cast<double>(claimed_addresses() + p.size());
    if (params_.expansion == ExpansionPolicy::kDoubleOnly ||
        post_util >= params_.occupancy_target) {
      return ExpansionPlan{ExpansionPlan::Kind::kDouble, p};
    }
  }
  if (params_.expansion == ExpansionPolicy::kDoubleOnly) {
    // Bootstrap: with no space at all there is nothing to double yet.
    if (prefixes_.empty()) {
      return ExpansionPlan{ExpansionPlan::Kind::kNewPrefix, net::Prefix{},
                           mask_length_for(deficit_addresses)};
    }
    if (!doublable.empty()) {
      return ExpansionPlan{ExpansionPlan::Kind::kDouble, doublable.front()};
    }
    return std::nullopt;
  }

  const int active_count = static_cast<int>(
      std::count_if(prefixes_.begin(), prefixes_.end(),
                    [](const ClaimedPrefix& p) { return p.active; }));
  // "Claim an additional small prefix that is just sufficient to satisfy
  // the demand." The max_prefixes goal is soft ("we attempt to keep the
  // number of prefixes per domain to no more than two"): a just-sufficient
  // claim that keeps occupancy at target beats a doubling that halves it,
  // up to a hard cap of twice the goal.
  if (active_count < 2 * params_.max_prefixes) {
    return ExpansionPlan{ExpansionPlan::Kind::kNewPrefix, net::Prefix{},
                         mask_length_for(deficit_addresses)};
  }
  // At the hard cap: a physically possible doubling beats renumbering —
  // the first-sub-prefix claim rule exists precisely to keep this
  // expansion path open (§4.3.3).
  if (!doublable.empty()) {
    return ExpansionPlan{ExpansionPlan::Kind::kDouble, doublable.front()};
  }
  // "If a domain has two or more active prefixes and none of them can be
  // expanded, a single new prefix large enough to accommodate the current
  // usage is claimed" — the power-of-two roundup already provides the
  // headroom (sizing for demand/target on top of it would compound to
  // ~2x over-provisioning).
  return ExpansionPlan{ExpansionPlan::Kind::kRenumber, net::Prefix{},
                       mask_length_for(std::max(demand, deficit_addresses))};
}

std::uint64_t DomainPool::claimed_addresses() const {
  std::uint64_t total = 0;
  for (const ClaimedPrefix& p : prefixes_) total += p.prefix.size();
  return total;
}

std::uint64_t DomainPool::allocated_addresses() const {
  std::uint64_t total = 0;
  for (const Block& b : blocks_) total += b.range.size();
  return total;
}

double DomainPool::utilization() const {
  const std::uint64_t claimed = claimed_addresses();
  if (claimed == 0) return 0.0;
  return static_cast<double>(allocated_addresses()) /
         static_cast<double>(claimed);
}

}  // namespace masc
