// A domain's multicast address pool: the prefixes MASC has acquired, the
// address blocks handed to the domain's allocation servers, lifetimes, and
// the paper's expansion policy (§4.3.3 simulation rules).
//
// The pool is mechanism-free: it never claims anything itself. When demand
// cannot be met it produces an ExpansionPlan, and the owner — the
// Figure-2 allocation simulation or the message-level MascNode — executes
// the plan through its own claiming machinery and informs the pool of the
// outcome. Both layers therefore share the identical policy.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/prefix.hpp"
#include "net/time.hpp"
#include "masc/types.hpp"

namespace masc {

/// An address block leased to the domain's MAAS.
struct Block {
  std::uint64_t id;
  net::Prefix range;
  net::SimTime expires;
};

/// What the pool asks its owner to do when demand outgrows the space.
struct ExpansionPlan {
  enum class Kind {
    kDouble,     ///< claim the sibling of `target`, merging into its parent
    kNewPrefix,  ///< claim a fresh prefix of length `new_len`
    kRenumber,   ///< claim prefix of `new_len`; existing prefixes go inactive
  };
  Kind kind;
  net::Prefix target;  ///< for kDouble: the prefix to double
  int new_len = 0;     ///< for kNewPrefix / kRenumber
};

class DomainPool {
 public:
  DomainPool(DomainId domain, PoolParams params);

  [[nodiscard]] DomainId domain() const { return domain_; }
  [[nodiscard]] const PoolParams& params() const { return params_; }

  // -- prefix lifecycle (driven by the owner's claiming machinery) --------
  /// Adds a freshly claimed prefix. Throws if it overlaps a held prefix.
  void add_prefix(const net::Prefix& prefix, net::SimTime expires,
                  bool active = true);
  /// Replaces `prefix` with its parent after a successful doubling claim.
  void apply_double(const net::Prefix& prefix, net::SimTime expires);
  /// Marks every currently-active prefix inactive (renumbering, §4.3.3:
  /// "the old prefixes are made inactive and will timeout").
  void deactivate_all();
  /// Removes a prefix. Throws std::logic_error if live blocks remain in it.
  void remove_prefix(const net::Prefix& prefix);
  /// Removes a prefix AND all blocks inside it — a lost collision after a
  /// partition heal takes the allocations down with it (§4.1: "one of them
  /// will win"). Returns the destroyed blocks.
  std::vector<Block> remove_prefix_force(const net::Prefix& prefix);
  /// Extends a held prefix's lifetime.
  void renew_prefix(const net::Prefix& prefix, net::SimTime expires);

  /// One CIDR aggregation of two held prefixes into their common parent.
  struct MergeEvent {
    net::Prefix merged;
    net::Prefix left;
    net::Prefix right;
  };
  /// Merges held sibling prefixes (matching active state) into their
  /// parents, repeatedly, keeping the injected group-route count minimal
  /// (§4.3.2). `allowed` can veto a merge (e.g. a child's merged range
  /// must stay inside one of the parent domain's held prefixes). Returns
  /// the merges performed so the owner can update claim registries and
  /// routing advertisements.
  std::vector<MergeEvent> aggregate_prefixes(
      const std::function<bool(const net::Prefix& merged)>& allowed = {});

  // -- block allocation ----------------------------------------------------
  /// Leases a block of `addresses` (rounded up to a power of two) for
  /// `lifetime`. Returns nullopt if no active prefix has room — ask
  /// plan_expansion() and retry after executing the plan.
  [[nodiscard]] std::optional<Block> request_block(std::uint64_t addresses,
                                                   net::SimTime now,
                                                   net::SimTime lifetime);
  /// Releases a live block early (by id). Returns false if unknown.
  bool release_block(std::uint64_t id);

  /// Places a block at an exact range (used when a parent domain mirrors a
  /// child's claim as usage of its own space, §4.1: the parent "keeps
  /// track of how much of its current space has been allocated … to its
  /// children"). Returns nullopt if the range is not inside an active
  /// prefix (any held prefix when `require_active` is false — re-placing
  /// an aggregated claim whose space has since been deactivated) or
  /// overlaps an existing block.
  [[nodiscard]] std::optional<Block> place_block_at(
      const net::Prefix& range, net::SimTime expires,
      bool require_active = true);

  // -- aging ---------------------------------------------------------------
  /// Drops expired blocks; renews still-used prefixes; returns prefixes
  /// whose lifetime lapsed with no live blocks — the owner must release
  /// those claims (and withdraw their group routes).
  [[nodiscard]] std::vector<net::Prefix> age(net::SimTime now);

  // -- expansion policy ----------------------------------------------------
  /// Decides the next expansion move for an unmet request of
  /// `deficit_addresses`, per the configured policy. `can_double_fn`
  /// reports whether a given held prefix's sibling is claimable. Returns
  /// nullopt when the policy has no move (e.g. kDoubleOnly with no
  /// doublable prefix).
  [[nodiscard]] std::optional<ExpansionPlan> plan_expansion(
      std::uint64_t deficit_addresses, net::SimTime now,
      const std::function<bool(const net::Prefix&)>& can_double_fn) const;

  // -- metrics -------------------------------------------------------------
  [[nodiscard]] std::uint64_t claimed_addresses() const;
  [[nodiscard]] std::uint64_t allocated_addresses() const;
  [[nodiscard]] double utilization() const;
  [[nodiscard]] const std::vector<ClaimedPrefix>& prefixes() const {
    return prefixes_;
  }
  [[nodiscard]] std::size_t live_block_count() const { return blocks_.size(); }

 private:
  [[nodiscard]] bool overlaps_block(const net::Prefix& range) const;
  [[nodiscard]] std::optional<net::Prefix> place_block(
      std::uint64_t addresses) const;

  DomainId domain_;
  PoolParams params_;
  std::vector<ClaimedPrefix> prefixes_;
  std::vector<Block> blocks_;  // disjoint ranges
  std::uint64_t next_block_id_ = 1;
};

}  // namespace masc
