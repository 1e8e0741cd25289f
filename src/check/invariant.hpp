// Cross-protocol invariant checkers: executable statements of the paper's
// correctness claims, walked over live simulation state.
//
// Each Invariant inspects a core::Internet and reports violations — never
// mutating anything. The claims covered, with their paper sections:
//
//  * MASC (§4.1): after the waiting period no two domains hold overlapping
//    ranges unless one is the other's allocation ancestor; every held range
//    has an unexpired lifetime; a child's ranges sit inside its parent's.
//  * BGMP (§5.2): the per-group target-list graph is bidirectional (A lists
//    B as child ⇔ B's parent is A) and acyclic, and every entry's parent
//    agrees with a fresh G-RIB resolution toward the group's root domain.
//  * BGP (§2, §5): each RIB entry's stored best route is maximal under the
//    decision process recomputed over its candidates, no candidate was
//    learned over a session that is currently down, and at quiescence what
//    each speaker last announced over a session is exactly what the other
//    side holds from it.
//
// Always-on invariants hold at any instant, even mid-convergence; the
// quiescent-only ones describe converged state (tree symmetry needs joins
// to have landed) and are meaningful only once the network is quiet. The
// chaos harness (eval::ChaosRunner) sweeps the always-on set during churn
// and the full suite after its final heal-and-settle.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace core {
class Internet;
}

namespace check {

/// One invariant breach: which invariant, on what entity, and why.
struct Violation {
  std::string invariant;
  std::string subject;
  std::string detail;
};

class Invariant {
 public:
  virtual ~Invariant() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Quiescent-only invariants legitimately fail while joins, repairs or
  /// withdrawals are still in flight; sweeps run mid-churn must skip them.
  [[nodiscard]] virtual bool quiescent_only() const { return false; }

  /// Appends a Violation to `out` for every breach found. Read-only walk.
  virtual void check(core::Internet& net, std::vector<Violation>& out) = 0;
};

// ------------------------------------------------------------------- MASC

/// §4.1: the claim–collide exchange (waiting period + collision
/// resolution) must leave committed sibling allocations disjoint. Any
/// overlap between the held ranges of two domains where neither is the
/// other's allocation ancestor is a violation. Note: the guarantee assumes
/// partitions shorter than the waiting period; a perturbation schedule
/// must respect that (the paper's own operating assumption).
class MascOverlapInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "masc-overlap";
  }
  void check(core::Internet& net, std::vector<Violation>& out) override;
};

/// §4.3.1: addresses are a lease, not a grant in perpetuity. After aging
/// has run at the current time, no held prefix may have a lapsed lifetime.
class MascLifetimeInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "masc-lifetime";
  }
  void check(core::Internet& net, std::vector<Violation>& out) override;
};

/// §4.1: children claim sub-ranges of their parent's space, so every held
/// range of a child domain must be contained in one of its parent's held
/// ranges.
class MascContainmentInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "masc-containment";
  }
  void check(core::Internet& net, std::vector<Violation>& out) override;
};

// ------------------------------------------------------------------- BGMP

/// §5.2: the shared tree is bidirectional — if router A holds router B as
/// an external child for group G, then B's (*,G) parent must be A; if A's
/// parent is external peer B, then B must hold A as a child.
class BgmpBidirectionalInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "bgmp-bidirectional";
  }
  [[nodiscard]] bool quiescent_only() const override { return true; }
  void check(core::Internet& net, std::vector<Violation>& out) override;
};

/// §5.2: following parent targets (external peer, or internal relay) for
/// any group must terminate — a cycle is a forwarding loop on the shared
/// tree.
class BgmpAcyclicInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "bgmp-acyclic";
  }
  [[nodiscard]] bool quiescent_only() const override { return true; }
  void check(core::Internet& net, std::vector<Violation>& out) override;
};

/// §5.2: forwarding state lies on the shared tree toward the G-RIB root —
/// every (*,G) entry's parent must equal what a fresh G-RIB lookup
/// resolves (external next hop, internal relay, or self-rooted), and an
/// entry may be parentless only when no route toward a root exists.
class BgmpGribAgreementInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "bgmp-grib-agreement";
  }
  [[nodiscard]] bool quiescent_only() const override { return true; }
  void check(core::Internet& net, std::vector<Violation>& out) override;
};

// -------------------------------------------------------------------- BGP

/// The decision process is a total order: every RIB entry's stored best
/// route must be maximal under bgp::better() recomputed over the entry's
/// candidate set (and an entry with candidates must have a selection).
class BgpDecisionInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "bgp-decision";
  }
  void check(core::Internet& net, std::vector<Violation>& out) override;
};

/// Session teardown flushes the Adj-RIB-In: no RIB candidate (in any view,
/// the G-RIB included) may name a peering whose transport session is down.
class BgpNextHopLiveInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "bgp-next-hop-live";
  }
  void check(core::Internet& net, std::vector<Violation>& out) override;
};

/// Once updates have landed, both ends of a session agree on what crossed
/// it. For every session from speaker a to speaker b and every view: on an
/// up session each Adj-RIB-Out cell a holds for b matches b's candidate via
/// a in prefix, AS path and origin (LOCAL_PREF is b's own), and every
/// candidate b holds via a has such a cell; a down session has no cells.
class BgpAdjRibOutInvariant final : public Invariant {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "bgp-adj-rib-out";
  }
  [[nodiscard]] bool quiescent_only() const override { return true; }
  void check(core::Internet& net, std::vector<Violation>& out) override;
};

// ------------------------------------------------------------------ suite

class CheckerSuite {
 public:
  /// Every checker above, always-on and quiescent-only.
  [[nodiscard]] static CheckerSuite standard();

  void add(std::unique_ptr<Invariant> invariant) {
    invariants_.push_back(std::move(invariant));
  }

  /// Runs the always-on checkers; with `quiescent` also the
  /// quiescent-only ones. Returns every violation found.
  [[nodiscard]] std::vector<Violation> run(core::Internet& net,
                                           bool quiescent);

  [[nodiscard]] std::size_t size() const { return invariants_.size(); }

 private:
  std::vector<std::unique_ptr<Invariant>> invariants_;
};

}  // namespace check
