#include <memory>
#include <vector>

#include "check/invariant.hpp"

namespace check {

CheckerSuite CheckerSuite::standard() {
  CheckerSuite suite;
  suite.add(std::make_unique<MascOverlapInvariant>());
  suite.add(std::make_unique<MascLifetimeInvariant>());
  suite.add(std::make_unique<MascContainmentInvariant>());
  suite.add(std::make_unique<BgpDecisionInvariant>());
  suite.add(std::make_unique<BgpNextHopLiveInvariant>());
  suite.add(std::make_unique<BgpAdjRibOutInvariant>());
  suite.add(std::make_unique<BgmpBidirectionalInvariant>());
  suite.add(std::make_unique<BgmpAcyclicInvariant>());
  suite.add(std::make_unique<BgmpGribAgreementInvariant>());
  return suite;
}

std::vector<Violation> CheckerSuite::run(core::Internet& net,
                                         bool quiescent) {
  std::vector<Violation> violations;
  for (const std::unique_ptr<Invariant>& invariant : invariants_) {
    if (invariant->quiescent_only() && !quiescent) continue;
    invariant->check(net, violations);
  }
  return violations;
}

}  // namespace check
