#include <algorithm>
#include <string>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/speaker.hpp"
#include "check/invariant.hpp"
#include "core/internet.hpp"

namespace check {

namespace {

template <typename Fn>
void for_each_speaker(core::Internet& net, Fn&& fn) {
  for (std::size_t i = 0; i < net.domain_count(); ++i) {
    core::Domain& d = net.domain(i);
    for (std::size_t b = 0; b < d.border_count(); ++b) fn(d.speaker(b));
  }
}

/// `rib`'s candidate for `prefix` learned via peer `via`, or nullptr.
const bgp::Candidate* candidate_via(const bgp::Rib& rib,
                                    const net::Prefix& prefix,
                                    bgp::PeerIndex via) {
  const bgp::RibEntry* entry = rib.find(prefix);
  if (entry == nullptr) return nullptr;
  for (const bgp::Candidate& candidate : entry->candidates()) {
    if (candidate.via == via) return &candidate;
  }
  return nullptr;
}

}  // namespace

void BgpDecisionInvariant::check(core::Internet& net,
                                 std::vector<Violation>& out) {
  for_each_speaker(net, [&](bgp::Speaker& speaker) {
    for (int t = 0; t < bgp::kRouteTypeCount; ++t) {
      const auto type = static_cast<bgp::RouteType>(t);
      speaker.rib(type).for_each_entry(
          [&](const net::Prefix& prefix, const bgp::RibEntry& entry) {
            const bgp::Candidate* best = entry.best();
            if (best == nullptr) {
              if (!entry.empty()) {
                out.push_back(Violation{
                    std::string(name()),
                    speaker.name() + " " + bgp::to_string(type) + " " +
                        prefix.to_string(),
                    "entry has candidates but no selection"});
              }
              return;
            }
            for (const bgp::Candidate& candidate : entry.candidates()) {
              if (bgp::better(candidate, *best)) {
                out.push_back(Violation{
                    std::string(name()),
                    speaker.name() + " " + bgp::to_string(type) + " " +
                        prefix.to_string(),
                    "stored best route is not maximal under the decision "
                    "process (a better candidate exists)"});
                break;
              }
            }
          });
    }
  });
}

void BgpNextHopLiveInvariant::check(core::Internet& net,
                                    std::vector<Violation>& out) {
  for_each_speaker(net, [&](bgp::Speaker& speaker) {
    for (int t = 0; t < bgp::kRouteTypeCount; ++t) {
      const auto type = static_cast<bgp::RouteType>(t);
      speaker.rib(type).for_each_entry(
          [&](const net::Prefix& prefix, const bgp::RibEntry& entry) {
            for (const bgp::Candidate& candidate : entry.candidates()) {
              if (candidate.via == bgp::kLocalPeer) continue;
              if (speaker.peer_session_up(candidate.via)) continue;
              const bgp::Speaker* peer = speaker.peer_speaker(candidate.via);
              out.push_back(Violation{
                  std::string(name()),
                  speaker.name() + " " + bgp::to_string(type) + " " +
                      prefix.to_string(),
                  "candidate learned from " +
                      (peer != nullptr ? peer->name() : std::string("?")) +
                      " survives while that session is down"});
            }
          });
    }
  });
}

void BgpAdjRibOutInvariant::check(core::Internet& net,
                                  std::vector<Violation>& out) {
  std::vector<net::Prefix> announced;
  for_each_speaker(net, [&](bgp::Speaker& a) {
    for (bgp::PeerIndex i = 0; i < a.peer_count(); ++i) {
      const bgp::Speaker& b = *a.peer_speaker(i);
      const bool up = a.peer_session_up(i);
      // b's index for this same session.
      bgp::PeerIndex back = bgp::kLocalPeer;
      for (bgp::PeerIndex j = 0; j < b.peer_count(); ++j) {
        if (b.peer_channel(j) == a.peer_channel(i)) back = j;
      }
      if (back == bgp::kLocalPeer) {
        out.push_back(Violation{std::string(name()),
                                a.name() + " -> " + b.name(),
                                "the peer has no end of this session"});
        continue;
      }
      for (int t = 0; t < bgp::kRouteTypeCount; ++t) {
        const auto type = static_cast<bgp::RouteType>(t);
        const bgp::Rib& rib = b.rib(type);
        const auto subject = [&](const net::Prefix& prefix) {
          return a.name() + " -> " + b.name() + " " + bgp::to_string(type) +
                 " " + prefix.to_string();
        };
        announced.clear();
        a.for_each_advertised(
            type, i, [&](const net::Prefix& prefix, const bgp::Route& sent) {
              announced.push_back(prefix);
              if (!up) {
                out.push_back(Violation{
                    std::string(name()), subject(prefix),
                    "Adj-RIB-Out cell survives while the session is down"});
                return;
              }
              const bgp::Candidate* held = candidate_via(rib, prefix, back);
              if (held == nullptr) {
                out.push_back(Violation{
                    std::string(name()), subject(prefix),
                    "announced " + sent.describe() +
                        " but the peer holds no candidate via this session"});
              } else if (held->route.prefix != sent.prefix ||
                         held->route.as_path != sent.as_path ||
                         held->route.origin_as != sent.origin_as) {
                out.push_back(Violation{
                    std::string(name()), subject(prefix),
                    "announced " + sent.describe() + " but the peer holds " +
                        held->route.describe()});
              }
            });
        if (!up) continue;
        std::sort(announced.begin(), announced.end());
        rib.for_each_entry(
            [&](const net::Prefix& prefix, const bgp::RibEntry& entry) {
              for (const bgp::Candidate& candidate : entry.candidates()) {
                if (candidate.via != back) continue;
                if (!std::binary_search(announced.begin(), announced.end(),
                                        prefix)) {
                  out.push_back(Violation{
                      std::string(name()), subject(prefix),
                      "peer holds " + candidate.route.describe() +
                          " via this session, but no Adj-RIB-Out cell "
                          "announces it"});
                }
                break;
              }
            });
      }
    }
  });
}

}  // namespace check
