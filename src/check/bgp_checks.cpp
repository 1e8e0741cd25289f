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
  // far[i]: the peer's index for speaker s's session i (kLocalPeer: the
  // peer has no end of it). Each Adj-RIB-Out table and each RIB is walked
  // once, and the other side of every pairing is one probe.
  std::vector<bgp::PeerIndex> far;
  for_each_speaker(net, [&](bgp::Speaker& s) {
    far.assign(s.peer_count(), bgp::kLocalPeer);
    for (bgp::PeerIndex i = 0; i < s.peer_count(); ++i) {
      far[i] = s.peer_speaker(i)->find_peer(s.peer_channel(i));
      if (far[i] == bgp::kLocalPeer) {
        out.push_back(Violation{std::string(name()),
                                s.name() + " -> " + s.peer_speaker(i)->name(),
                                "the peer has no end of this session"});
      }
    }
    for (int t = 0; t < bgp::kRouteTypeCount; ++t) {
      const auto type = static_cast<bgp::RouteType>(t);
      const auto subject = [&](const bgp::Speaker& from,
                               const bgp::Speaker& to,
                               const net::Prefix& prefix) {
        return from.name() + " -> " + to.name() + " " + bgp::to_string(type) +
               " " + prefix.to_string();
      };
      // Announced => held: every cell s sent matches the candidate the
      // peer holds via this session.
      s.for_each_advertised(
          type, [&](const net::Prefix& prefix, bgp::PeerIndex i,
                    const bgp::Route& sent) {
            if (far[i] == bgp::kLocalPeer) return;
            const bgp::Speaker& b = *s.peer_speaker(i);
            if (!s.peer_session_up(i)) {
              out.push_back(Violation{
                  std::string(name()), subject(s, b, prefix),
                  "Adj-RIB-Out cell survives while the session is down"});
              return;
            }
            const bgp::Candidate* held =
                candidate_via(b.rib(type), prefix, far[i]);
            if (held == nullptr) {
              out.push_back(Violation{
                  std::string(name()), subject(s, b, prefix),
                  "announced " + sent.describe() +
                      " but the peer holds no candidate via this session"});
            } else if (held->route.as_path != sent.as_path ||
                       held->route.origin_as != sent.origin_as) {
              out.push_back(Violation{
                  std::string(name()), subject(s, b, prefix),
                  "announced " + sent.describe() + " but the peer holds " +
                      held->route.describe()});
            }
          });
      // Held => announced: every candidate s holds via a live session is
      // in the sender's Adj-RIB-Out cell for that session.
      s.rib(type).for_each_entry(
          [&](const net::Prefix& prefix, const bgp::RibEntry& entry) {
            for (const bgp::Candidate& candidate : entry.candidates()) {
              const bgp::PeerIndex via = candidate.via;
              if (via == bgp::kLocalPeer || far[via] == bgp::kLocalPeer ||
                  !s.peer_session_up(via)) {
                continue;
              }
              const bgp::Speaker& a = *s.peer_speaker(via);
              if (a.advertised(type, far[via], prefix) == nullptr) {
                out.push_back(Violation{
                    std::string(name()), subject(a, s, prefix),
                    "peer holds " + candidate.route.describe() +
                        " via this session, but no Adj-RIB-Out cell "
                        "announces it"});
              }
            }
          });
    }
  });
}

}  // namespace check
