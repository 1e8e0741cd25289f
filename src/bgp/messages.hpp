// BGP update messages exchanged over peering channels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/prefix.hpp"
#include "bgp/types.hpp"

namespace bgp {

/// An UPDATE carrying a batch of route deltas. A speaker coalesces all the
/// reselection fallout of one received update (or one local originate/
/// withdraw, or one session establishment) into at most one UpdateMessage
/// per peer, so propagating n prefixes costs one message, not n. (Real BGP
/// packs updates the same way: many NLRI per message.)
struct UpdateMessage final : net::Message {
  UpdateMessage() : net::Message(net::MessageKind::kBgpUpdate) {}

  /// One announcement (route set) or withdrawal (route empty) for one
  /// prefix of one view. Each delta carries its own origination stamp, so
  /// batching never smears bgp.route_convergence_latency samples: the
  /// receiver scopes each delta's origin_time individually.
  struct Delta {
    RouteType type = RouteType::kUnicast;
    net::Prefix prefix;
    std::optional<Route> route;  ///< empty = withdrawal
    /// When the routing change this delta propagates was originated
    /// (carried across re-advertisements). Negative = unset.
    net::SimTime origin_time = net::SimTime::nanoseconds(-1);
  };

  /// The deltas, contiguous. Most updates carry one route, so the first
  /// delta lives in the message itself and a one-route update is a single
  /// heap block; a second delta moves them all into `spill_`.
  class DeltaList {
   public:
    /// Sizes the spill vector for `n` deltas; a no-op for n <= 1.
    void reserve(std::size_t n) {
      if (n > 1) spill_.reserve(n);
    }
    void push_back(Delta delta) {
      if (size_ == 0) {
        one_ = std::move(delta);
      } else {
        if (size_ == 1) spill_.push_back(std::move(one_));
        spill_.push_back(std::move(delta));
      }
      ++size_;
    }
    [[nodiscard]] const Delta* begin() const {
      return size_ > 1 ? spill_.data() : &one_;
    }
    [[nodiscard]] const Delta* end() const { return begin() + size_; }

   private:
    Delta one_;
    std::vector<Delta> spill_;
    std::uint32_t size_ = 0;
  };
  DeltaList deltas;

  [[nodiscard]] std::string describe() const override;
};

}  // namespace bgp
