#include "bgp/adj_rib_out.hpp"

#include <utility>

namespace bgp {

void AdjRibOut::add_column() {
  // Row r moves from [r * width_, ...) to [r * (width_ + 1), ...); the new
  // last cell of every row starts null.
  std::vector<RouteRef> wider(live_.size() * (width_ + 1));
  for (std::size_t r = 0; r < live_.size(); ++r) {
    for (std::size_t c = 0; c < width_; ++c) {
      wider[r * (width_ + 1) + c] = std::move(cells_[r * width_ + c]);
    }
  }
  cells_ = std::move(wider);
  ++width_;
}

RouteRef AdjRibOut::assign(const net::Prefix& prefix, std::uint32_t& row,
                           PeerIndex peer, const RouteRef& value) {
  if (row == kNoRow) {
    if (!free_rows_.empty()) {
      row = free_rows_.back();
      free_rows_.pop_back();
    } else {
      row = static_cast<std::uint32_t>(live_.size());
      live_.push_back(0);
      cells_.resize(cells_.size() + width_);
    }
    rows_.get_or_insert(prefix) = row;
  }
  RouteRef& slot = cell_mut(row, peer);
  if (!slot.has_value()) ++live_[row];
  RouteRef previous = std::move(slot);
  slot = value;
  return previous;
}

RouteRef AdjRibOut::clear(const net::Prefix& prefix, std::uint32_t& row,
                          PeerIndex peer) {
  RouteRef previous = std::move(cell_mut(row, peer));
  if (--live_[row] == 0) {
    rows_.erase(prefix);
    free_rows_.push_back(row);
    row = kNoRow;
  }
  return previous;
}

void AdjRibOut::clear_column(PeerIndex peer) {
  std::vector<std::pair<net::Prefix, std::uint32_t>> emptied;
  rows_.for_each([&](const net::Prefix& prefix, std::uint32_t row) {
    RouteRef& slot = cell_mut(row, peer);
    if (!slot.has_value()) return;
    slot = RouteRef{};
    if (--live_[row] == 0) emptied.emplace_back(prefix, row);
  });
  for (const auto& [prefix, row] : emptied) {
    rows_.erase(prefix);
    free_rows_.push_back(row);
  }
}

std::size_t AdjRibOut::memory_bytes() const {
  return rows_.memory_bytes() + cells_.capacity() * sizeof(RouteRef) +
         (live_.capacity() + free_rows_.capacity()) * sizeof(std::uint32_t);
}

}  // namespace bgp
