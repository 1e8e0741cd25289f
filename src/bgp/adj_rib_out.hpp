// The Adj-RIB-Out of one speaker for one view, covering every peer.
//
// A speaker remembers, per view and per peer, the last route it announced
// to that peer. Kept as one trie per peer, every best-route change paid one
// cold trie descent per peer — the dominant cost of BGP update processing
// on backbone speakers with dozens of peers. Here one net::PrefixMap maps
// each prefix to a row of interned RouteRef cells, one per PeerIndex, held
// in a single slab with a stride of the peer count. A best-route change
// costs one probe for the row; each peer's "does the Adj-RIB-Out already
// agree?" is then a 4-byte compare inside that row.
//
// A row exists only while some cell is non-null, so a stub domain, which
// split horizon stops from re-advertising to its only provider, keeps rows
// for its own originations alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/route_table.hpp"
#include "net/prefix.hpp"
#include "net/prefix_map.hpp"

namespace bgp {

class AdjRibOut {
 public:
  /// Row handle for a prefix without a row (every cell null).
  static constexpr std::uint32_t kNoRow = UINT32_MAX;

  /// Widens every row by one cell for a new peering, whose PeerIndex is
  /// the previous column count. Existing rows are restrided: one pass over
  /// the slab, paid once per peering.
  void add_column();

  /// The row holding `prefix`'s cells, or kNoRow. Row handles stay valid
  /// until that row is erased, whatever else the table does.
  [[nodiscard]] std::uint32_t find(const net::Prefix& prefix) const {
    const std::uint32_t* row = rows_.find(prefix);
    return row == nullptr ? kNoRow : *row;
  }

  [[nodiscard]] const RouteRef& cell(std::uint32_t row, PeerIndex peer) const {
    return cells_[std::size_t{row} * width_ + peer];
  }

  /// Stores the non-null `value` in `peer`'s cell of `prefix`'s row,
  /// creating the row (and updating `row`) when it is kNoRow. Returns the
  /// cell's previous content.
  RouteRef assign(const net::Prefix& prefix, std::uint32_t& row,
                  PeerIndex peer, const RouteRef& value);

  /// Nulls `peer`'s cell of `prefix`'s row, which must be non-null, and
  /// returns its content. Erases the row and sets `row` to kNoRow when
  /// that was its last non-null cell.
  RouteRef clear(const net::Prefix& prefix, std::uint32_t& row,
                 PeerIndex peer);

  /// Nulls `peer`'s whole column, erasing the rows this empties.
  void clear_column(PeerIndex peer);

  /// Calls `fn(prefix, ref)` for every non-null cell of `peer`, in address
  /// order.
  template <typename Fn>
  void for_each_in_column(PeerIndex peer, Fn&& fn) const {
    rows_.for_each([&](const net::Prefix& prefix, std::uint32_t row) {
      const RouteRef& ref = cell(row, peer);
      if (ref.has_value()) fn(prefix, ref);
    });
  }

  /// Calls `fn(prefix, peer, ref)` for every non-null cell, row by row in
  /// address order: one walk of the table, whatever the peer count.
  template <typename Fn>
  void for_each_cell(Fn&& fn) const {
    rows_.for_each([&](const net::Prefix& prefix, std::uint32_t row) {
      for (PeerIndex peer = 0; peer < width_; ++peer) {
        const RouteRef& ref = cell(row, peer);
        if (ref.has_value()) fn(prefix, peer, ref);
      }
    });
  }

  /// Bytes held by the prefix index, the cell slab and the row
  /// bookkeeping. The interned routes are the RouteTable's.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  [[nodiscard]] RouteRef& cell_mut(std::uint32_t row, PeerIndex peer) {
    return cells_[std::size_t{row} * width_ + peer];
  }

  /// Prefix -> row index.
  net::PrefixMap<std::uint32_t> rows_;
  /// Row r's cells are cells_[r * width_, (r + 1) * width_).
  std::vector<RouteRef> cells_;
  /// Non-null cells per row slot; a free slot has 0 and all-null cells.
  std::vector<std::uint32_t> live_;
  std::vector<std::uint32_t> free_rows_;
  std::size_t width_ = 0;
};

}  // namespace bgp
