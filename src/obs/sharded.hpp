// Dimensioned ("sharded") instruments: per-domain attribution for metrics
// that would otherwise aggregate an entire simulated internet into one
// number.
//
// At the 10k-domain rung a scalar `bgp.updates_sent` cannot say *which*
// backbone domain is hot. `Sharded` answers exactly: one dense array per
// instrument, indexed by domain id (key 0 = unattributed) and grown to the
// largest key seen. Every domain in these scenarios sends and receives, so
// the array is mostly non-zero, and at 8 B per domain it costs 80 KiB at
// the 10,240-domain rung.
//
//  - Counters add() per event (BGP UPDATEs sent, deliveries, tree-edge
//    load).
//  - Gauges clear() and then set() every domain on each snapshot refresh
//    (state bytes, members per domain).
//
// Snapshots copy the whole array, so merging two snapshots adds every key
// exactly and a merged top list is the true top list. Exports list the
// kShardedTop largest keys, value descending then key ascending, so equal
// runs produce byte-identical snapshots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace obs {

/// Length of the exported top list (JSON).
inline constexpr std::size_t kShardedTop = 16;

/// Exact per-key instrument over a dense array indexed by key.
class Sharded {
 public:
  /// Keys at or above this throw std::length_error instead of allocating.
  static constexpr std::uint64_t kKeyLimit = std::uint64_t{1} << 20;

  void add(std::uint64_t key, std::uint64_t n = 1) { slot(key) += n; }
  void clear() { values_.clear(); }
  void set(std::uint64_t key, std::uint64_t value) { slot(key) = value; }

  /// Per-key values indexed by key; keys past the end are 0.
  [[nodiscard]] const std::vector<std::uint64_t>& values() const {
    return values_;
  }

 private:
  std::uint64_t& slot(std::uint64_t key) {
    if (key >= values_.size()) grow(key);
    return values_[key];
  }
  void grow(std::uint64_t key);

  std::vector<std::uint64_t> values_;
};

/// One exported per-key item of a sharded instrument.
struct ShardedItem {
  std::uint64_t key = 0;    ///< domain / AS id; 0 = unattributed
  std::uint64_t value = 0;  ///< count (counters) or sampled value (gauges)
};

/// One exported sharded instrument (mirrors Sample for scalar ones).
struct ShardedSample {
  std::string name;
  std::vector<std::uint64_t> values;  ///< indexed by key, as the instrument

  [[nodiscard]] std::uint64_t value(std::uint64_t key) const {
    return key < values.size() ? values[key] : 0;
  }
  /// Sum over every key.
  [[nodiscard]] std::uint64_t total() const;
  /// The kShardedTop largest non-zero keys, value descending then key
  /// ascending.
  [[nodiscard]] std::vector<ShardedItem> top() const;
  /// Adds `other`'s per-key values (the sweep engine's cross-cell merge).
  void merge(const ShardedSample& other);
};

}  // namespace obs
