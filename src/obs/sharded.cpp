#include "obs/sharded.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace obs {

void Sharded::grow(std::uint64_t key) {
  if (key >= kKeyLimit) {
    throw std::length_error("obs::Sharded: key " + std::to_string(key) +
                            " is past the dense key limit");
  }
  values_.resize(key + 1);
}

std::uint64_t ShardedSample::total() const {
  return std::accumulate(values.begin(), values.end(), std::uint64_t{0});
}

std::vector<ShardedItem> ShardedSample::top() const {
  std::vector<ShardedItem> items;
  for (std::uint64_t key = 0; key < values.size(); ++key) {
    if (values[key] != 0) items.push_back(ShardedItem{key, values[key]});
  }
  // Hottest first, ties broken by key so equal runs export identical bytes.
  const auto order = [](const ShardedItem& a, const ShardedItem& b) {
    return a.value != b.value ? a.value > b.value : a.key < b.key;
  };
  const std::size_t n = std::min(items.size(), kShardedTop);
  std::partial_sort(items.begin(), items.begin() + n, items.end(), order);
  items.resize(n);
  return items;
}

void ShardedSample::merge(const ShardedSample& other) {
  if (values.size() < other.values.size()) values.resize(other.values.size());
  for (std::size_t key = 0; key < other.values.size(); ++key) {
    values[key] += other.values[key];
  }
}

}  // namespace obs
