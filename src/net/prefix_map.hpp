// Flat open-addressing map from CIDR prefixes to values.
//
// The BGP tables (every Rib view, the Adj-RIB-Out row index) and the
// Internet's unicast address map do exact-match work on the hot path: an
// update delta touches one prefix, and a Patricia descent to it chases
// about ten dependent node loads through a trie far larger than the
// per-core cache. Here key and value sit inline in one slot array, so an
// exact match is one hash and (almost always) one cache line.
//
// - Linear probing with backward-shift deletion: no tombstones, so probe
//   runs stay short under withdraw/re-announce churn.
// - The hash is a fixed mixer of (base, length): no per-process seed and
//   no pointer hashing, so every run stays a pure function of its seed.
// - A count per prefix length (and a 33-bit mask of the lengths present)
//   lets longest_match(addr) probe only the lengths that exist, longest
//   first; erasing the last entry of a length clears its bit.
// - Walks (for_each, for_each_within) visit entries sorted by Prefix's
//   operator<=>, (base, length): ancestors before descendants, siblings in
//   address order. The RIB digest, the removal order of a session reset
//   and the resync order all depend on it.
//
// T must be default-constructible and movable, and any insert or erase
// may move values: pointers and references returned by
// find()/get_or_insert()/longest_match() are invalidated by the next
// mutation.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/prefix.hpp"

namespace net {

template <typename T>
class PrefixMap {
 public:
  /// The value at `key`, default-constructing it if absent.
  T& get_or_insert(const Prefix& key) {
    const std::uint32_t base = key.base().value();
    const int len = key.length();
    if (!slots_.empty()) {
      std::size_t i = home(base, len);
      for (; slots_[i].len != kEmpty; i = (i + 1) & mask_) {
        if (slots_[i].base == base && slots_[i].len == len) {
          return slots_[i].value;
        }
      }
      if ((size_ + 1) * 4 <= slots_.size() * 3) return claim(i, base, len);
    }
    grow();
    std::size_t i = home(base, len);
    while (slots_[i].len != kEmpty) i = (i + 1) & mask_;
    return claim(i, base, len);
  }

  /// Removes `key`. Returns true if it was present.
  bool erase(const Prefix& key) {
    const Slot* hit = probe(key.base().value(), key.length());
    if (hit == nullptr) return false;
    const int len = hit->len;
    if (--len_count_[len] == 0) len_mask_ &= ~(std::uint64_t{1} << len);
    --size_;
    // Backward shift: pull every later member of the probe run whose home
    // lies cyclically at or before the hole into it, so no lookup ever
    // crosses an empty slot it should have skipped.
    std::size_t hole = static_cast<std::size_t>(hit - slots_.data());
    for (std::size_t j = (hole + 1) & mask_; slots_[j].len != kEmpty;
         j = (j + 1) & mask_) {
      const std::size_t h = home(slots_[j].base, slots_[j].len);
      if (((j - h) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole].base = slots_[j].base;
        slots_[hole].len = slots_[j].len;
        slots_[hole].value = std::move(slots_[j].value);
        hole = j;
      }
    }
    slots_[hole].len = kEmpty;
    slots_[hole].value = T{};  // release what the value holds now
    return true;
  }

  /// Exact-match lookup.
  [[nodiscard]] const T* find(const Prefix& key) const {
    const Slot* hit = probe(key.base().value(), key.length());
    return hit == nullptr ? nullptr : &hit->value;
  }
  [[nodiscard]] T* find(const Prefix& key) {
    return const_cast<T*>(std::as_const(*this).find(key));
  }

  /// Longest stored prefix containing `addr`, with its value: one probe per
  /// length present, longest first.
  [[nodiscard]] std::optional<std::pair<Prefix, const T*>> longest_match(
      Ipv4Addr addr) const {
    for (std::uint64_t lens = len_mask_; lens != 0;) {
      const int len = 63 - std::countl_zero(lens);
      lens &= ~(std::uint64_t{1} << len);
      const std::uint32_t base =
          len == 0 ? 0 : addr.value() & (~std::uint32_t{0} << (32 - len));
      if (const Slot* hit = probe(base, len)) {
        return {{Prefix::containing(Ipv4Addr{base}, len), &hit->value}};
      }
    }
    return std::nullopt;
  }

  /// Calls `fn(prefix, value)` for every entry, in (base, length) order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    visit_sorted([](const Slot&) { return true; }, fn);
  }

  /// Calls `fn(prefix, value)` for every entry (non-strictly) inside
  /// `within`, in (base, length) order.
  template <typename Fn>
  void for_each_within(const Prefix& within, Fn&& fn) const {
    visit_sorted(
        [&](const Slot& s) {
          return s.len >= within.length() &&
                 within.contains(Ipv4Addr{s.base});
        },
        fn);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Bytes held by the slot array. Heap memory owned by the values is not
  /// counted (callers add their own value accounting).
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  // tests/prefix_map_oracle_test.cpp reads slot placement and the length
  // mask through it, to pin backward-shift deletion and the per-length
  // counts.
  friend struct PrefixMapLayout;

  static constexpr std::uint8_t kEmpty = 0xFF;
  static constexpr std::size_t kMinSlots = 8;
  /// Bits of a walk's sort key that hold the slot index (see visit_sorted).
  static constexpr int kIndexBits = 26;

  struct Slot {
    std::uint32_t base = 0;  // prefix bits, host bits zero
    std::uint8_t len = kEmpty;
    T value{};
  };

  /// The slot where (base, len)'s probe run starts: the murmur3 64-bit
  /// finalizer over the packed key.
  [[nodiscard]] std::size_t home(std::uint32_t base, int len) const {
    std::uint64_t h = (std::uint64_t{base} << 6) | static_cast<unsigned>(len);
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    h *= 0xC4CEB9FE1A85EC53ull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h) & mask_;
  }

  [[nodiscard]] const Slot* probe(std::uint32_t base, int len) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(base, len); slots_[i].len != kEmpty;
         i = (i + 1) & mask_) {
      if (slots_[i].base == base && slots_[i].len == len) return &slots_[i];
    }
    return nullptr;
  }

  T& claim(std::size_t i, std::uint32_t base, int len) {
    slots_[i].base = base;
    slots_[i].len = static_cast<std::uint8_t>(len);
    ++size_;
    if (len_count_[len]++ == 0) len_mask_ |= std::uint64_t{1} << len;
    return slots_[i].value;
  }

  /// Doubles the slot array and re-homes every entry. get_or_insert calls
  /// it before a new key would fill more than 3/4 of the slots.
  void grow() {
    if (slots_.size() >= (std::size_t{1} << kIndexBits)) {
      throw std::length_error("PrefixMap: slot array at its size limit");
    }
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(std::max(kMinSlots, old.size() * 2));
    mask_ = slots_.size() - 1;
    for (Slot& s : old) {
      if (s.len == kEmpty) continue;
      std::size_t i = home(s.base, s.len);
      while (slots_[i].len != kEmpty) i = (i + 1) & mask_;
      slots_[i].base = s.base;
      slots_[i].len = s.len;
      slots_[i].value = std::move(s.value);
    }
  }

  /// Visits the slots `keep` accepts in (base, length) order. Each sort
  /// key packs base, length and slot index into one integer, so the sort
  /// is over plain words and never touches the slot array.
  template <typename Keep, typename Fn>
  void visit_sorted(Keep&& keep, Fn& fn) const {
    std::vector<std::uint64_t> order;
    order.reserve(size_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (s.len != kEmpty && keep(s)) {
        order.push_back(std::uint64_t{s.base} << 32 |
                        std::uint64_t{s.len} << kIndexBits | i);
      }
    }
    std::sort(order.begin(), order.end());
    for (const std::uint64_t key : order) {
      const Slot& s = slots_[key & ((std::uint64_t{1} << kIndexBits) - 1)];
      fn(Prefix::containing(Ipv4Addr{s.base}, s.len), s.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
  std::array<std::uint32_t, 33> len_count_{};
  std::uint64_t len_mask_ = 0;  // bit L set while len_count_[L] > 0
};

}  // namespace net
