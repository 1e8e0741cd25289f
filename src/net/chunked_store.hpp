// Stable-address growable element store.
//
// std::vector reallocation moves elements and invalidates every pointer and
// reference into it. ChunkedStore grows by whole chunks behind a fixed
// top-level directory, so an element's address never changes for the
// store's lifetime and elements are never moved or copied.
//
// Serial code relies on this wherever a reference into a pool stays live
// across a call that may append to the same pool:
//   * bgp::CandidateArena — RibEntry::best() pointers are handed to
//     for_each_best callbacks, which can allocate candidates in the arena;
//   * bgp::RouteTable / bgp::PathTable — RouteRef::get() and
//     PathRef::data() return references into the entry pools, held while
//     callers intern further routes and paths.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>

namespace net {

template <typename T, std::size_t ChunkSize = 4096,
          std::size_t MaxChunks = 8192>
class ChunkedStore {
 public:
  ChunkedStore() : chunks_(new std::unique_ptr<T[]>[MaxChunks]) {}

  ChunkedStore(const ChunkedStore&) = delete;
  ChunkedStore& operator=(const ChunkedStore&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Elements the allocated chunks can hold — the memory footprint is
  /// capacity() * sizeof(T) plus the fixed directory.
  [[nodiscard]] std::size_t capacity() const {
    return (size_ + ChunkSize - 1) / ChunkSize * ChunkSize;
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    return chunks_[i / ChunkSize][i % ChunkSize];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i / ChunkSize][i % ChunkSize];
  }

  /// Appends a default-constructed element, returning its index. Elements
  /// are default-constructed chunk-at-a-time; growth never touches
  /// existing chunks.
  std::size_t emplace_back() {
    const std::size_t chunk = size_ / ChunkSize;
    if (size_ % ChunkSize == 0) {
      if (chunk >= MaxChunks) {
        throw std::length_error("ChunkedStore: directory exhausted");
      }
      chunks_[chunk] = std::make_unique<T[]>(ChunkSize);
    }
    return size_++;
  }

 private:
  std::unique_ptr<std::unique_ptr<T[]>[]> chunks_;
  std::size_t size_ = 0;
};

}  // namespace net
