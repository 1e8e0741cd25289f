// Seeded random number generation.
//
// Every stochastic element of the simulations draws from an explicitly
// seeded engine so that a run is reproducible from its printed seeds.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/time.hpp"

namespace net {

/// MT19937-64 (Matsumoto and Nishimura, 2000): the same stream as the
/// standard library's mt19937_64 for every seed, and a
/// UniformRandomBitGenerator, so the standard distributions draw from it
/// exactly as they draw from the library engine. The refill picks the
/// twist constant with a mask; the library's `(y & 1) ? a : 0` compiles
/// to a branch on a random bit that mispredicts half the time.
class Mt64 {
 public:
  using result_type = std::uint64_t;

  explicit Mt64(result_type seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      const result_type prev = state_[i - 1];
      state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kN) refill();
    result_type y = state_[next_++];
    y ^= (y >> 29) & 0x5555555555555555ull;
    y ^= (y << 17) & 0x71D67FFFEDA60000ull;
    y ^= (y << 37) & 0xFFF7EEE000000000ull;
    return y ^ (y >> 43);
  }

  bool operator==(const Mt64&) const = default;

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kUpper = ~result_type{0} << 31;

  /// The twisted successor of `hi`, whose neighbour is `lo`, from `mid`,
  /// the word kM slots ahead.
  static result_type twist(result_type hi, result_type lo, result_type mid) {
    const result_type y = (hi & kUpper) | (lo & ~kUpper);
    return mid ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ull);
  }

  void refill() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kM]);
    }
    for (; k < kN - 1; ++k) {
      state_[k] = twist(state_[k], state_[k + 1], state_[k + kM - kN]);
    }
    state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
    next_ = 0;
  }

  std::array<result_type, kN> state_{};
  std::size_t next_ = kN;
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi) {
    return std::uniform_real_distribution<double>{lo, hi}(engine_);
  }

  /// Uniform index in [0, n).
  [[nodiscard]] std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: empty range");
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> items) {
    return items[index(items.size())];
  }
  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& items) {
    return items[index(items.size())];
  }

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double p) {
    return std::bernoulli_distribution{p}(engine_);
  }

  /// Uniform duration in [lo, hi].
  [[nodiscard]] SimTime uniform_time(SimTime lo, SimTime hi) {
    return SimTime::nanoseconds(uniform_int(lo.ns(), hi.ns()));
  }

  /// Derives an independent child generator (for splitting streams between
  /// e.g. topology construction and workload arrivals).
  [[nodiscard]] Rng split() { return Rng{engine_()}; }

 private:
  Mt64 engine_;
};

}  // namespace net
