// Deterministic random number generation.
//
// All randomness in a simulation flows from a single seeded root Rng; child
// streams are forked so that adding a consumer does not perturb the draws of
// unrelated components. This is what makes whole-deployment runs reproducible.
#pragma once

#include <cstdint>
#include <vector>

namespace whisper {

/// Deterministic PRNG (xoshiro256** core) with convenience draws.
/// Not cryptographically secure on its own; crypto key material is derived
/// through SHA-256-based extraction in crypto/random.hpp.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform 64-bit draw.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli draw with probability p of returning true.
  bool next_bool(double p);

  /// Exponential draw with the given rate (mean 1/rate).
  double next_exponential(double rate);

  /// Fill a buffer with uniform bytes.
  void fill_bytes(std::uint8_t* out, std::size_t n);

  /// Fork an independent child stream. Deterministic: the k-th fork of a
  /// given Rng state is always the same stream.
  Rng fork();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random element index; container must be non-empty.
  template <typename C>
  std::size_t pick_index(const C& c) {
    return static_cast<std::size_t>(next_below(c.size()));
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace whisper
