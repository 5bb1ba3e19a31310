#include "common/rng.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

namespace whisper {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::next_range(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full 64-bit range
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::next_bool(double p) { return next_double() < p; }

double Rng::next_exponential(double rate) {
  double u = 1.0 - next_double();
  if (u <= 1e-300) u = 1e-300;
  return -std::log(u) / rate;
}

void Rng::fill_bytes(std::uint8_t* out, std::size_t n) {
  while (n >= 8) {
    std::uint64_t v = next_u64();
    std::memcpy(out, &v, 8);
    out += 8;
    n -= 8;
  }
  if (n > 0) {
    std::uint64_t v = next_u64();
    std::memcpy(out, &v, n);
  }
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace whisper
