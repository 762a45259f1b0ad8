// rumor/rng: deterministic, splittable pseudo-random number generation.
//
// Every stochastic process in this library (synchronous rounds, Poisson-clock
// steps, coupled auxiliary processes, Monte-Carlo trials) draws its randomness
// through this module. Design goals:
//
//   * Reproducibility: a (seed, stream) pair fully determines a trial,
//     independent of thread scheduling.
//   * Statistical quality: Xoshiro256++ passes BigCrush; SplitMix64 is used
//     only for seeding / stream derivation, as its author recommends.
//   * Speed: uniform-neighbor selection is the inner loop of every protocol
//     engine, so bounded uniforms use Lemire's multiply-shift rejection method
//     rather than modulo.
//
// No <random> engines are used: libstdc++'s distributions are not
// cross-version reproducible, and reproducibility is the first design goal
// above.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>

namespace rumor::rng {

/// SplitMix64: a tiny 64-bit generator with a simple additive state update.
///
/// Used exclusively for (a) expanding a user seed into the 256-bit state of
/// Xoshiro256++ and (b) deriving independent per-trial streams (see
/// `derive_stream`). Reference: Steele, Lea, Flood, "Fast Splittable
/// Pseudorandom Number Generators", OOPSLA 2014.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Advances the state and returns the next 64-bit output.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  constexpr std::uint64_t operator()() noexcept { return next(); }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256++ 1.0 (Blackman & Vigna, 2019): the workhorse engine.
///
/// 256 bits of state, period 2^256 - 1, passes BigCrush. Parallel streams
/// come from `derive_stream` (one derived stream per trial), not from the
/// reference implementation's jump polynomials.
class Xoshiro256pp {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state by pumping SplitMix64, per Vigna's guidance.
  constexpr explicit Xoshiro256pp(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  /// Constructs from a full 256-bit state (must not be all-zero).
  constexpr explicit Xoshiro256pp(const std::array<std::uint64_t, 4>& state) noexcept
      : state_(state) {}

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  constexpr std::uint64_t operator()() noexcept { return next(); }

  [[nodiscard]] constexpr const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// The engine type used throughout the library.
using Engine = Xoshiro256pp;

/// Derives the `stream`-th independent engine from a root seed.
///
/// Implementation: hash (seed, stream) through SplitMix64 with distinct
/// tweaks, then expand to full engine state. Streams with distinct indices
/// are computationally independent — the Monte-Carlo harness assigns stream
/// = trial index so results do not depend on how trials land on threads.
[[nodiscard]] constexpr Engine derive_stream(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Mix the stream index into the seed with a distinct odd constant so that
  // (seed, 0) differs from (seed + 1, 0)'s neighborhood.
  SplitMix64 sm(seed ^ (stream * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
  std::array<std::uint64_t, 4> st{};
  for (auto& w : st) w = sm.next();
  // All-zero state is the one invalid state for xoshiro; perturb if hit.
  if ((st[0] | st[1] | st[2] | st[3]) == 0) st[0] = 0x1ULL;
  return Engine(st);
}

// ---------------------------------------------------------------------------
// Variate generation. Free functions over any engine with 64-bit output.
// ---------------------------------------------------------------------------

/// Uniform integer in [0, bound) by Lemire's multiply-shift method.
/// Precondition: bound > 0.
template <class Eng>
[[nodiscard]] std::uint64_t uniform_below(Eng& eng, std::uint64_t bound) noexcept {
  // Fast path rejects with probability < 2^-32 for bounds below 2^32 (the
  // common case: neighbor counts), so the loop almost never iterates.
  for (;;) {
    const std::uint64_t x = eng.next();
    const __uint128_t m = static_cast<__uint128_t>(x) * bound;
    const auto lo = static_cast<std::uint64_t>(m);
    if (lo >= bound) return static_cast<std::uint64_t>(m >> 64);
    // Threshold test (only reached when lo < bound, i.e. rarely).
    const std::uint64_t threshold = (0 - bound) % bound;
    if (lo >= threshold) return static_cast<std::uint64_t>(m >> 64);
  }
}

/// Uniform double in [0, 1) with 53 bits of precision.
template <class Eng>
[[nodiscard]] double uniform01(Eng& eng) noexcept {
  return static_cast<double>(eng.next() >> 11) * 0x1.0p-53;
}

/// Uniform double in (0, 1]; safe as an argument to log().
template <class Eng>
[[nodiscard]] double uniform01_open_low(Eng& eng) noexcept {
  return (static_cast<double>(eng.next() >> 11) + 1.0) * 0x1.0p-53;
}

/// Bernoulli(p) trial.
template <class Eng>
[[nodiscard]] bool bernoulli(Eng& eng, double p) noexcept {
  return uniform01(eng) < p;
}

/// Exponential(rate) variate by inversion. Precondition: rate > 0.
///
/// This is the primitive behind every Poisson clock in the asynchronous
/// engine and behind the coupling variables Y_{v,w} ~ Exp(2/deg(v)) of
/// Lemmas 9/10.
template <class Eng>
[[nodiscard]] double exponential(Eng& eng, double rate) noexcept {
  return -std::log(uniform01_open_low(eng)) / rate;
}

/// Geometric(p) on {1, 2, ...}: number of Bernoulli(p) trials up to and
/// including the first success. Sampled by inversion in O(1).
template <class Eng>
[[nodiscard]] std::uint64_t geometric(Eng& eng, double p) noexcept {
  if (p >= 1.0) return 1;
  // ceil(log(U) / log(1-p)) with U ~ Unif(0,1]
  const double u = uniform01_open_low(eng);
  const double g = std::ceil(std::log(u) / std::log1p(-p));
  return g < 1.0 ? 1 : static_cast<std::uint64_t>(g);
}

/// Fisher-Yates shuffle of a span, using the library engine.
template <class Eng, class T>
void shuffle(Eng& eng, std::span<T> items) noexcept {
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(uniform_below(eng, i));
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

}  // namespace rumor::rng
