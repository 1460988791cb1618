// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in this repository takes an explicit Rng (or a
// child split from one) so that experiments are exactly reproducible from a
// single 64-bit seed. The generator is xoshiro256**, seeded through
// SplitMix64; both are public-domain algorithms by Blackman & Vigna.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace adam2::rng {

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
/// Used for seeding and for cheap stateless hashing of seed material.
[[nodiscard]] constexpr std::uint64_t split_mix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator with helpers for the distributions the simulator
/// needs. Satisfies std::uniform_random_bit_generator, so it can also be used
/// with <random> distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator from a single 64-bit value via SplitMix64.
  explicit Rng(std::uint64_t seed = 0xada002ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = split_mix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit output.
  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent child generator. Children with distinct tags (or
  /// from successive calls) have decorrelated streams; used to hand one
  /// stream per node / per subsystem.
  [[nodiscard]] Rng split(std::uint64_t tag = 0) noexcept {
    std::uint64_t material = (*this)() ^ (tag * 0x9e3779b97f4a7c15ULL);
    return Rng{split_mix64(material)};
  }

  /// Full generator state, exposed so checkpoints (host::snapshot) can
  /// persist and resume a stream mid-sequence. The cached Marsaglia normal
  /// is part of the state: without it a restored generator would replay the
  /// next normal() draw differently from the uninterrupted stream.
  struct State {
    std::array<std::uint64_t, 4> words{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };

  [[nodiscard]] State state() const noexcept {
    // A consumed cache leaves a stale value behind; report the canonical
    // zero instead so two states that behave identically compare (and
    // serialise) identically.
    return State{state_, has_cached_normal_ ? cached_normal_ : 0.0,
                 has_cached_normal_};
  }

  void set_state(const State& state) noexcept {
    state_ = state.words;
    cached_normal_ = state.cached_normal;
    has_cached_normal_ = state.has_cached_normal;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased). Inline: the overlay's
  /// shuffle draws it in its innermost loop.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    assert(bound > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {  // Rare: reject the biased low products.
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Log-normal: exp(N(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Samples an index in [0, weights.size()) proportionally to the weights.
  /// Weights must be non-negative and not all zero.
  [[nodiscard]] std::size_t weighted_index(std::span<const double> weights) noexcept;

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[below(i)]);
    }
  }

  /// Reservoir-samples k distinct indices from [0, n). If k >= n, returns
  /// all of [0, n). Result order is unspecified.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                        std::size_t k);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace adam2::rng
