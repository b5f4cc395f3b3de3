/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in the repository (graph generators, cell
 * variation models) draws from this xoshiro256** generator so runs are
 * exactly reproducible for a given seed, independent of the standard
 * library implementation.
 */

#ifndef GRAPHR_COMMON_RANDOM_HH
#define GRAPHR_COMMON_RANDOM_HH

#include <array>
#include <cstdint>

namespace graphr
{

/**
 * xoshiro256** 1.0 by Blackman & Vigna (public domain reference
 * algorithm), seeded via SplitMix64.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; any value (including 0) is valid. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            // SplitMix64 step.
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
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

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, bound). Bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Rejection-free Lemire-style mapping is overkill here; modulo
        // bias is negligible for bounds far below 2^64.
        return next() % bound;
    }

    /** Approximate standard normal via sum of 12 uniforms (Irwin-Hall). */
    double
    normal(double mean = 0.0, double stddev = 1.0)
    {
        double s = 0.0;
        for (int i = 0; i < 12; ++i)
            s += uniform();
        return mean + stddev * (s - 6.0);
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

} // namespace graphr

#endif // GRAPHR_COMMON_RANDOM_HH
