/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**) used for
 * workload data initialization.  Every workload seeds its own instance so
 * runs are bit-reproducible regardless of execution order.
 */

#ifndef ADORE_SUPPORT_RNG_HH
#define ADORE_SUPPORT_RNG_HH

#include <cstdint>

namespace adore
{

class Rng
{
  public:
    explicit Rng(std::uint64_t seed) { reseed(seed); }

    void
    reseed(std::uint64_t seed)
    {
        // splitmix64 expansion of the seed into the state vector.
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    std::uint64_t
    next()
    {
        std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Advance the state past @p n draws of next(). */
    void
    discard(std::uint64_t n)
    {
        for (; n > 0; --n)
            next();
    }

    /** Uniform integer in [0, bound). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return bound == 0 ? 0 : next() % bound;
    }

    /** Uniform integer in [lo, hi]. */
    std::int64_t
    range(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace adore

#endif // ADORE_SUPPORT_RNG_HH
