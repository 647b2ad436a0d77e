/**
 * @file
 * Deterministic pseudo-random number generator (xoshiro256**) used for
 * workload data initialization.  Every workload seeds its own instance so
 * runs are bit-reproducible regardless of execution order.
 */

#ifndef ADORE_SUPPORT_RNG_HH
#define ADORE_SUPPORT_RNG_HH

#include <array>
#include <cstdint>

namespace adore
{

/**
 * GF(2) polynomial arithmetic behind Rng::discard.  The xoshiro256
 * state transition T is linear over GF(2), so T^n equals q(T) for
 * q = x^n mod P, P the characteristic polynomial of T (Haramoto et
 * al., "Efficient Jump Ahead for F2-Linear Random Number Generators",
 * 2008).  A polynomial of degree below 256 is four words: bit i of
 * word w is the coefficient of x^(64w + i).
 */
namespace rng_poly
{

using Poly = std::array<std::uint64_t, 4>;

/**
 * P without its leading x^256 term.  Berlekamp-Massey over 512 bits of
 * one state bit gives it; Rng.CharacteristicPolynomialRederives does.
 */
inline constexpr Poly kCharPoly = {
    0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL,
    0x04b4edcf26259f85ULL, 0x0003c03c3f3ecb19ULL};

/** a * b mod P. */
constexpr Poly
mulMod(const Poly &a, Poly b)
{
    Poly r{};
    for (int i = 0; i < 256; ++i) {
        if ((a[i / 64] >> (i % 64)) & 1) {
            for (int w = 0; w < 4; ++w)
                r[w] ^= b[w];
        }
        // b *= x, folding x^256 back in as P's lower terms.
        std::uint64_t carry = b[3] >> 63;
        for (int w = 3; w > 0; --w)
            b[w] = (b[w] << 1) | (b[w - 1] >> 63);
        b[0] <<= 1;
        if (carry) {
            for (int w = 0; w < 4; ++w)
                b[w] ^= kCharPoly[w];
        }
    }
    return r;
}

/**
 * Entry k is x^(2^k) mod P: the jump past 2^k draws.  rng.cc squares
 * it out of P at compile time (constinit), in that one translation
 * unit because the evaluation costs the compiler about a second.
 */
extern const std::array<Poly, 64> kJumpPowers;

} // namespace rng_poly

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
        step();
        return result;
    }

    /**
     * Advance the state past @p n draws of next().  The low 8 bits of
     * @p n are stepped; each higher set bit k applies x^(2^k) mod P at
     * 256 steps, so a 64 KiB page of 8-byte draws costs 256 steps, not
     * 8192.
     */
    void
    discard(std::uint64_t n)
    {
        for (std::uint64_t i = n & 0xff; i > 0; --i)
            step();
        n >>= 8;
        for (int k = 8; n != 0; ++k, n >>= 1) {
            if (n & 1)
                jump(rng_poly::kJumpPowers[k]);
        }
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

    /** The linear state transition T that every draw applies. */
    void
    step()
    {
        std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
    }

    /**
     * Replace the state s with q(T) s, the sum of T^i s over q's set
     * coefficients i: Blackman and Vigna's jump() loop for any q.
     */
    void
    jump(const rng_poly::Poly &q)
    {
        // Four named accumulators, not an array: with an array GCC 12
        // left the state in memory and the jump ran 6x slower.
        std::uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
        for (std::uint64_t word : q) {
            for (int b = 0; b < 64; ++b, word >>= 1) {
                if (word & 1) {
                    a0 ^= state_[0];
                    a1 ^= state_[1];
                    a2 ^= state_[2];
                    a3 ^= state_[3];
                }
                step();
            }
        }
        state_[0] = a0;
        state_[1] = a1;
        state_[2] = a2;
        state_[3] = a3;
    }

    std::uint64_t state_[4];
};

} // namespace adore

#endif // ADORE_SUPPORT_RNG_HH
