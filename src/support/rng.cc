#include "support/rng.hh"

namespace adore::rng_poly
{

namespace
{

constexpr std::array<Poly, 64>
jumpPowers()
{
    std::array<Poly, 64> powers{};
    powers[0] = {2, 0, 0, 0};
    for (int k = 1; k < 64; ++k)
        powers[k] = mulMod(powers[k - 1], powers[k - 1]);
    return powers;
}

} // namespace

constinit const std::array<Poly, 64> kJumpPowers = jumpPowers();

} // namespace adore::rng_poly
