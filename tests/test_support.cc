/**
 * @file
 * Unit tests for the support library: statistics accumulators, window
 * stats with outlier rejection, time series, tables, and the RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "support/rng.hh"
#include "support/stats.hh"
#include "support/table.hh"

namespace adore
{
namespace
{

TEST(RunningStat, MeanAndStddev)
{
    RunningStat rs;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        rs.add(v);
    EXPECT_EQ(rs.count(), 8u);
    EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
    EXPECT_DOUBLE_EQ(rs.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(rs.cv(), 0.4);
}

TEST(RunningStat, SingleValueHasZeroVariance)
{
    RunningStat rs;
    rs.add(42.0);
    EXPECT_DOUBLE_EQ(rs.mean(), 42.0);
    EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(RunningStat, ResetClears)
{
    RunningStat rs;
    rs.add(1.0);
    rs.add(2.0);
    rs.reset();
    EXPECT_EQ(rs.count(), 0u);
    EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
}

TEST(WindowStats, EmptyInput)
{
    WindowStats ws = WindowStats::compute({});
    EXPECT_DOUBLE_EQ(ws.mean, 0.0);
    EXPECT_DOUBLE_EQ(ws.stddev, 0.0);
}

TEST(WindowStats, OutlierRejectionRemovesNoise)
{
    // A tight cluster plus one wild outlier: with rejection the mean
    // should sit near the cluster.
    std::vector<double> values(32, 100.0);
    values[7] = 101.0;
    values[12] = 99.0;
    values.push_back(100000.0);
    WindowStats with = WindowStats::compute(values, true);
    WindowStats without = WindowStats::compute(values, false);
    EXPECT_LT(with.mean, 110.0);
    EXPECT_GT(without.mean, 1000.0);
}

TEST(TimeSeries, DownsampleAverages)
{
    TimeSeries ts;
    for (int i = 0; i < 100; ++i)
        ts.add(static_cast<std::uint64_t>(i) * 10,
               static_cast<double>(i));
    TimeSeries down = ts.downsample(10);
    EXPECT_LE(down.size(), 10u);
    // First bucket: mean of 0..9 = 4.5.
    EXPECT_NEAR(down.points().front().value, 4.5, 1e-9);
}

TEST(TimeSeries, DownsampleNoopWhenSmall)
{
    TimeSeries ts;
    ts.add(0, 1.0);
    ts.add(1, 2.0);
    EXPECT_EQ(ts.downsample(10).size(), 2u);
}

TEST(CeilDiv, Basics)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(5, 0), 0u);
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo = saw_lo || v == -3;
        saw_hi = saw_hi || v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DiscardMatchesStepping)
{
    // The oracle steps next() one draw at a time, up to each n in
    // ascending order, and compares with a fresh generator jumped there.
    std::vector<std::uint64_t> small = {
        0,    1,    2,     254,   255,   256,   257,   511,
        512,  513,  8191,  8192,  8193,  16383, 16384, 16385,
        (std::uint64_t{1} << 20) + 3};
    Rng pick(2024);
    for (int i = 0; i < 200; ++i)
        small.push_back(pick.below(std::uint64_t{1} << 24));
    std::sort(small.begin(), small.end());

    for (std::uint64_t seed : {1ULL, 42ULL, 0x9e3779b97f4a7c15ULL}) {
        std::vector<std::uint64_t> ns = small;
        // Bits 24..32 of n: stepped once, for one seed (~3 s at -O2).
        if (seed == 1)
            ns.push_back((std::uint64_t{1} << 32) + 1);
        Rng stepped(seed);
        std::uint64_t at = 0;
        for (std::uint64_t n : ns) {
            for (; at < n; ++at)
                stepped.next();
            Rng jumped(seed), oracle = stepped;
            jumped.discard(n);
            for (int i = 0; i < 4; ++i)
                ASSERT_EQ(jumped.next(), oracle.next())
                    << "n=" << n << " seed=" << seed;
        }
    }
}

/** The inverse of odd @p a modulo 2^64 (Newton's iteration). */
std::uint64_t
inverseMod64(std::uint64_t a)
{
    std::uint64_t x = a;  // correct to 3 bits; each step doubles that
    for (int i = 0; i < 5; ++i)
        x *= 2 - a * x;
    return x;
}

TEST(Rng, CharacteristicPolynomialRederives)
{
    // next() returns rotl(s1 * 5, 7) * 9 of state word s1, a bijection,
    // so every draw reveals s1, and bit 0 of s1 is a linear function of
    // the state.  Berlekamp-Massey over 512 such bits finds the
    // shortest recurrence C(x) they satisfy; P is its reciprocal.
    const std::uint64_t inv9 = inverseMod64(9), inv5 = inverseMod64(5);
    Rng rng(7);
    std::vector<int> bits(512);
    for (int &bit : bits) {
        std::uint64_t v = rng.next() * inv9;
        bit = static_cast<int>(((v >> 7) | (v << 57)) * inv5 & 1);
    }

    const int n_bits = static_cast<int>(bits.size());
    std::vector<int> c(n_bits + 1, 0), b(n_bits + 1, 0);
    c[0] = b[0] = 1;
    int len = 0, gap = 1;
    for (int n = 0; n < n_bits; ++n) {
        int d = bits[n];
        for (int i = 1; i <= len; ++i)
            d ^= c[i] & bits[n - i];
        if (d == 0) {
            ++gap;
            continue;
        }
        std::vector<int> prev = c;
        for (int i = 0; i + gap <= n_bits; ++i)
            c[i + gap] ^= b[i];
        if (2 * len <= n) {
            len = n + 1 - len;
            b = prev;
            gap = 1;
        } else {
            ++gap;
        }
    }
    ASSERT_EQ(len, 256);

    rng_poly::Poly p{};
    for (int i = 0; i < 256; ++i)
        p[i / 64] |= static_cast<std::uint64_t>(c[256 - i]) << (i % 64);
    EXPECT_EQ(p, rng_poly::kCharPoly);
}

TEST(Rng, JumpPowersReachPublishedJump)
{
    // Squaring x^(2^63) 65 more times gives x^(2^128) mod P, the
    // polynomial Blackman and Vigna's xoshiro256 jump() applies.
    rng_poly::Poly q = rng_poly::kJumpPowers[63];
    for (int k = 64; k <= 128; ++k)
        q = rng_poly::mulMod(q, q);
    rng_poly::Poly published = {
        0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
        0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    EXPECT_EQ(q, published);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "2"});
    std::string out = t.render();
    EXPECT_NE(out.find("| name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::fmt(1.2345, 2), "1.23");
    EXPECT_EQ(Table::pct(0.123, 1), "12.3%");
}

TEST(BarChart, RendersNegativeAndPositive)
{
    BarChart chart("speedup", "%");
    chart.addBar("win", 0.5);
    chart.addBar("loss", -0.1);
    std::string out = chart.render(20);
    EXPECT_NE(out.find('#'), std::string::npos);
    EXPECT_NE(out.find('<'), std::string::npos);
}

TEST(LineChart, RendersSeries)
{
    LineChart chart("cpi", "CPI");
    chart.addSeries("base", {1, 2, 3, 4, 3, 2, 1});
    chart.addSeries("opt", {1, 1, 1, 1, 1, 1, 1});
    std::string out = chart.render(6);
    EXPECT_NE(out.find('*'), std::string::npos);
    EXPECT_NE(out.find('o'), std::string::npos);
}

} // namespace
} // namespace adore
