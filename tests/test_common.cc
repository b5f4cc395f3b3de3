/**
 * @file
 * Unit tests for src/common: RNG, fixed point, tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/fixed_point.hh"
#include "common/random.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace graphr
{
namespace
{

TEST(TypesTest, UnitConversions)
{
    EXPECT_DOUBLE_EQ(toSeconds(1'000'000'000'000ull), 1.0);
    EXPECT_DOUBLE_EQ(toJoules(1'000'000'000'000'000ull), 1.0);
    EXPECT_EQ(nsToPs(1.0), 1000u);
    EXPECT_EQ(nsToPs(29.31), 29310u);
    EXPECT_EQ(pjToFj(1.08), 1080u);
}

TEST(RngTest, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowRespectsBound)
{
    Rng rng(13);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.below(17);
        EXPECT_LT(v, 17u);
        seen.insert(v);
    }
    // All 17 residues should appear in 1000 draws.
    EXPECT_EQ(seen.size(), 17u);
}

TEST(RngTest, NormalMoments)
{
    Rng rng(17);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(2.0, 3.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.05);
    EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(FixedPointTest, QuantizeRoundTrip)
{
    const FixedPoint fp = FixedPoint::quantize(0.5, 12);
    EXPECT_NEAR(fp.toDouble(), 0.5, quantStep(12));
    EXPECT_EQ(fp.raw(), 2048u);
}

TEST(FixedPointTest, QuantizeZeroAndSaturation)
{
    EXPECT_EQ(FixedPoint::quantize(0.0, 12).raw(), 0u);
    // 16.0 saturates at 12 fractional bits (max ~15.9998).
    EXPECT_EQ(FixedPoint::quantize(1e9, 12).raw(), 65535u);
}

TEST(FixedPointTest, IntegerModeIsExact)
{
    for (int v : {0, 1, 7, 255, 65535}) {
        const FixedPoint fp =
            FixedPoint::quantize(static_cast<double>(v), 0);
        EXPECT_DOUBLE_EQ(fp.toDouble(), static_cast<double>(v));
    }
}

TEST(FixedPointTest, SlicesRecomposeRaw)
{
    const FixedPoint fp = FixedPoint::fromRaw(0xBEEF, 0);
    EXPECT_EQ(fp.slice(0), 0xF);
    EXPECT_EQ(fp.slice(1), 0xE);
    EXPECT_EQ(fp.slice(2), 0xE);
    EXPECT_EQ(fp.slice(3), 0xB);
    FixedPoint::Raw raw = 0;
    for (int s = kSlicesPerValue - 1; s >= 0; --s)
        raw = static_cast<FixedPoint::Raw>((raw << 4) | fp.slice(s));
    EXPECT_EQ(raw, 0xBEEF);
}

TEST(FixedPointTest, ShiftAddMatchesDirectProduct)
{
    // sum over slices of (partial << 4*i) must equal the value when
    // partials are the value's own slices.
    Rng rng(23);
    for (int trial = 0; trial < 200; ++trial) {
        const auto raw =
            static_cast<FixedPoint::Raw>(rng.below(65536));
        const FixedPoint fp = FixedPoint::fromRaw(raw, 0);
        std::array<std::uint64_t, kSlicesPerValue> partials{};
        for (int s = 0; s < kSlicesPerValue; ++s)
            partials[static_cast<std::size_t>(s)] = fp.slice(s);
        EXPECT_EQ(FixedPoint::shiftAdd(partials), raw);
    }
}

TEST(TableTest, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
}

TEST(TableTest, RendersAlignedColumns)
{
    TextTable t;
    t.header({"a", "bbbb"});
    t.row({"xx", "y"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("xx"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

} // namespace
} // namespace graphr
