/**
 * @file
 * Bit-slicing correctness: the analog datapath's defining invariant
 * is that slice-wise computation with shift-and-add recombination is
 * *exactly* the full-precision integer arithmetic. These tests prove
 * it at every level: cell, value, dot product, crossbar.
 */

#include <gtest/gtest.h>

#include "common/fixed_point.hh"
#include "common/random.hh"
#include "rram/crossbar.hh"

namespace graphr
{
namespace
{

/** Slice-wise dot product computed the way the hardware does. */
std::uint64_t
slicewiseDot(const std::vector<FixedPoint::Raw> &x,
             const std::vector<FixedPoint::Raw> &w)
{
    std::uint64_t acc = 0;
    for (int in_s = 0; in_s < kSlicesPerValue; ++in_s) {
        std::array<std::uint64_t, kSlicesPerValue> partials{};
        for (int w_s = 0; w_s < kSlicesPerValue; ++w_s) {
            std::uint64_t bitline = 0;
            for (std::size_t i = 0; i < x.size(); ++i) {
                const std::uint64_t in_nib =
                    (x[i] >> (in_s * kCellBits)) & 0xF;
                const std::uint64_t w_nib =
                    (w[i] >> (w_s * kCellBits)) & 0xF;
                bitline += in_nib * w_nib;
            }
            partials[static_cast<std::size_t>(w_s)] = bitline;
        }
        acc += FixedPoint::shiftAdd(partials) << (in_s * kCellBits);
    }
    return acc;
}

TEST(SlicingTest, SliceDotEqualsIntegerDot)
{
    Rng rng(201);
    for (int trial = 0; trial < 300; ++trial) {
        const std::size_t n = 1 + rng.below(16);
        std::vector<FixedPoint::Raw> x(n);
        std::vector<FixedPoint::Raw> w(n);
        std::uint64_t expect = 0;
        for (std::size_t i = 0; i < n; ++i) {
            x[i] = static_cast<FixedPoint::Raw>(rng.below(65536));
            w[i] = static_cast<FixedPoint::Raw>(rng.below(65536));
            expect += static_cast<std::uint64_t>(x[i]) * w[i];
        }
        EXPECT_EQ(slicewiseDot(x, w), expect) << "trial " << trial;
    }
}

TEST(SlicingTest, CrossbarAgreesWithSlicewiseReference)
{
    DeviceParams params;
    const std::uint32_t dim = 8;
    Crossbar cb(dim, params);
    Rng rng(202);

    std::vector<std::vector<FixedPoint::Raw>> w(
        dim, std::vector<FixedPoint::Raw>(dim));
    for (std::uint32_t r = 0; r < dim; ++r) {
        for (std::uint32_t c = 0; c < dim; ++c) {
            w[r][c] = static_cast<FixedPoint::Raw>(rng.below(65536));
            cb.programValue(r, c, FixedPoint::fromRaw(w[r][c], 0));
        }
    }
    std::vector<FixedPoint::Raw> x(dim);
    for (auto &v : x)
        v = static_cast<FixedPoint::Raw>(rng.below(65536));

    const auto y = cb.mvmRaw(x);
    for (std::uint32_t c = 0; c < dim; ++c) {
        std::vector<FixedPoint::Raw> column(dim);
        for (std::uint32_t r = 0; r < dim; ++r)
            column[r] = w[r][c];
        EXPECT_EQ(y[c], slicewiseDot(x, column)) << "column " << c;
    }
}

TEST(SlicingTest, MaxOperandsDoNotOverflow)
{
    // Worst case: 64 rows of 0xFFFF * 0xFFFF — the largest sum one
    // column of the widest allowed crossbar holds — must fit the
    // 64-bit accumulator with room to spare, in every column.
    const std::uint64_t worst =
        64ull * 0xFFFFull * 0xFFFFull;
    EXPECT_LT(worst, std::uint64_t{1} << 45);
    DeviceParams params;
    Crossbar cb(64, params);
    for (std::uint32_t r = 0; r < 64; ++r)
        for (std::uint32_t c = 0; c < 64; ++c)
            cb.programValue(r, c, FixedPoint::fromRaw(0xFFFF, 0));
    const auto y =
        cb.mvmRaw(std::vector<FixedPoint::Raw>(64, 0xFFFF));
    for (std::uint32_t c = 0; c < 64; ++c)
        EXPECT_EQ(y[c], worst) << "column " << c;
}

TEST(SlicingTest, QuantizedProductErrorBounded)
{
    // |x*w - Q(x)*Q(w)| <= (|x| + |w| + step) * step for frac bits f.
    Rng rng(203);
    const int f = 10;
    for (int trial = 0; trial < 200; ++trial) {
        const double x = rng.uniform() * 8.0;
        const double w = rng.uniform() * 4.0;
        const double qx = FixedPoint::quantize(x, f).toDouble();
        const double qw = FixedPoint::quantize(w, f).toDouble();
        const double bound =
            (x + w + quantStep(f)) * quantStep(f) * 0.51;
        EXPECT_NEAR(qx * qw, x * w, bound + 1e-12) << "trial " << trial;
    }
}

TEST(SlicingTest, FracBitsComposeUnderMultiplication)
{
    // raw(x, fx) * raw(w, fw) interpreted at fx+fw frac bits equals
    // the real product up to quantisation.
    const FixedPoint x = FixedPoint::quantize(1.5, 8);
    const FixedPoint w = FixedPoint::quantize(2.25, 8);
    const double product =
        static_cast<double>(x.raw()) * w.raw() /
        static_cast<double>(1u << 16);
    EXPECT_NEAR(product, 1.5 * 2.25, 0.01);
}

} // namespace
} // namespace graphr
