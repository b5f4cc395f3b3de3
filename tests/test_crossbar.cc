/**
 * @file
 * Tests for the functional ReRAM crossbar (analog MVM model).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.hh"
#include "rram/cell.hh"
#include "rram/crossbar.hh"

namespace graphr
{
namespace
{

TEST(CellTest, ProgramAndRead)
{
    Cell cell;
    EXPECT_EQ(cell.level(), 0u);
    cell.program(9);
    EXPECT_EQ(cell.level(), 9u);
}

TEST(CellTest, ConductanceMonotoneInLevel)
{
    DeviceParams params;
    Cell lo;
    Cell hi;
    lo.program(0);
    hi.program(15);
    EXPECT_LT(lo.conductance(params), hi.conductance(params));
    EXPECT_NEAR(lo.conductance(params), 1.0 / params.hrsOhm, 1e-12);
    EXPECT_NEAR(hi.conductance(params), 1.0 / params.lrsOhm, 1e-12);
}

TEST(CellTest, VariationZeroIsExact)
{
    Cell cell;
    cell.program(7);
    Rng rng(1);
    EXPECT_EQ(cell.readWithVariation(0.0, rng, 16), 7u);
}

TEST(CellTest, VariationStaysInRange)
{
    Cell cell;
    cell.program(15);
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const std::uint8_t v = cell.readWithVariation(2.0, rng, 16);
        EXPECT_LE(v, 15u);
    }
}

TEST(CrossbarTest, StoreAndReadBackRaw)
{
    DeviceParams params;
    Crossbar cb(4, params);
    cb.programValue(1, 2, FixedPoint::fromRaw(0xABCD, 0));
    EXPECT_EQ(cb.storedRaw(1, 2), 0xABCD);
    EXPECT_EQ(cb.storedRaw(0, 0), 0u);
}

TEST(CrossbarTest, ClearZeroesEverything)
{
    DeviceParams params;
    Crossbar cb(4, params);
    cb.programValue(3, 3, FixedPoint::fromRaw(0xFFFF, 0));
    cb.clear();
    EXPECT_EQ(cb.storedRaw(3, 3), 0u);
    EXPECT_EQ(cb.occupiedRows(), 0u);
}

TEST(CrossbarTest, MvmMatchesDigitalDotProduct)
{
    // Widths from one column to the 64-column limit (odd,
    // power-of-two and off-by-one sizes), with every row occupied and
    // with a quarter of them; zeros sit inside occupied rows and among
    // the inputs too.
    DeviceParams params;
    Rng rng(42);
    for (const std::uint32_t dim :
         {1u, 2u, 3u, 5u, 8u, 13u, 16u, 31u, 32u, 33u, 48u, 63u,
          64u}) {
        for (const bool sparse : {false, true}) {
            const std::uint32_t occupied =
                sparse ? std::max(1u, dim / 4) : dim;
            Crossbar cb(dim, params);
            std::vector<std::vector<std::uint64_t>> w(
                dim, std::vector<std::uint64_t>(dim, 0));
            for (std::uint32_t i = 0; i < occupied; ++i) {
                const std::uint32_t r = i * dim / occupied;
                for (std::uint32_t c = 0; c < dim; ++c) {
                    w[r][c] = rng.below(4) == 0 ? 0 : rng.below(65536);
                    cb.programValue(
                        r, c,
                        FixedPoint::fromRaw(
                            static_cast<FixedPoint::Raw>(w[r][c]), 0));
                }
            }
            std::vector<FixedPoint::Raw> x(dim);
            for (auto &v : x)
                v = static_cast<FixedPoint::Raw>(
                    rng.below(4) == 0 ? 0 : rng.below(65536));

            const std::vector<std::uint64_t> y = cb.mvmRaw(x);
            for (std::uint32_t c = 0; c < dim; ++c) {
                std::uint64_t expect = 0;
                for (std::uint32_t r = 0; r < dim; ++r)
                    expect += static_cast<std::uint64_t>(x[r]) * w[r][c];
                EXPECT_EQ(y[c], expect)
                    << "dim " << dim << (sparse ? " sparse" : " dense")
                    << " column " << c;
            }
        }
    }
}

TEST(CrossbarTest, MvmZeroInputGivesZero)
{
    DeviceParams params;
    Crossbar cb(4, params);
    cb.programValue(0, 0, FixedPoint::fromRaw(0x1234, 0));
    const std::vector<std::uint64_t> y =
        cb.mvmRaw(std::vector<FixedPoint::Raw>(4, 0));
    for (std::uint64_t v : y)
        EXPECT_EQ(v, 0u);
}

TEST(CrossbarTest, SelectRowReturnsStoredValues)
{
    DeviceParams params;
    Crossbar cb(4, params);
    cb.programValue(2, 0, FixedPoint::fromRaw(5, 0));
    cb.programValue(2, 3, FixedPoint::fromRaw(11, 0));
    const auto row = cb.selectRow(2);
    EXPECT_EQ(row[0], 5u);
    EXPECT_EQ(row[1], 0u);
    EXPECT_EQ(row[2], 0u);
    EXPECT_EQ(row[3], 11u);
}

TEST(CrossbarTest, OccupiedRowsCountsDistinctRows)
{
    DeviceParams params;
    Crossbar cb(4, params);
    cb.programValue(0, 1, FixedPoint::fromRaw(1, 0));
    cb.programValue(0, 2, FixedPoint::fromRaw(1, 0));
    cb.programValue(3, 0, FixedPoint::fromRaw(1, 0));
    EXPECT_EQ(cb.occupiedRows(), 2u);
}

TEST(CrossbarTest, VariationPerturbsButBounded)
{
    DeviceParams params;
    Crossbar cb(4, params);
    for (std::uint32_t r = 0; r < 4; ++r)
        for (std::uint32_t c = 0; c < 4; ++c)
            cb.programValue(r, c, FixedPoint::quantize(0.5, 12));
    cb.setVariation(0.5, 7);

    std::vector<FixedPoint::Raw> x(4, FixedPoint::quantize(1.0, 12).raw());
    const auto noisy = cb.mvmRaw(x);
    cb.setVariation(0.0, 7);
    const auto exact = cb.mvmRaw(x);
    double max_rel = 0.0;
    for (std::uint32_t c = 0; c < 4; ++c) {
        const double rel =
            std::abs(static_cast<double>(noisy[c]) -
                     static_cast<double>(exact[c])) /
            static_cast<double>(exact[c]);
        max_rel = std::max(max_rel, rel);
    }
    EXPECT_GT(max_rel, 0.0); // noise actually does something
    // Half-level sigma on the one tuned slice (level 8 of raw 2048)
    // perturbs a column sum by at most a few level-steps: bounded.
    EXPECT_LT(max_rel, 0.25);
}

/** Property: MVM distributes over input decomposition. */
class CrossbarLinearityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CrossbarLinearityTest, MvmIsLinearInInput)
{
    DeviceParams params;
    const std::uint32_t dim = 8;
    Crossbar cb(dim, params);
    Rng rng(GetParam());
    for (std::uint32_t r = 0; r < dim; ++r)
        for (std::uint32_t c = 0; c < dim; ++c)
            cb.programValue(
                r, c,
                FixedPoint::fromRaw(
                    static_cast<FixedPoint::Raw>(rng.below(4096)), 0));

    std::vector<FixedPoint::Raw> x1(dim);
    std::vector<FixedPoint::Raw> x2(dim);
    std::vector<FixedPoint::Raw> sum(dim);
    for (std::uint32_t r = 0; r < dim; ++r) {
        x1[r] = static_cast<FixedPoint::Raw>(rng.below(30000));
        x2[r] = static_cast<FixedPoint::Raw>(rng.below(30000));
        sum[r] = static_cast<FixedPoint::Raw>(x1[r] + x2[r]);
    }
    const auto y1 = cb.mvmRaw(x1);
    const auto y2 = cb.mvmRaw(x2);
    const auto ys = cb.mvmRaw(sum);
    for (std::uint32_t c = 0; c < dim; ++c)
        EXPECT_EQ(ys[c], y1[c] + y2[c]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossbarLinearityTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------- row-occupancy skip

/** Digital reference MVM from the exactly stored raw values. */
std::vector<std::uint64_t>
denseReferenceMvm(const Crossbar &cb,
                  const std::vector<FixedPoint::Raw> &x)
{
    std::vector<std::uint64_t> y(cb.dim(), 0);
    for (std::uint32_t c = 0; c < cb.dim(); ++c)
        for (std::uint32_t r = 0; r < cb.dim(); ++r)
            y[c] += static_cast<std::uint64_t>(x[r]) * cb.storedRaw(r, c);
    return y;
}

/**
 * Row skipping must be bit-exact against a dense digital MVM for the
 * weight/input shapes of all six algorithms: fractional PageRank/CF
 * weights, raw SpMV values, unit BFS weights, integer SSSP distances
 * and WCC's all-zero weights — each programmed sparsely so most rows
 * are unoccupied.
 */
TEST(CrossbarOccupancyTest, SparseMvmMatchesDenseReferencePerAlgorithm)
{
    struct Pattern
    {
        const char *algo;
        int fracBits;
        double loWeight, hiWeight;
    };
    const Pattern patterns[] = {
        {"pagerank", 15, 0.001, 0.9},
        {"spmv", 8, 0.1, 100.0},
        {"bfs", 0, 1.0, 1.0},
        {"sssp", 0, 1.0, 255.0},
        {"wcc", 0, 0.0, 0.0},
        {"cf", 12, 0.01, 4.9},
    };

    DeviceParams params;
    const std::uint32_t dim = 16;
    Rng rng(99);
    for (const Pattern &p : patterns) {
        Crossbar cb(dim, params);
        // Sparse power-law-ish fill: ~2 occupied rows of 16.
        for (int e = 0; e < 6; ++e) {
            const auto r = static_cast<std::uint32_t>(rng.below(4));
            const auto c = static_cast<std::uint32_t>(rng.below(dim));
            const double w =
                p.loWeight +
                rng.uniform() * (p.hiWeight - p.loWeight);
            cb.programValue(r, c, FixedPoint::quantize(w, p.fracBits));
        }
        std::vector<FixedPoint::Raw> x(dim);
        for (auto &v : x)
            v = static_cast<FixedPoint::Raw>(rng.below(65536));

        EXPECT_EQ(cb.mvmRaw(x), denseReferenceMvm(cb, x)) << p.algo;
        EXPECT_LE(cb.occupiedRows(), 4u) << p.algo;
    }
}

TEST(CrossbarOccupancyTest, EmptyCrossbarSkipsToZeros)
{
    DeviceParams params;
    Crossbar cb(8, params);
    EXPECT_EQ(cb.occupiedRows(), 0u);
    EXPECT_TRUE(cb.occupiedRowIndices().empty());
    const std::vector<std::uint64_t> y =
        cb.mvmRaw(std::vector<FixedPoint::Raw>(8, 0xFFFF));
    for (const std::uint64_t v : y)
        EXPECT_EQ(v, 0u);
}

TEST(CrossbarOccupancyTest, ZeroProgramsLeaveRowsUnoccupied)
{
    // WCC programs zero-weight edges: the cells stay at level 0, so
    // the row mask must not claim the row may hold nonzeros (presence
    // is tracked separately by the GE array).
    DeviceParams params;
    Crossbar cb(8, params);
    cb.programValue(2, 1, FixedPoint::quantize(0.0, 0));
    EXPECT_FALSE(cb.rowMayHoldNonzero(2));
    cb.programValue(2, 5, FixedPoint::fromRaw(42, 0));
    EXPECT_TRUE(cb.rowMayHoldNonzero(2));
    EXPECT_EQ(cb.occupiedRowIndices(),
              (std::vector<std::uint32_t>{2}));
}

TEST(CrossbarOccupancyTest, SelectRowSkipsUnoccupiedRows)
{
    DeviceParams params;
    Crossbar cb(4, params);
    cb.programValue(1, 0, FixedPoint::fromRaw(9, 0));
    const std::vector<FixedPoint::Raw> empty_row = cb.selectRow(3);
    for (const FixedPoint::Raw v : empty_row)
        EXPECT_EQ(v, 0u);
    EXPECT_EQ(cb.selectRow(1)[0], 9u);
}

TEST(CrossbarOccupancyTest, ClearResetsOccupancyAndCells)
{
    DeviceParams params;
    Crossbar cb(8, params);
    cb.programValue(0, 0, FixedPoint::fromRaw(0xFFFF, 0));
    cb.programValue(7, 7, FixedPoint::fromRaw(0x1234, 0));
    EXPECT_EQ(cb.occupiedRows(), 2u);
    cb.clear();
    EXPECT_EQ(cb.occupiedRows(), 0u);
    EXPECT_TRUE(cb.occupiedRowIndices().empty());
    for (std::uint32_t r = 0; r < 8; ++r)
        for (std::uint32_t c = 0; c < 8; ++c)
            EXPECT_EQ(cb.storedRaw(r, c), 0u);

    // Reprogram after clear: occupancy and results rebuild cleanly.
    cb.programValue(3, 2, FixedPoint::fromRaw(7, 0));
    std::vector<FixedPoint::Raw> x(8, 0);
    x[3] = 2;
    EXPECT_EQ(cb.mvmRaw(x)[2], 14u);
}

TEST(CrossbarOccupancyTest, VariationRngNeutralToZeroPrograms)
{
    // Two crossbars with the same variation seed and the same nonzero
    // cells must read identically even if one of them additionally
    // "programmed" zero values elsewhere: level-0 cells never consume
    // an RNG draw, so the row skip cannot shift the noise stream.
    DeviceParams params;
    Crossbar a(8, params);
    Crossbar b(8, params);
    for (Crossbar *cb : {&a, &b}) {
        cb->programValue(1, 3, FixedPoint::fromRaw(0x00F3, 0));
        cb->programValue(5, 0, FixedPoint::fromRaw(0x1201, 0));
    }
    b.programValue(0, 0, FixedPoint::quantize(0.0, 0));
    b.programValue(6, 6, FixedPoint::quantize(0.0, 0));
    a.setVariation(1.5, 77);
    b.setVariation(1.5, 77);

    std::vector<FixedPoint::Raw> x(8);
    for (std::uint32_t r = 0; r < 8; ++r)
        x[r] = static_cast<FixedPoint::Raw>(r * 111 + 1);
    for (int pass = 0; pass < 3; ++pass)
        EXPECT_EQ(a.mvmRaw(x), b.mvmRaw(x)) << "pass " << pass;
    EXPECT_EQ(a.selectRow(5), b.selectRow(5));
}

} // namespace
} // namespace graphr
