/**
 * @file
 * Tests for the functional graph-engine array (tile-level datapath).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "algorithms/spmv.hh"
#include "common/random.hh"
#include "graph/generator.hh"
#include "graph/partition.hh"
#include "graph/preprocess.hh"
#include "graphr/tile_meta.hh"
#include "perf/counters.hh"
#include "rram/graph_engine.hh"

namespace graphr
{
namespace
{

/** Expand a GE result to one value per tile column; its columns must
 *  ascend with no repeats. */
std::vector<double>
dense(const GraphEngineArray &ge, const std::vector<ColumnValue> &results,
      double absent)
{
    std::vector<double> out(ge.tileWidth(), absent);
    for (std::size_t k = 0; k < results.size(); ++k) {
        if (k > 0) {
            EXPECT_LT(results[k - 1].col, results[k].col);
        }
        out[results[k].col] = results[k].value;
    }
    return out;
}

/** runMac() as one sum per tile column. */
std::vector<double>
mac(GraphEngineArray &ge, const std::vector<double> &input, int xf,
    int wf)
{
    std::vector<ColumnValue> out;
    ge.runMac(input, xf, wf, out);
    return dense(ge, out, 0.0);
}

/** runAddOp() as one candidate per tile column. */
std::vector<double>
addOp(GraphEngineArray &ge, std::uint32_t row, double dist_u, int wf)
{
    std::vector<ColumnValue> out;
    ge.runAddOp(row, dist_u, wf, out);
    return dense(ge, out, kInfDistance);
}

/** Stored raw value of every programmed cell, keyed (row, col). */
std::map<std::pair<std::uint32_t, std::uint64_t>, FixedPoint::Raw>
cellsOf(const GraphEngineArray &ge)
{
    std::map<std::pair<std::uint32_t, std::uint64_t>, FixedPoint::Raw>
        cells;
    for (const TileSnapshot::CellValue &cell : ge.saveTile().cells)
        cells[{cell.row, cell.col}] = cell.raw;
    return cells;
}

std::uint64_t
mvmRowsProcessed()
{
    return perf::Registry::instance()
        .counter("crossbar.mvm_rows_processed")
        .value();
}

TEST(GraphEngineTest, GeometryMatchesParameters)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 8, params, ledger);
    EXPECT_EQ(ge.crossbarDim(), 4u);
    EXPECT_EQ(ge.numCrossbars(), 8u);
    EXPECT_EQ(ge.tileWidth(), 32u);
}

TEST(GraphEngineTest, ProgramTileActivityCounts)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 4, params, ledger);

    // Two edges in crossbar 0 (cols 0..3), one in crossbar 2.
    std::vector<Edge> edges = {
        {0, 1, 2.0}, {2, 1, 3.0}, {1, 9, 4.0}};
    const TileActivity act = ge.programTile(edges, 0, 0, 0);
    EXPECT_EQ(act.cellWrites, 3u);
    EXPECT_EQ(act.crossbarsUsed, 2u);
    EXPECT_EQ(act.maxRowsProgrammed, 2u); // crossbar 0 rows {0, 2}
    EXPECT_EQ(act.rowWriteOps, 3u);       // 2 rows + 1 row
    EXPECT_EQ(ledger.events().arrayWrites, 3u);
}

TEST(GraphEngineTest, MacMatchesDigitalSpmv)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    const std::uint32_t dim = 4;
    GraphEngineArray ge(dim, 4, params, ledger);

    // Small weighted graph inside a single tile (16 columns).
    CooGraph g(16, {});
    g.addEdge(0, 1, 0.5);
    g.addEdge(0, 5, 1.25);
    g.addEdge(1, 1, 2.0);
    g.addEdge(2, 9, 0.75);
    g.addEdge(3, 15, 3.0);

    const int wf = 8;
    const int xf = 8;
    ge.programTile(g.edges(), 0, 0, wf);

    const std::vector<double> x = {0.5, 1.0, 2.0, 0.25};
    const std::vector<double> y = mac(ge, x, xf, wf);

    // Digital reference on the same graph restricted to rows 0..3.
    std::vector<Value> full_x(16, 0.0);
    for (std::size_t i = 0; i < 4; ++i)
        full_x[i] = x[i];
    const std::vector<Value> expect = spmvRaw(g, full_x);
    for (std::uint32_t c = 0; c < 16; ++c)
        EXPECT_NEAR(y[c], expect[c], 0.01) << "column " << c;
}

TEST(GraphEngineTest, MacExactForIntegerData)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 2, params, ledger);

    std::vector<Edge> edges = {{0, 0, 3.0}, {1, 0, 5.0}, {2, 7, 2.0}};
    ge.programTile(edges, 0, 0, 0);
    const std::vector<double> x = {2.0, 10.0, 4.0, 0.0};
    const std::vector<double> y = mac(ge, x, 0, 0);
    EXPECT_DOUBLE_EQ(y[0], 2.0 * 3.0 + 10.0 * 5.0);
    EXPECT_DOUBLE_EQ(y[7], 4.0 * 2.0);
    EXPECT_DOUBLE_EQ(y[1], 0.0);
}

TEST(GraphEngineTest, AddOpComputesRelaxation)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 2, params, ledger);

    // Row 1 has edges to columns 0 (w=5) and 6 (w=2).
    std::vector<Edge> edges = {{1, 0, 5.0}, {1, 6, 2.0}, {2, 3, 9.0}};
    ge.programTile(edges, 0, 0, 0);

    const std::vector<double> cand = addOp(ge, 1, 10.0, 0);
    EXPECT_DOUBLE_EQ(cand[0], 15.0);
    EXPECT_DOUBLE_EQ(cand[6], 12.0);
    // Absent columns are "M" (infinity), even where other rows have
    // edges.
    EXPECT_TRUE(std::isinf(cand[3]));
    EXPECT_TRUE(std::isinf(cand[1]));
}

TEST(GraphEngineTest, PresenceMatchesEdges)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 2, params, ledger);
    std::vector<Edge> edges = {{1, 0, 1.0}, {1, 6, 1.0}, {3, 2, 1.0}};
    ge.programTile(edges, 0, 0, 0);
    EXPECT_TRUE(ge.present(1, 0));
    EXPECT_TRUE(ge.present(1, 6));
    EXPECT_FALSE(ge.present(1, 2));
    EXPECT_TRUE(ge.present(3, 2));
    for (std::uint64_t col = 0; col < ge.tileWidth(); ++col)
        EXPECT_FALSE(ge.present(0, col));
}

TEST(GraphEngineTest, TileRelativeCoordinatesRespected)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 2, params, ledger);
    // Tile origin at (row0=8, col0=16).
    std::vector<Edge> edges = {{9, 17, 4.0}};
    ge.programTile(edges, 8, 16, 0);
    const std::vector<double> y = mac(ge, {0.0, 1.0, 0.0, 0.0}, 0, 0);
    EXPECT_DOUBLE_EQ(y[1], 4.0);
}

TEST(GraphEngineTest, ReprogramOverwritesPreviousTile)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 2, params, ledger);
    std::vector<Edge> first = {{0, 0, 7.0}};
    ge.programTile(first, 0, 0, 0);
    std::vector<Edge> second = {{1, 1, 3.0}};
    ge.programTile(second, 0, 0, 0);
    const std::vector<double> y = mac(ge, {1.0, 1.0, 1.0, 1.0}, 0, 0);
    EXPECT_DOUBLE_EQ(y[0], 0.0); // old edge gone
    EXPECT_DOUBLE_EQ(y[1], 3.0);
}

TEST(GraphEngineTest, ActivityAgreesWithTileMeta)
{
    // The functional programTile and the analytic TileMetaTable must
    // count the same crossbars/rows: the cost model depends on it.
    const CooGraph g =
        makeRmat({.numVertices = 64, .numEdges = 600,
                  .maxWeight = 15.0, .seed = 21});
    TilingParams tp;
    tp.crossbarDim = 4;
    tp.crossbarsPerGe = 2;
    tp.numGe = 2;
    tp.blockSize = 32;
    const GridPartition part(g.numVertices(), tp);
    const OrderedEdgeList ordered(g, part);
    const TileMetaTable table(ordered);

    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(tp.crossbarDim,
                        tp.crossbarsPerGe * tp.numGe, params, ledger);

    ASSERT_EQ(table.tiles().size(), ordered.tiles().size());
    std::vector<Edge> scratch;
    for (std::size_t t = 0; t < table.tiles().size(); ++t) {
        const TileMeta &meta = table.tiles()[t];
        const TileActivity act = ge.programTile(
            ordered.decodeTile(t, scratch), meta.row0, meta.col0, 0);
        EXPECT_EQ(act.crossbarsUsed, meta.crossbarsUsed);
        EXPECT_EQ(act.maxRowsProgrammed, meta.maxRowsProgrammed);
        EXPECT_EQ(act.cellWrites, meta.nnz);
    }
}

TEST(GraphEngineTest, EnergyEventsAccumulate)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 2, params, ledger);
    std::vector<Edge> edges = {{0, 0, 1.0}, {1, 5, 1.0}};
    ge.programTile(edges, 0, 0, 0);
    mac(ge, {1.0, 1.0, 0.0, 0.0}, 0, 0);
    const EnergyEvents &ev = ledger.events();
    EXPECT_GT(ev.arrayWrites, 0u);
    EXPECT_GT(ev.arrayReads, 0u);
    EXPECT_GT(ev.adcSamples, 0u);
    EXPECT_GT(ledger.totalJoules(), 0.0);
}

TEST(GraphEngineTest, ParallelEdgesFoldInInputOrder)
{
    // 8.7 + 1.2 + 0.6 sums to 10.499999999999998 left to right and to
    // 10.5 right to left, so the quantised cell tells the fold order
    // apart. The three parallel edges of cell (0, 1) sit among edges
    // in descending cell order, so the input must be sorted first,
    // and the sort must keep them in input order.
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 16, params, ledger);
    std::vector<Edge> unsorted;
    for (VertexId col = 63; col >= 2; --col) {
        unsorted.push_back(Edge{col % 4, col, 5.0});
        if (col % 20 == 0) {
            const double w = col == 60 ? 8.7 : col == 40 ? 1.2 : 0.6;
            unsorted.push_back(Edge{0, 1, w});
        }
    }
    ge.programTile(unsorted, 0, 0, 0);
    const auto cells = cellsOf(ge);
    EXPECT_EQ(cells.size(), 63u);
    EXPECT_EQ((cells.at({0, 1})), 10u);
    EXPECT_EQ((cells.at({3, 63})), 5u);

    const std::vector<Edge> sorted = {
        {1, 0, 5.0}, {0, 1, 8.7}, {0, 1, 1.2}, {0, 1, 0.6}};
    ge.programTile(sorted, 0, 0, 0);
    EXPECT_EQ((cellsOf(ge)[{0, 1}]), 10u);

    const std::vector<Edge> reversed = {
        {0, 1, 0.6}, {0, 1, 1.2}, {0, 1, 8.7}};
    ge.programTile(reversed, 0, 0, 0);
    EXPECT_EQ((cellsOf(ge)[{0, 1}]), 11u);

    ge.programTile(unsorted, 0, 0, 0, CombineMode::kMin);
    EXPECT_EQ((cellsOf(ge)[{0, 1}]), 1u); // llround(0.6)
    // Every input edge is a cell write, merged or not.
    EXPECT_EQ(ge.programTile(unsorted, 0, 0, 0).cellWrites, 65u);
}

TEST(GraphEngineTest, CompactResultsCoverOccupiedCrossbarsInOrder)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 8, params, ledger);
    // Crossbars 6 and 1 (out of order in the input), 0 and 2 empty.
    const std::vector<Edge> edges = {{0, 25, 2.0}, {3, 5, 3.0}};
    ge.programTile(edges, 0, 0, 0);
    ASSERT_EQ(ge.occupiedCrossbars(), (std::vector<std::uint32_t>{1, 6}));

    // One entry per programmed column, ascending.
    std::vector<ColumnValue> out;
    ge.runMac({1.0, 0.0, 0.0, 2.0}, 0, 0, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].col, 5u); // crossbar 1, column 1
    EXPECT_DOUBLE_EQ(out[0].value, 6.0);
    EXPECT_EQ(out[1].col, 25u); // crossbar 6, column 1
    EXPECT_DOUBLE_EQ(out[1].value, 2.0);
    // One entry per cell of the row: row 3 has no edge in column 25.
    ge.runAddOp(3, 1.0, 0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].col, 5u);
    EXPECT_DOUBLE_EQ(out[0].value, 4.0);
}

TEST(GraphEngineTest, EventsChargeEveryCrossbar)
{
    // One occupied crossbar of eight: reads, ADC samples and S/A
    // recombinations still cover the whole array.
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 8, params, ledger);
    ge.programTile(std::vector<Edge>{{0, 9, 1.0}}, 0, 0, 0);
    const std::uint64_t slices = params.slicesPerValue();
    const auto in_slices =
        static_cast<std::uint64_t>(params.inputSlices);

    std::vector<ColumnValue> out;
    ge.runMac({1.0, 0.0, 0.0, 0.0}, 0, 0, out);
    EXPECT_EQ(ledger.events().arrayReads, in_slices * 8);
    EXPECT_EQ(ledger.events().adcSamples, in_slices * 4 * slices * 8);
    EXPECT_EQ(ledger.events().sampleHolds, in_slices * 4 * slices * 8);
    EXPECT_EQ(ledger.events().shiftAdds, 32u);

    ledger.reset();
    ge.runAddOp(0, 0.0, 0, out);
    EXPECT_EQ(ledger.events().arrayReads, 8u);
    EXPECT_EQ(ledger.events().adcSamples, 4 * slices * 8);
    EXPECT_EQ(ledger.events().sampleHolds, 4 * slices * 8);
    EXPECT_EQ(ledger.events().shiftAdds, 32u);
}

TEST(GraphEngineTest, ReprogramAfterAWideTileLeavesNothingStale)
{
    DeviceParams params;
    EnergyLedger ledger(params);
    GraphEngineArray ge(4, 16, params, ledger);
    std::vector<Edge> wide;
    for (std::uint64_t col = 0; col < ge.tileWidth(); col += 3)
        wide.push_back(Edge{static_cast<VertexId>(col % 4),
                            static_cast<VertexId>(col), 7.0});
    ge.programTile(wide, 0, 0, 0);
    ASSERT_EQ(ge.occupiedCrossbars().size(), 16u);

    const std::vector<Edge> narrow = {{2, 33, 4.0}};
    ge.programTile(narrow, 0, 0, 0);
    EXPECT_EQ(ge.occupiedCrossbars().size(), 1u);
    for (std::uint32_t row = 0; row < 4; ++row) {
        for (std::uint64_t col = 0; col < ge.tileWidth(); ++col) {
            EXPECT_EQ(ge.present(row, col), row == 2 && col == 33)
                << row << "," << col;
        }
    }
    const std::vector<double> y = mac(ge, {1.0, 1.0, 1.0, 1.0}, 0, 0);
    for (std::uint64_t col = 0; col < ge.tileWidth(); ++col)
        EXPECT_DOUBLE_EQ(y[col], col == 33 ? 4.0 : 0.0) << col;

    // A snapshot replay clears the same way.
    const TileSnapshot narrow_tile = ge.saveTile();
    ge.programTile(wide, 0, 0, 0);
    ge.loadTile(narrow_tile);
    EXPECT_EQ(cellsOf(ge).size(), 1u);
    EXPECT_EQ(mac(ge, {1.0, 1.0, 1.0, 1.0}, 0, 0), y);
}

/**
 * One seeded random tile (unsorted input, parallel edges, zero
 * weights) against the device model: its MAC sums and row reads must
 * equal, bit for bit, those of Crossbars programmed with the same
 * merged cells, ascend by column, and count the same MVM rows. Under
 * variation the reference crossbars are seeded as the array seeds its
 * own and read in the order the array reads them: ascending, each
 * occupied crossbar once per MAC and each crossbar holding the row
 * once per add-op.
 */
void
expectCellPathMatchesCrossbars(std::uint32_t dim, CombineMode combine,
                               double sigma, std::uint64_t seed)
{
    const DeviceParams params;
    constexpr std::uint32_t kCrossbars = 5;
    constexpr int kInFrac = 8;
    constexpr int kWeightFrac = 10;
    Rng rng(seed * 101 + dim);
    const std::uint64_t width = dim * kCrossbars;
    const VertexId row0 = 3 * dim;
    const VertexId col0 = 2 * width;

    // Random cells, a quarter of them repeated as parallel edges and
    // a fifth zero-weight, shuffled.
    std::vector<Edge> edges;
    const std::uint64_t draws = 1 + rng.below(3 * width);
    for (std::uint64_t i = 0; i < draws; ++i) {
        const VertexId src = row0 + rng.below(dim);
        const VertexId dst = col0 + rng.below(width);
        edges.push_back(Edge{src, dst,
                             rng.below(5) == 0 ? 0.0
                                               : rng.uniform(0.0, 4.0)});
        if (rng.below(4) == 0)
            edges.push_back(Edge{src, dst, rng.uniform(0.0, 4.0)});
    }
    for (std::size_t i = edges.size(); i > 1; --i)
        std::swap(edges[i - 1], edges[rng.below(i)]);

    // The reference: cells folded in input order, keyed (col, row),
    // programmed into one Crossbar per column block.
    std::map<std::pair<std::uint64_t, std::uint32_t>, double> folded;
    for (const Edge &e : edges) {
        const auto [it, fresh] = folded.emplace(
            std::pair{e.dst - col0, static_cast<std::uint32_t>(e.src - row0)},
            e.weight);
        if (!fresh) {
            it->second = combine == CombineMode::kSum
                             ? it->second + e.weight
                             : std::min(it->second, e.weight);
        }
    }
    std::vector<Crossbar> ref(kCrossbars, Crossbar(dim, params));
    // Per crossbar: its programmed columns ascending, and per row the
    // columns holding a cell.
    std::vector<std::vector<std::uint32_t>> cols(kCrossbars);
    std::vector<std::vector<std::uint64_t>> row_bits(
        kCrossbars, std::vector<std::uint64_t>(dim, 0));
    for (const auto &[key, weight] : folded) {
        const auto cb = static_cast<std::uint32_t>(key.first / dim);
        const auto c = static_cast<std::uint32_t>(key.first % dim);
        ref[cb].programValue(key.second, c,
                             FixedPoint::quantize(weight, kWeightFrac));
        if (cols[cb].empty() || cols[cb].back() != c)
            cols[cb].push_back(c);
        row_bits[cb][key.second] |= std::uint64_t{1} << c;
    }

    EnergyLedger ledger(params);
    GraphEngineArray ge(dim, kCrossbars, params, ledger);
    if (sigma > 0.0) {
        ge.setVariation(sigma, seed);
        for (std::uint32_t cb = 0; cb < kCrossbars; ++cb)
            ref[cb].setVariation(sigma, seed + cb);
    }
    ge.programTile(edges, row0, col0, kWeightFrac, combine);
    EXPECT_EQ(cellsOf(ge).size(), folded.size());

    const auto expect_same = [](const std::vector<ColumnValue> &got,
                                const std::vector<ColumnValue> &want) {
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].col, want[k].col);
            EXPECT_EQ(got[k].value, want[k].value)
                << "column " << want[k].col;
        }
    };

    const double scale = static_cast<double>(1u << kInFrac) *
                         static_cast<double>(1u << kWeightFrac);
    for (int pass = 0; pass < 3; ++pass) {
        std::vector<double> x(dim);
        std::vector<FixedPoint::Raw> raw_in(dim);
        for (std::uint32_t r = 0; r < dim; ++r) {
            x[r] = rng.below(4) == 0 ? 0.0 : rng.uniform(0.0, 2.0);
            raw_in[r] = FixedPoint::quantize(x[r], kInFrac).raw();
        }
        std::uint64_t before = mvmRowsProcessed();
        std::vector<ColumnValue> got;
        ge.runMac(x, kInFrac, kWeightFrac, got);
        const std::uint64_t ge_rows = mvmRowsProcessed() - before;

        before = mvmRowsProcessed();
        std::vector<ColumnValue> want;
        for (std::uint32_t cb = 0; cb < kCrossbars; ++cb) {
            if (cols[cb].empty())
                continue;
            const std::vector<std::uint64_t> sums = ref[cb].mvmRaw(raw_in);
            for (const std::uint32_t c : cols[cb]) {
                want.push_back(ColumnValue{
                    cb * dim + c, static_cast<double>(sums[c]) / scale});
            }
        }
        EXPECT_EQ(ge_rows, mvmRowsProcessed() - before);
        expect_same(got, want);
    }

    const double w_scale = static_cast<double>(1u << kWeightFrac);
    for (std::uint32_t row = 0; row < dim; ++row) {
        SCOPED_TRACE("add-op row " + std::to_string(row));
        const double dist_u = static_cast<double>(rng.below(50));
        std::vector<ColumnValue> got;
        ge.runAddOp(row, dist_u, kWeightFrac, got);
        std::vector<ColumnValue> want;
        for (std::uint32_t cb = 0; cb < kCrossbars; ++cb) {
            const std::uint64_t bits = row_bits[cb][row];
            if (bits == 0)
                continue;
            const std::vector<FixedPoint::Raw> read = ref[cb].selectRow(row);
            for (std::uint32_t c = 0; c < dim; ++c) {
                if ((bits >> c) & 1u) {
                    want.push_back(ColumnValue{
                        cb * dim + c,
                        static_cast<double>(read[c]) / w_scale + dist_u});
                }
            }
        }
        expect_same(got, want);
    }
}

TEST(GraphEngineTest, CellPathMatchesTheCrossbarModel)
{
    for (const std::uint32_t dim : {3u, 4u, 8u}) {
        for (const CombineMode combine :
             {CombineMode::kSum, CombineMode::kMin}) {
            for (const double sigma : {0.0, 0.4}) {
                for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                    SCOPED_TRACE(
                        "C=" + std::to_string(dim) + " min=" +
                        std::to_string(combine == CombineMode::kMin) +
                        " sigma=" + std::to_string(sigma) +
                        " seed=" + std::to_string(seed));
                    expectCellPathMatchesCrossbars(dim, combine, sigma,
                                                   seed);
                }
            }
        }
    }
}

} // namespace
} // namespace graphr
