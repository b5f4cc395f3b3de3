/**
 * @file
 * Tests for the functional graph-engine array (tile-level datapath).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <span>
#include <utility>

#include "algorithms/spmv.hh"
#include "graph/generator.hh"
#include "graph/partition.hh"
#include "graph/preprocess.hh"
#include "graphr/tile_meta.hh"
#include "rram/graph_engine.hh"

namespace graphr
{
namespace
{

/** Expand a compact GE result to one value per tile column. */
std::vector<double>
dense(const GraphEngineArray &ge, const std::vector<double> &compact,
      double absent)
{
    const std::uint32_t dim = ge.crossbarDim();
    const std::span<const std::uint32_t> occupied = ge.occupiedCrossbars();
    EXPECT_EQ(compact.size(), occupied.size() * dim);
    std::vector<double> out(ge.tileWidth(), absent);
    for (std::size_t k = 0; k < occupied.size(); ++k) {
        for (std::uint32_t c = 0; c < dim; ++c)
            out[occupied[k] * dim + c] = compact[k * dim + c];
    }
    return out;
}

/** runMac() as one sum per tile column. */
std::vector<double>
mac(GraphEngineArray &ge, const std::vector<double> &input, int xf,
    int wf)
{
    std::vector<double> out;
    ge.runMac(input, xf, wf, out);
    return dense(ge, out, 0.0);
}

/** runAddOp() as one candidate per tile column. */
std::vector<double>
addOp(GraphEngineArray &ge, std::uint32_t row, double dist_u, int wf)
{
    std::vector<double> out;
    ge.runAddOp(row, dist_u, wf, out);
    return dense(ge, out, kInfDistance);
}

/** Stored raw value of every programmed cell, keyed (row, col). */
std::map<std::pair<std::uint32_t, std::uint64_t>, FixedPoint::Raw>
cellsOf(const GraphEngineArray &ge, int wf)
{
    std::map<std::pair<std::uint32_t, std::uint64_t>, FixedPoint::Raw>
        cells;
    for (const TileSnapshot::CellValue &cell : ge.saveTile(wf).cells)
        cells[{cell.row, cell.col}] = cell.raw;
    return cells;
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
    for (std::size_t t = 0; t < table.tiles().size(); ++t) {
        const TileMeta &meta = table.tiles()[t];
        const TileSpan &span = ordered.tiles()[t];
        const TileActivity act = ge.programTile(
            ordered.tileEdges(span), meta.row0, meta.col0, 0);
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
    const auto cells = cellsOf(ge, 0);
    EXPECT_EQ(cells.size(), 63u);
    EXPECT_EQ((cells.at({0, 1})), 10u);
    EXPECT_EQ((cells.at({3, 63})), 5u);

    const std::vector<Edge> sorted = {
        {1, 0, 5.0}, {0, 1, 8.7}, {0, 1, 1.2}, {0, 1, 0.6}};
    ge.programTile(sorted, 0, 0, 0);
    EXPECT_EQ((cellsOf(ge, 0)[{0, 1}]), 10u);

    const std::vector<Edge> reversed = {
        {0, 1, 0.6}, {0, 1, 1.2}, {0, 1, 8.7}};
    ge.programTile(reversed, 0, 0, 0);
    EXPECT_EQ((cellsOf(ge, 0)[{0, 1}]), 11u);

    ge.programTile(unsorted, 0, 0, 0, CombineMode::kMin);
    EXPECT_EQ((cellsOf(ge, 0)[{0, 1}]), 1u); // llround(0.6)
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
    ASSERT_EQ(std::vector<std::uint32_t>(ge.occupiedCrossbars().begin(),
                                         ge.occupiedCrossbars().end()),
              (std::vector<std::uint32_t>{1, 6}));

    std::vector<double> out;
    ge.runMac({1.0, 0.0, 0.0, 2.0}, 0, 0, out);
    ASSERT_EQ(out.size(), 8u);
    EXPECT_DOUBLE_EQ(out[1], 6.0); // column 5 = crossbar 1, column 1
    EXPECT_DOUBLE_EQ(out[4 + 1], 2.0); // column 25 = crossbar 6, col 1
    ge.runAddOp(3, 1.0, 0, out);
    ASSERT_EQ(out.size(), 8u);
    EXPECT_DOUBLE_EQ(out[1], 4.0);
    EXPECT_TRUE(std::isinf(out[0]));
    EXPECT_TRUE(std::isinf(out[4 + 1])); // row 3 has no edge there
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

    std::vector<double> out;
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
    const TileSnapshot narrow_tile = ge.saveTile(0);
    ge.programTile(wide, 0, 0, 0);
    ge.loadTile(narrow_tile);
    EXPECT_EQ(cellsOf(ge, 0).size(), 1u);
    EXPECT_EQ(mac(ge, {1.0, 1.0, 1.0, 1.0}, 0, 0), y);
}

} // namespace
} // namespace graphr
