/**
 * @file
 * Tests for the controller instruction trace (paper Fig. 10).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generator.hh"
#include "graph/preprocess.hh"
#include "graphr/controller_trace.hh"

namespace graphr
{
namespace
{

OrderedEdgeList
makeOrdered(VertexId nv, EdgeId ne, std::uint32_t block = 0)
{
    static std::vector<CooGraph> keep_alive;
    keep_alive.push_back(
        makeRmat({.numVertices = nv, .numEdges = ne, .seed = 111}));
    TilingParams tiling;
    tiling.crossbarDim = 4;
    tiling.crossbarsPerGe = 2;
    tiling.numGe = 2;
    tiling.blockSize = block;
    const GridPartition part(nv, tiling);
    return OrderedEdgeList(keep_alive.back(), part);
}

TEST(ControllerTraceTest, OpCountsMatchSchedule)
{
    const OrderedEdgeList ordered = makeOrdered(64, 400);
    const ControllerTrace trace(ordered, 3);

    const std::uint64_t tiles = ordered.numNonEmptyTiles();
    EXPECT_EQ(trace.count(ControllerOp::Kind::kLoadSubgraph), 3 * tiles);
    EXPECT_EQ(trace.count(ControllerOp::Kind::kProcess), 3 * tiles);
    EXPECT_EQ(trace.count(ControllerOp::Kind::kReduce), 3 * tiles);
    EXPECT_EQ(trace.count(ControllerOp::Kind::kCheckConv), 3u);
    EXPECT_EQ(trace.count(ControllerOp::Kind::kApply), 3u);
}

TEST(ControllerTraceTest, WellFormedPerFigure10Grammar)
{
    const OrderedEdgeList ordered = makeOrdered(96, 800, 32);
    const ControllerTrace trace(ordered, 2);
    EXPECT_TRUE(trace.wellFormed());
}

TEST(ControllerTraceTest, BlocksLoadInStreamingOrder)
{
    const OrderedEdgeList ordered = makeOrdered(96, 800, 32);
    const ControllerTrace trace(ordered, 1);
    std::uint64_t prev_block = 0;
    bool first = true;
    for (const ControllerOp &op : trace.ops()) {
        if (op.kind != ControllerOp::Kind::kLoadBlock)
            continue;
        if (!first) {
            EXPECT_GT(op.tileIndex, prev_block);
        }
        prev_block = op.tileIndex;
        first = false;
    }
    EXPECT_FALSE(first) << "at least one block load expected";
}

TEST(ControllerTraceTest, EdgePayloadConserved)
{
    const OrderedEdgeList ordered = makeOrdered(64, 500);
    const ControllerTrace trace(ordered, 1);
    std::uint64_t loaded = 0;
    for (const ControllerOp &op : trace.ops()) {
        if (op.kind == ControllerOp::Kind::kLoadSubgraph)
            loaded += op.payload;
    }
    EXPECT_EQ(loaded, 500u);
}

TEST(ControllerTraceTest, PrintEmitsOnePerLine)
{
    const OrderedEdgeList ordered = makeOrdered(32, 100);
    const ControllerTrace trace(ordered, 1);
    std::ostringstream oss;
    trace.print(oss);
    std::uint64_t lines = 0;
    for (char c : oss.str())
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, trace.ops().size());
    EXPECT_NE(oss.str().find("LOAD_SUBGRAPH"), std::string::npos);
    EXPECT_NE(oss.str().find("CHECK_CONV"), std::string::npos);
}

TEST(ControllerTraceTest, EmptyIterationsEmptyTrace)
{
    const OrderedEdgeList ordered = makeOrdered(32, 100);
    const ControllerTrace trace(ordered, 0);
    EXPECT_TRUE(trace.ops().empty());
    EXPECT_TRUE(trace.wellFormed());
}

} // namespace
} // namespace graphr
