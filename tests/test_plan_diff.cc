/**
 * @file
 * Differential plan test: the stream-writing sort against the path
 * that kept every edge as a record (reference_plan.hh: sort, gather,
 * whole-list encode, describe over edges). For every generator family,
 * every weight mode, bit patterns float equality cannot tell apart,
 * parallel edges and self-loops, each graph's symmetrised view and a
 * stream that trips the expansion bound, under tilings with C in
 * {1, 3, 5, 8, 64} with and without blocks, the plan must carry the
 * reference's stream bytes, tile directory, edges and metadata, and a
 * plan saved and loaded back must equal it.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/generator.hh"
#include "graphr/engine/tile_plan.hh"
#include "plan_eq.hh"
#include "reference_plan.hh"
#include "store/plan_store.hh"

namespace graphr
{
namespace
{

namespace fs = std::filesystem;

/** The graph's edges under new weights, one per edge in turn. */
CooGraph
reweighted(const CooGraph &g, const std::vector<double> &weights)
{
    std::vector<Edge> edges(g.edges().begin(), g.edges().end());
    for (std::size_t e = 0; e < edges.size(); ++e)
        edges[e].weight = weights[e % weights.size()];
    return CooGraph(g.numVertices(), std::move(edges));
}

/** An R-MAT graph with parallel edges and self-loops added. */
CooGraph
makeMultigraph()
{
    CooGraph g = makeRmat({.numVertices = 300,
                           .numEdges = 2000,
                           .maxWeight = 7.0,
                           .seed = 21,
                           .removeSelfLoops = false});
    const std::vector<Edge> base(g.edges().begin(), g.edges().end());
    for (std::size_t e = 0; e < base.size(); e += 3)
        g.addEdge(base[e].src, base[e].dst, base[e].weight + 0.5);
    for (VertexId v = 0; v < g.numVertices(); v += 7)
        g.addEdge(v, v, 2.0);
    return g;
}

using GraphFactory = std::function<CooGraph()>;

const std::vector<std::pair<std::string, GraphFactory>> &
inputs()
{
    static const std::vector<std::pair<std::string, GraphFactory>> all = {
        {"rmat",
         [] { return makeRmat({.numVertices = 500, .numEdges = 6000,
                               .seed = 3}); }},
        {"rmat-weighted",
         [] {
             return makeRmat({.numVertices = 500,
                              .numEdges = 6000,
                              .maxWeight = 10.0,
                              .seed = 4});
         }},
        {"rmat-constant-2.5",
         [] {
             return reweighted(makeRmat({.numVertices = 400,
                                         .numEdges = 4000,
                                         .seed = 5}),
                               {2.5});
         }},
        {"rmat-odd-bits",
         [] {
             return reweighted(
                 makeRmat({.numVertices = 200, .numEdges = 3000, .seed = 6}),
                 {-0.0, std::bit_cast<double>(0x7ff8dead'beef0001ull),
                  std::numeric_limits<double>::denorm_min(), 1.0});
         }},
        {"er", [] { return makeErdosRenyi(400, 5000, 5, 9.0); }},
        {"grid", [] { return makeGrid2d(23, 17, 7, 10.0); }},
        {"chain", [] { return makeChain(333); }},
        {"star", [] { return makeStar(290); }},
        {"complete", [] { return makeComplete(45); }},
        {"bipartite",
         [] { return makeBipartiteRatings(120, 80, 3000, 11); }},
        {"multigraph", [] { return makeMultigraph(); }},
        // 100k edges on 4 vertices: runs of equal cells pass the
        // expansion bound until the stream is written with k >= 1.
        {"rmat-duplicates",
         [] { return makeRmat({.numVertices = 4, .numEdges = 100000,
                               .seed = 9}); }},
    };
    return all;
}

/** (C, N, G, B): C in {1, 3, 5, 8, 64}, with and without blocks. */
const std::vector<TilingParams> &
tilings()
{
    static const std::vector<TilingParams> all = {
        {1, 1, 1, 0}, {1, 2, 3, 16}, {3, 2, 2, 0},   {3, 1, 4, 24},
        {5, 2, 3, 0}, {5, 1, 2, 30}, {8, 32, 64, 0}, {8, 2, 2, 64},
        {64, 2, 1, 0}, {64, 1, 1, 128},
    };
    return all;
}

/** The plan against the reference path's products. */
void
expectReferencePlan(const TilePlan &plan, const reference::Ordered &want)
{
    const GridPartition &part = plan.partition;
    const std::vector<unsigned char> bytes =
        reference::encodeEdgeStream(part, want.edges, want.tiles);
    EXPECT_TRUE(std::ranges::equal(plan.ordered.stream(), bytes))
        << "stream bytes differ";
    expectSameDirectory(plan.ordered.tiles(), indexEdgeStream(part, bytes));
    expectEdgesBitIdentical(decodedEdges(plan.ordered), want.edges);

    ASSERT_EQ(plan.meta.tiles().size(), want.tiles.size());
    std::vector<std::uint32_t> row_nnz(part.crossbarDim());
    for (std::size_t t = 0; t < want.tiles.size(); ++t) {
        SCOPED_TRACE("tile " + std::to_string(t));
        const TileSpan &span = want.tiles[t];
        std::fill(row_nnz.begin(), row_nnz.end(), 0);
        const TileMeta w = reference::describeTile(
            part, span.tileIndex,
            std::span<const Edge>(want.edges).subspan(span.firstEdge,
                                                      span.numEdges),
            row_nnz);
        const TileMeta &g = plan.meta.tiles()[t];
        EXPECT_EQ(g.tileIndex, w.tileIndex);
        EXPECT_EQ(g.row0, w.row0);
        EXPECT_EQ(g.col0, w.col0);
        EXPECT_EQ(g.nnz, w.nnz);
        EXPECT_EQ(g.crossbarsUsed, w.crossbarsUsed);
        EXPECT_EQ(g.maxRowsProgrammed, w.maxRowsProgrammed);
        EXPECT_EQ(g.rowMask, w.rowMask);
        EXPECT_EQ(g.nnzColumns, w.nnzColumns);
        EXPECT_TRUE(std::ranges::equal(plan.meta.rowNnz(t), row_nnz));
    }
}

TEST(PlanDiffTest, StreamPlansEqualTheRecordPath)
{
    const fs::path dir = fs::path(::testing::TempDir()) / "plan_diff";
    fs::remove_all(dir);
    const PlanStore store(dir.string());
    for (const auto &[name, make] : inputs()) {
        const CooGraph g = make();
        for (const TilingParams &tiling : tilings()) {
            SCOPED_TRACE(name + " C=" + std::to_string(tiling.crossbarDim) +
                         " N=" + std::to_string(tiling.crossbarsPerGe) +
                         " G=" + std::to_string(tiling.numGe) +
                         " B=" + std::to_string(tiling.blockSize));
            const TilePlan plain(g, tiling);
            expectReferencePlan(plain,
                                reference::sortPlan(g, plain.partition));
            const SymmetrizedView view(g);
            const TilePlan symmetric(view, tiling);
            expectReferencePlan(symmetric,
                                reference::sortPlan(view,
                                                    symmetric.partition));
            for (const TilePlan *plan : {&plain, &symmetric}) {
                store.save(*plan, tiling);
                const TilePlanPtr loaded =
                    store.load(plan->fingerprint, tiling);
                ASSERT_NE(loaded, nullptr);
                expectSamePlan(*loaded, *plan);
            }
        }
    }
    fs::remove_all(dir);
}

TEST(PlanDiffTest, TheDuplicateGraphIsWrittenWithWideLowBits)
{
    // The input above that trips the bound does so at the paper's
    // tiling: its first encoding would pass 1024 edges a byte.
    const CooGraph g = makeRmat({.numVertices = 4, .numEdges = 100000,
                                 .seed = 9});
    const TilePlan plan(g, TilingParams{});
    const GridPartition &part = plan.partition;
    const reference::Ordered want = reference::sortPlan(g, part);
    const std::vector<unsigned char> narrow = reference::detail::encodeTiles(
        part, want.edges, want.tiles, 0);
    EXPECT_GT(g.numEdges(), narrow.size() * kMaxEdgesPerStreamByte);
    EXPECT_LE(g.numEdges(),
              plan.ordered.stream().size() * kMaxEdgesPerStreamByte);
}

} // namespace
} // namespace graphr
