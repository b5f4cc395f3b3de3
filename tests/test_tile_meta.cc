/**
 * @file
 * Property tests for the per-tile activity metadata: TileMetaTable,
 * which counts distinct columns and crossbars as runs of the ordered
 * edge list, must equal a set-based reference built straight from the
 * unordered input, field by field, for every generator family and for
 * tilings with a non-power-of-two crossbar, the 64-row limit and
 * multiple blocks. The table's tile-row index must list exactly each
 * tile row's tiles, in plan order. A plan decoded from a compressed
 * artifact must carry the same table as its fresh prepare.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generator.hh"
#include "graph/preprocess.hh"
#include "graphr/engine/tile_plan.hh"
#include "graph/tile_meta.hh"
#include "store/plan_store.hh"

namespace graphr
{
namespace
{

namespace fs = std::filesystem;

/** One tile's metadata and its row counts. */
struct ReferenceTile
{
    TileMeta meta;
    std::vector<std::uint32_t> rowNnz;
};

/**
 * Reference metadata: edges grouped by tile index in a map, distinct
 * columns and per-crossbar row masks in sets, independent of the
 * order the edges arrive in.
 */
std::vector<ReferenceTile>
referenceMeta(const CooGraph &graph, const GridPartition &part)
{
    std::map<std::uint64_t, std::vector<Edge>> by_tile;
    for (const Edge &e : graph.edges())
        by_tile[part.tileIndex(e.src, e.dst)].push_back(e);

    const std::uint32_t dim = part.crossbarDim();
    std::vector<ReferenceTile> out;
    for (const auto &[tile, edges] : by_tile) {
        TileMeta meta;
        meta.tileIndex = tile;
        meta.nnz = edges.size();
        part.tileOrigin(part.tileCoord(tile), meta.row0, meta.col0);
        std::vector<std::uint32_t> row_nnz(dim, 0);
        std::set<std::uint64_t> cols;
        std::map<std::uint64_t, std::set<std::uint64_t>> crossbar_rows;
        for (const Edge &e : edges) {
            const std::uint64_t row = e.src - meta.row0;
            const std::uint64_t col = e.dst - meta.col0;
            meta.rowMask |= std::uint64_t{1} << row;
            ++row_nnz[row];
            cols.insert(col);
            crossbar_rows[col / dim].insert(row);
        }
        meta.nnzColumns = cols.size();
        meta.crossbarsUsed =
            static_cast<std::uint32_t>(crossbar_rows.size());
        for (const auto &[crossbar, rows] : crossbar_rows) {
            meta.maxRowsProgrammed = std::max(
                meta.maxRowsProgrammed,
                static_cast<std::uint32_t>(rows.size()));
        }
        out.push_back(ReferenceTile{meta, std::move(row_nnz)});
    }
    return out;
}

/** A table's tiles in the reference's shape. */
std::vector<ReferenceTile>
tilesOf(const TileMetaTable &table)
{
    std::vector<ReferenceTile> out;
    for (std::size_t t = 0; t < table.tiles().size(); ++t) {
        const std::span<const std::uint32_t> rows = table.rowNnz(t);
        out.push_back(ReferenceTile{
            table.tiles()[t],
            std::vector<std::uint32_t>(rows.begin(), rows.end())});
    }
    return out;
}

void
expectMetaEqual(const std::vector<ReferenceTile> &want,
                const TileMetaTable &got)
{
    ASSERT_EQ(got.tiles().size(), want.size());
    std::uint64_t nnz = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const TileMeta &w = want[i].meta;
        const TileMeta &g = got.tiles()[i];
        SCOPED_TRACE("tile " + std::to_string(w.tileIndex));
        EXPECT_EQ(g.tileIndex, w.tileIndex);
        EXPECT_EQ(g.row0, w.row0);
        EXPECT_EQ(g.col0, w.col0);
        EXPECT_EQ(g.nnz, w.nnz);
        EXPECT_EQ(g.crossbarsUsed, w.crossbarsUsed);
        EXPECT_EQ(g.maxRowsProgrammed, w.maxRowsProgrammed);
        EXPECT_EQ(g.rowMask, w.rowMask);
        EXPECT_EQ(g.nnzColumns, w.nnzColumns);
        const std::span<const std::uint32_t> rows = got.rowNnz(i);
        EXPECT_EQ(std::vector<std::uint32_t>(rows.begin(), rows.end()),
                  want[i].rowNnz);
        nnz += w.nnz;
    }
    EXPECT_EQ(got.totalNnz(), nnz);
}

/** An rmat graph with every third edge repeated under a new weight. */
CooGraph
makeMultigraph()
{
    CooGraph g = makeRmat({.numVertices = 300,
                           .numEdges = 2000,
                           .maxWeight = 7.0,
                           .seed = 21});
    const std::vector<Edge> base(g.edges().begin(), g.edges().end());
    for (std::size_t e = 0; e < base.size(); e += 3)
        g.addEdge(base[e].src, base[e].dst, base[e].weight + 0.5);
    return g;
}

using GraphFactory = std::function<CooGraph()>;

const std::vector<std::pair<std::string, GraphFactory>> &
families()
{
    static const std::vector<std::pair<std::string, GraphFactory>>
        all = {
        {"rmat",
         [] {
             return makeRmat({.numVertices = 500,
                              .numEdges = 6000,
                              .maxWeight = 15.0,
                              .seed = 3});
         }},
        {"er", [] { return makeErdosRenyi(400, 5000, 5, 9.0); }},
        {"grid", [] { return makeGrid2d(23, 17, 7, 10.0); }},
        {"chain", [] { return makeChain(333); }},
        {"star", [] { return makeStar(290); }},
        {"complete", [] { return makeComplete(45); }},
        {"bipartite",
         [] { return makeBipartiteRatings(120, 80, 3000, 11); }},
        {"multigraph", [] { return makeMultigraph(); }},
    };
    return all;
}

/** rowTiles(r) lists, ascending, exactly the positions of the tiles
 *  whose first source row is r * C, for every tile row of the graph. */
void
expectRowIndex(const TileMetaTable &table, const GridPartition &part)
{
    const std::uint32_t dim = part.crossbarDim();
    const std::uint64_t rows = (part.numVertices() + dim - 1) / dim;
    std::vector<std::vector<std::uint32_t>> want(rows);
    for (std::size_t t = 0; t < table.tiles().size(); ++t) {
        const TileMeta &meta = table.tiles()[t];
        ASSERT_EQ(meta.row0 % dim, 0u) << "tile " << meta.tileIndex;
        ASSERT_LT(meta.row0 / dim, rows) << "tile " << meta.tileIndex;
        want[meta.row0 / dim].push_back(static_cast<std::uint32_t>(t));
    }
    for (std::uint64_t r = 0; r < rows; ++r) {
        const std::span<const std::uint32_t> got = table.rowTiles(r);
        EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                  want[r])
            << "tile row " << r;
    }
}

/** (crossbarDim, crossbarsPerGe, numGe, blockSize). */
using Tiling = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t,
                          std::uint32_t>;

TilingParams
tilingOf(const Tiling &t)
{
    TilingParams p;
    std::tie(p.crossbarDim, p.crossbarsPerGe, p.numGe, p.blockSize) = t;
    return p;
}

class TileMetaPropertyTest : public ::testing::TestWithParam<Tiling>
{
};

TEST_P(TileMetaPropertyTest, RunCountedTableEqualsSetReference)
{
    const TilingParams tiling = tilingOf(GetParam());
    for (const auto &[name, make] : families()) {
        SCOPED_TRACE(name);
        const CooGraph g = make();
        const GridPartition part(g.numVertices(), tiling);
        TileMetaTable table(part);
        const OrderedEdgeList ordered(g, part, &table);
        expectMetaEqual(referenceMeta(g, part), table);
        expectRowIndex(table, part);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Tilings, TileMetaPropertyTest,
    ::testing::Values(Tiling{8, 32, 64, 0},  // the paper's default
                      Tiling{6, 3, 2, 0},    // non-power-of-two C
                      Tiling{5, 2, 3, 60},   // odd C, several blocks
                      Tiling{64, 2, 1, 0},   // the 64-row mask limit
                      Tiling{64, 1, 1, 128}, // C = 64 and blocks
                      Tiling{4, 2, 2, 32},   // many small blocks
                      Tiling{1, 1, 1, 0}));  // one-row crossbars

TEST(TileMetaTest, DecodedPlanCarriesTheFreshTable)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / "tile_meta_decoded";
    fs::remove_all(dir);
    PlanStore store(dir.string());
    for (const Tiling &t : {Tiling{8, 32, 64, 0}, Tiling{6, 3, 2, 0},
                            Tiling{64, 1, 1, 128}}) {
        const TilingParams tiling = tilingOf(t);
        for (const auto &[name, make] : families()) {
            SCOPED_TRACE(name + " C=" +
                         std::to_string(tiling.crossbarDim));
            const CooGraph g = make();
            const TilePlan fresh(g, tiling);
            store.save(fresh, tiling);
            const TilePlanPtr loaded =
                store.load(fresh.fingerprint, tiling);
            ASSERT_NE(loaded, nullptr);
            expectMetaEqual(referenceMeta(g, fresh.partition),
                            loaded->meta);
            expectMetaEqual(tilesOf(fresh.meta), loaded->meta);
            expectRowIndex(loaded->meta, loaded->partition);
        }
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace graphr
