/**
 * @file
 * TilePlan: the immutable product of streaming-apply preprocessing.
 *
 * GraphR preprocesses a graph once (offline, in software — paper
 * section 3.4): grid-partition the adjacency matrix, sort the COO
 * edge list into streaming-apply tile order (a stable radix sort,
 * linear in E, over division-free order IDs) written as the
 * delta-coded tile stream, about 2 bytes an edge, and extract the
 * per-tile activity metadata the cost model consumes (fixed-size
 * records plus one flat array of row counts) in the same walk that
 * writes each tile. No ordered copy of the edges is kept: a run
 * decodes a tile where it reads its edges. Every execution layer —
 * single node, multi-node stripes, out-of-core blocks, driver sweeps
 * — walks the same products, so they are bundled here as one
 * shareable, immutable plan. PlanCache (plan_cache.hh) memoises plans
 * per (graph fingerprint, tiling) so repeated runs stop redoing the
 * sort.
 */

#ifndef GRAPHR_GRAPHR_ENGINE_TILE_PLAN_HH
#define GRAPHR_GRAPHR_ENGINE_TILE_PLAN_HH

#include <cstdint>
#include <memory>

#include "graph/coo.hh"
#include "graph/partition.hh"
#include "graph/preprocess.hh"

namespace graphr
{

/**
 * Preprocessing products shared by all tile-walking runners. Built
 * once per (graph, tiling); treated as immutable afterwards so one
 * instance can be shared across runs and backends — concurrent
 * readers need no synchronisation, which is what lets PlanCache hand
 * one TilePlanPtr to every worker of a parallel sweep.
 */
struct TilePlan
{
    GridPartition partition;
    /** Filled by the walk that builds ordered, so declared first. */
    TileMetaTable meta;
    OrderedEdgeList ordered;
    /** Fingerprint of the graph the plan was built from. */
    std::uint64_t fingerprint = 0;

    TilePlan(const CooGraph &graph, const TilingParams &tiling);

    /** The plan of the symmetrised graph, sorted from the graph
     *  itself: equal to TilePlan(symmetrize(view.graph()), tiling),
     *  fingerprint included. */
    TilePlan(const SymmetrizedView &view, const TilingParams &tiling);

    /**
     * Adopt a stored stream (the load path of the on-disk plan
     * store): the plan keeps @p bytes, whose bytes from
     * @p stream_offset on are the stream, after one validating pass
     * builds the tile directory and describes each tile from the cells
     * it decodes, exactly as a fresh prepare describes them, so
     * downstream results are byte-identical. Throws CodecError on a
     * malformed stream.
     */
    TilePlan(VertexId num_vertices, const TilingParams &tiling,
             std::vector<unsigned char> bytes, std::size_t stream_offset,
             std::uint64_t graph_fingerprint);

    /** Heap bytes the plan holds: its stream, directory and table. */
    std::size_t
    bytes() const
    {
        return ordered.bytes() + meta.bytes();
    }
};

/** Plans are shared (cache + concurrent runners): ref-counted const. */
using TilePlanPtr = std::shared_ptr<const TilePlan>;

/**
 * Order-sensitive 64-bit XXH64 fingerprint of a graph (vertex count,
 * edge count, every edge's endpoints and weight bits): the plan cache
 * and store key, CooGraph::fingerprint(). O(E) on a graph's first
 * lookup — one sequential read of the edges, against the sort's
 * several scatter passes that a hit avoids — and memoised on the
 * graph after that, so a resident graph is hashed once.
 */
inline std::uint64_t
graphFingerprint(const CooGraph &graph)
{
    return graph.fingerprint();
}

} // namespace graphr

#endif // GRAPHR_GRAPHR_ENGINE_TILE_PLAN_HH
