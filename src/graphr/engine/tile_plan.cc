#include "tile_plan.hh"

#include <bit>
#include <utility>

#include "common/checksum.hh"
#include "common/logging.hh"

namespace graphr
{

TilePlan::TilePlan(const CooGraph &graph, const TilingParams &tiling)
    : TilePlan(graph, tiling, graphFingerprint(graph))
{
}

TilePlan::TilePlan(const CooGraph &graph, const TilingParams &tiling,
                   std::uint64_t graph_fingerprint)
    : partition(graph.numVertices(), tiling),
      ordered(graph, partition), meta(ordered),
      fingerprint(graph_fingerprint)
{
}

TilePlan::TilePlan(VertexId num_vertices, const TilingParams &tiling,
                   std::vector<Edge> edges,
                   std::vector<TileSpan> tile_spans,
                   std::vector<TileMeta> tile_meta,
                   std::uint64_t total_nnz,
                   std::uint64_t graph_fingerprint)
    : partition(num_vertices, tiling),
      ordered(partition, std::move(edges), std::move(tile_spans)),
      meta(std::move(tile_meta), total_nnz),
      fingerprint(graph_fingerprint)
{
    GRAPHR_ASSERT(ordered.tiles().size() == meta.tiles().size(),
                  "tile directory and metadata table disagree");
}

TilePlan::TilePlan(VertexId num_vertices, const TilingParams &tiling,
                   TileChunkSource &chunks,
                   std::uint64_t graph_fingerprint)
    : partition(num_vertices, tiling), ordered(partition, chunks),
      meta(ordered), fingerprint(graph_fingerprint)
{
}

std::uint64_t
graphFingerprint(const CooGraph &graph)
{
    Fnv1a64 h;
    h.updateWord(graph.numVertices());
    h.updateWord(graph.numEdges());
    for (const Edge &e : graph.edges()) {
        h.updateWord((static_cast<std::uint64_t>(e.src) << 32) |
                     static_cast<std::uint64_t>(e.dst));
        h.updateWord(std::bit_cast<std::uint64_t>(
            static_cast<double>(e.weight)));
    }
    return h.digest();
}

} // namespace graphr
