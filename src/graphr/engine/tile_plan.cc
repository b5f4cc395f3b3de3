#include "tile_plan.hh"

namespace graphr
{

TilePlan::TilePlan(const CooGraph &graph, const TilingParams &tiling)
    : partition(graph.numVertices(), tiling),
      ordered(graph, partition), meta(ordered),
      fingerprint(graph.fingerprint())
{
}

TilePlan::TilePlan(const SymmetrizedView &view,
                   const TilingParams &tiling)
    : partition(view.numVertices(), tiling), ordered(view, partition),
      meta(ordered), fingerprint(view.fingerprint())
{
}

TilePlan::TilePlan(VertexId num_vertices, const TilingParams &tiling,
                   TileChunkSource &chunks,
                   std::uint64_t graph_fingerprint)
    : partition(num_vertices, tiling), ordered(partition, chunks),
      meta(ordered), fingerprint(graph_fingerprint)
{
}

} // namespace graphr
