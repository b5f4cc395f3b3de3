#include "tile_plan.hh"

#include <utility>

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
                   std::vector<unsigned char> bytes,
                   std::size_t stream_offset,
                   std::uint64_t graph_fingerprint)
    : partition(num_vertices, tiling),
      ordered(partition, std::move(bytes), stream_offset), meta(ordered),
      fingerprint(graph_fingerprint)
{
}

} // namespace graphr
