#include "tile_plan.hh"

#include <utility>

namespace graphr
{

TilePlan::TilePlan(const CooGraph &graph, const TilingParams &tiling)
    : partition(graph.numVertices(), tiling), meta(partition),
      ordered(graph, partition, &meta), fingerprint(graph.fingerprint())
{
}

TilePlan::TilePlan(const SymmetrizedView &view,
                   const TilingParams &tiling)
    : partition(view.numVertices(), tiling), meta(partition),
      ordered(view, partition, &meta), fingerprint(view.fingerprint())
{
}

TilePlan::TilePlan(VertexId num_vertices, const TilingParams &tiling,
                   std::vector<unsigned char> bytes,
                   std::size_t stream_offset,
                   std::uint64_t graph_fingerprint)
    : partition(num_vertices, tiling), meta(partition),
      ordered(partition, std::move(bytes), stream_offset, &meta),
      fingerprint(graph_fingerprint)
{
}

} // namespace graphr
