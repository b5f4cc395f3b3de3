#include "csr.hh"

namespace graphr
{

CsrGraph::CsrGraph(const CooGraph &coo, Direction dir) : dir_(dir)
{
    const bool out = dir == Direction::kOut;
    rows_ = CompressedRows<Adjacency>(
        coo.numVertices(), coo.edges(),
        [out](const Edge &e) { return out ? e.src : e.dst; },
        [out](const Edge &e) {
            return Adjacency{out ? e.dst : e.src, e.weight};
        });
}

} // namespace graphr
