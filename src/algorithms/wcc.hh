/**
 * @file
 * Golden weakly connected components.
 *
 * Table 2 notes GraphR supports "more examples (but not all)" of
 * vertex programs; WCC by min-label propagation is the canonical
 * third parallel-add-op workload: processEdge is the identity
 * (an addition with weight 0), reduce is min, and the active list is
 * required. Labels propagate over the symmetrised edge set: the
 * golden passes apply each edge and then its reverse, which is the
 * order of symmetrize()'s list without building it, while the
 * simulated runners and baseline sweeps relax over the memoised
 * symmetrised copy, whose plan the GraphR backends walk.
 */

#ifndef GRAPHR_ALGORITHMS_WCC_HH
#define GRAPHR_ALGORITHMS_WCC_HH

#include <memory>
#include <vector>

#include "algorithms/traversal.hh"
#include "graph/coo.hh"

namespace graphr
{

/** Result of a WCC run. */
struct WccResult
{
    /** Component label per vertex (the minimum vertex id reachable). */
    std::vector<VertexId> labels;
    /** Number of distinct components. */
    std::uint64_t numComponents = 0;
    /** Synchronous propagation rounds executed. */
    int iterations = 0;
};

/**
 * Min-label propagation over the symmetrised graph: in-place passes,
 * each applying every edge and then its reverse (none for a
 * self-loop), the update sequence of a pass over symmetrize(graph).
 */
WccResult wcc(const CooGraph &graph);

/**
 * Reference via disjoint-set union — used by tests to validate the
 * label-propagation result independently.
 */
WccResult wccUnionFind(const CooGraph &graph);

/**
 * wcc(graph).iterations, computed once per graph and memoised on it
 * (CooGraph::memo()). Like wcc(), the passes read the graph's own
 * edges, not a symmetrised copy.
 */
int goldenWccRounds(const CooGraph &graph);

/** Edges plus their reverses (weights preserved). */
CooGraph symmetrize(const CooGraph &graph);

/**
 * symmetrize(graph), built once per graph and memoised on it
 * (CooGraph::memo()): every WCC runner of a graph shares one copy,
 * and the copy's own fingerprint is folded once. The copy lives as
 * long as the graph's memo or the returned pointer.
 */
std::shared_ptr<const CooGraph> symmetrized(const CooGraph &graph);

/**
 * The WCC relaxation over an already-symmetrised graph: every vertex
 * starts active with its own id as label, weights enter as zero.
 * Shared by every cost model that replays WCC rounds.
 */
RelaxationSweep makeWccSweep(const CooGraph &sym_graph);

/**
 * The frontier schedule of makeWccSweep(*symmetrized(graph)),
 * recorded once and memoised on the symmetrised copy's memo, so
 * every WCC runner of the graph shares it.
 */
std::shared_ptr<const FrontierSchedule> wccSchedule(const CooGraph &graph);

} // namespace graphr

#endif // GRAPHR_ALGORITHMS_WCC_HH
