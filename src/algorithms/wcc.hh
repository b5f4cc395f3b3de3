/**
 * @file
 * Golden weakly connected components.
 *
 * Table 2 notes GraphR supports "more examples (but not all)" of
 * vertex programs; WCC by min-label propagation is the canonical
 * third parallel-add-op workload: processEdge is the identity
 * (an addition with weight 0), reduce is min, and the active list is
 * required. Labels propagate over the symmetrised edge set, read
 * from the graph itself: the golden passes apply each edge and then
 * its reverse, which is the order of symmetrize()'s list, the
 * relaxation relaxes rows scattered from the graph both ways, and
 * the GraphR backends walk the symmetrised plan sorted from it
 * (SymmetrizedView). No runner builds the copy.
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

/**
 * The symmetrised graph as a copy: each edge followed by its reverse
 * (weight kept), unless it is a self-loop. This is the definition
 * SymmetrizedView reads from the graph without a copy; no runner
 * calls it. Each call publishes one graph.symmetrizations count.
 */
CooGraph symmetrize(const CooGraph &graph);

/**
 * The WCC relaxation of @p graph: every vertex starts active with its
 * own id as label, weights enter as zero, and each edge relaxes both
 * ways (EdgeDirections::kBoth), so the rows are those over
 * symmetrize(graph) in the same order, without the copy. Pass the
 * graph itself: a symmetrised graph would be read both ways again.
 */
RelaxationSweep makeWccSweep(const CooGraph &graph);

/**
 * The frontier schedule of makeWccSweep(graph), recorded once and
 * memoised on the graph's memo, so every WCC runner of the graph
 * shares it. Its cap is that of the symmetrised edge count
 * (SymmetrizedView::numEdges()), so the same schedules fit it as
 * over the copy.
 */
std::shared_ptr<const FrontierSchedule> wccSchedule(const CooGraph &graph);

/** The add-op spec of WCC: makeWccSweep(graph)'s start, with
 *  wccSchedule(graph) attached. */
AddOpSpec wccSpec(const CooGraph &graph);

} // namespace graphr

#endif // GRAPHR_ALGORITHMS_WCC_HH
