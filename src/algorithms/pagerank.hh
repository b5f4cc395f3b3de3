/**
 * @file
 * Golden PageRank (paper Fig. 13 vertex program).
 */

#ifndef GRAPHR_ALGORITHMS_PAGERANK_HH
#define GRAPHR_ALGORITHMS_PAGERANK_HH

#include <vector>

#include "graph/coo.hh"

namespace graphr
{

/** PageRank configuration. */
struct PageRankParams
{
    double damping = 0.8;  ///< r in the paper (random-surf probability)
    int maxIterations = 20;
    double tolerance = 1e-6; ///< L1 convergence threshold; <=0 disables
};

/** Result of a PageRank run. */
struct PageRankResult
{
    std::vector<Value> ranks;
    int iterations = 0;
    bool converged = false;
};

/**
 * Reference PageRank: PR_{t+1} = r * M PR_t + (1 - r) * e, with
 * dangling-vertex mass redistributed uniformly so the ranks stay a
 * probability distribution.
 */
PageRankResult pagerank(const CooGraph &graph, const PageRankParams &params);

/**
 * pagerank(graph, params).iterations, computed once per graph and
 * parameter set and memoised on the graph (CooGraph::memo()). The
 * timing-mode runners and baselines charge this many sweeps.
 */
int goldenPageRankIterations(const CooGraph &graph,
                             const PageRankParams &params);

} // namespace graphr

#endif // GRAPHR_ALGORITHMS_PAGERANK_HH
