/**
 * @file
 * Synthetic graph generators.
 *
 * The paper evaluates on SNAP/network-repository datasets and the
 * Netflix prize matrix, none of which ship with this repository. Per
 * DESIGN.md section 2.2, each dataset is substituted by a generator
 * with matching vertex count, edge count, and degree skew: R-MAT for
 * the social/web graphs, a uniform bipartite sampler for Netflix, and
 * simple deterministic topologies for tests and examples.
 */

#ifndef GRAPHR_GRAPH_GENERATOR_HH
#define GRAPHR_GRAPH_GENERATOR_HH

#include <cstdint>

#include "graph/coo.hh"

namespace graphr
{

/** Parameters for the recursive-matrix (R-MAT) generator. */
struct RmatParams
{
    VertexId numVertices = 1024;
    EdgeId numEdges = 8192;
    /** Quadrant probabilities; must sum to ~1. Defaults follow Graph500. */
    double a = 0.57;
    double b = 0.19;
    double c = 0.19;
    double d = 0.05;
    /** Edge weights drawn uniformly from [1, maxWeight]. */
    double maxWeight = 1.0;
    std::uint64_t seed = 1;
    bool removeSelfLoops = true;
    bool dedupe = false;
};

/**
 * Generate a scale-free directed graph with R-MAT. The vertex count
 * is rounded up to a power of two internally and truncated back, as
 * in the reference implementation.
 */
CooGraph makeRmat(const RmatParams &params);

/**
 * Whether makeRmat(@p params) can ever keep an edge; when it cannot,
 * makeRmat would draw forever. A draw descends log2(numVertices
 * rounded up to a power of two) levels and keeps only cells below
 * numVertices and, with removeSelfLoops, off the diagonal:
 *  - a quadrant counts only if a level can pick it. A level draws r
 *    in [0, 1) in steps of 2^-53 and picks a for r < a, b for
 *    r < a+b, c for r < a+b+c and d otherwise, so a probability the
 *    thresholds before it already push past 1, or one narrower than
 *    a step, may give its quadrant no r at all;
 *  - only a b or c step sets one endpoint's bit without the other's,
 *    so an off-diagonal cell needs b or c;
 *  - with a, the cells (0,0), (0,1) and (1,0) are reachable, and with
 *    a power-of-two vertex count every cell is in range; otherwise a
 *    draw sets a bit at every level and stays in range only with both
 *    b and c (their endpoints are complements, and one such pair
 *    always lies below the vertex count).
 * Requires 2 <= numVertices <= 2^31 and finite probabilities.
 */
bool rmatCanDrawEdge(const RmatParams &params);

/** Uniform (Erdős–Rényi style) random directed multigraph. */
CooGraph makeErdosRenyi(VertexId num_vertices, EdgeId num_edges,
                        std::uint64_t seed, double max_weight = 1.0);

/**
 * 4-connected 2-D grid (road-network stand-in for the navigation
 * example); vertex (x, y) has id y * width + x. Edge weights are
 * uniform in [1, maxWeight].
 */
CooGraph makeGrid2d(VertexId width, VertexId height,
                    std::uint64_t seed = 7, double max_weight = 10.0);

/** Directed chain 0 -> 1 -> ... -> n-1 with unit weights. */
CooGraph makeChain(VertexId num_vertices);

/** Star: hub 0 points at every other vertex. */
CooGraph makeStar(VertexId num_vertices);

/** Complete directed graph without self loops (small n only). */
CooGraph makeComplete(VertexId num_vertices);

/**
 * Bipartite rating graph (Netflix stand-in): users [0, numUsers) each
 * rate items [numUsers, numUsers + numItems); ratings are 1..5.
 * Returned as a directed graph user -> item.
 */
CooGraph makeBipartiteRatings(VertexId num_users, VertexId num_items,
                              EdgeId num_ratings, std::uint64_t seed);

} // namespace graphr

#endif // GRAPHR_GRAPH_GENERATOR_HH
