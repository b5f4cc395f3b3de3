#include "generator.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/random.hh"

namespace graphr
{

namespace
{

/** Smallest power of two >= n. */
VertexId
ceilPow2(VertexId n)
{
    return std::bit_ceil(n);
}

/** The cumulative thresholds an R-MAT level compares its uniform
 *  draw r against: r < a picks quadrant a, else r < ab picks b, else
 *  r < abc picks c, else d. */
struct RmatThresholds
{
    explicit RmatThresholds(const RmatParams &p)
        : a(p.a), ab(p.a + p.b), abc(p.a + p.b + p.c)
    {
    }

    double a;
    double ab;
    double abc;
};

/** Whether Rng::uniform(), which returns k * 2^-53 for k in
 *  [0, 2^53), can return a value in [lo, hi). */
bool
drawable(double lo, double hi)
{
    constexpr double kSteps = 0x1.0p53;
    return std::ceil(std::max(lo, 0.0) * kSteps) <
           std::ceil(std::min(hi, 1.0) * kSteps);
}

} // namespace

bool
rmatCanDrawEdge(const RmatParams &params)
{
    const RmatThresholds t(params);
    // Each quadrant is picked for r at or above every earlier
    // threshold and below its own.
    const bool a = drawable(0.0, t.a);
    const bool b = drawable(t.a, t.ab);
    const bool c = drawable(std::max(t.a, t.ab), t.abc);
    const bool off_diagonal = !params.removeSelfLoops || b || c;
    const bool in_range =
        a || std::has_single_bit(params.numVertices) || (b && c);
    return off_diagonal && in_range;
}

CooGraph
makeRmat(const RmatParams &params)
{
    GRAPHR_ASSERT(params.numVertices > 1, "R-MAT needs >= 2 vertices");
    GRAPHR_ASSERT(params.numVertices <= VertexId{1} << 31,
                  "R-MAT pads the vertex count to a 32-bit power of two");
    const double sum = params.a + params.b + params.c + params.d;
    GRAPHR_ASSERT(std::abs(sum - 1.0) < 1e-6,
                  "R-MAT probabilities sum to ", sum);
    GRAPHR_ASSERT(params.numEdges == 0 || rmatCanDrawEdge(params),
                  "R-MAT probabilities can never draw a kept edge");

    const RmatThresholds t(params);
    const VertexId padded = ceilPow2(params.numVertices);
    const int levels = std::countr_zero(padded);
    Rng rng(params.seed);

    std::vector<Edge> edges;
    edges.reserve(params.numEdges);
    while (edges.size() < params.numEdges) {
        VertexId row = 0;
        VertexId col = 0;
        for (int level = 0; level < levels; ++level) {
            // Per-level probability noise keeps the generated graph from
            // collapsing onto exact quadrant boundaries.
            const double r = rng.uniform();
            const VertexId bit = VertexId{1} << (levels - 1 - level);
            if (r < t.a) {
                // top-left: nothing to add
            } else if (r < t.ab) {
                col |= bit;
            } else if (r < t.abc) {
                row |= bit;
            } else {
                row |= bit;
                col |= bit;
            }
        }
        if (row >= params.numVertices || col >= params.numVertices)
            continue;
        if (params.removeSelfLoops && row == col)
            continue;
        const double w = params.maxWeight <= 1.0
                             ? 1.0
                             : 1.0 + std::floor(rng.uniform() *
                                                (params.maxWeight - 1.0));
        edges.push_back(Edge{row, col, w});
    }

    CooGraph graph(params.numVertices, std::move(edges));
    if (params.dedupe)
        graph.dedupe();
    return graph;
}

CooGraph
makeErdosRenyi(VertexId num_vertices, EdgeId num_edges, std::uint64_t seed,
               double max_weight)
{
    GRAPHR_ASSERT(num_vertices > 1, "ER needs >= 2 vertices");
    Rng rng(seed);
    std::vector<Edge> edges;
    edges.reserve(num_edges);
    while (edges.size() < num_edges) {
        const auto src = static_cast<VertexId>(rng.below(num_vertices));
        const auto dst = static_cast<VertexId>(rng.below(num_vertices));
        if (src == dst)
            continue;
        const double w = max_weight <= 1.0
                             ? 1.0
                             : 1.0 + std::floor(rng.uniform() *
                                                (max_weight - 1.0));
        edges.push_back(Edge{src, dst, w});
    }
    return CooGraph(num_vertices, std::move(edges));
}

CooGraph
makeGrid2d(VertexId width, VertexId height, std::uint64_t seed,
           double max_weight)
{
    GRAPHR_ASSERT(width > 0 && height > 0, "grid dimensions must be > 0");
    Rng rng(seed);
    const VertexId nv = width * height;
    std::vector<Edge> edges;
    edges.reserve(static_cast<std::size_t>(nv) * 4);
    auto id = [width](VertexId x, VertexId y) { return y * width + x; };
    auto weight = [&rng, max_weight]() {
        return 1.0 + std::floor(rng.uniform() * std::max(0.0,
                                                         max_weight - 1.0));
    };
    for (VertexId y = 0; y < height; ++y) {
        for (VertexId x = 0; x < width; ++x) {
            if (x + 1 < width) {
                const double w = weight();
                edges.push_back(Edge{id(x, y), id(x + 1, y), w});
                edges.push_back(Edge{id(x + 1, y), id(x, y), w});
            }
            if (y + 1 < height) {
                const double w = weight();
                edges.push_back(Edge{id(x, y), id(x, y + 1), w});
                edges.push_back(Edge{id(x, y + 1), id(x, y), w});
            }
        }
    }
    return CooGraph(nv, std::move(edges));
}

CooGraph
makeChain(VertexId num_vertices)
{
    GRAPHR_ASSERT(num_vertices > 0, "chain needs >= 1 vertex");
    std::vector<Edge> edges;
    edges.reserve(num_vertices - 1);
    for (VertexId v = 0; v + 1 < num_vertices; ++v)
        edges.push_back(Edge{v, v + 1, 1.0});
    return CooGraph(num_vertices, std::move(edges));
}

CooGraph
makeStar(VertexId num_vertices)
{
    GRAPHR_ASSERT(num_vertices > 1, "star needs >= 2 vertices");
    std::vector<Edge> edges;
    edges.reserve(num_vertices - 1);
    for (VertexId v = 1; v < num_vertices; ++v)
        edges.push_back(Edge{0, v, 1.0});
    return CooGraph(num_vertices, std::move(edges));
}

CooGraph
makeComplete(VertexId num_vertices)
{
    GRAPHR_ASSERT(num_vertices > 1, "complete graph needs >= 2 vertices");
    std::vector<Edge> edges;
    edges.reserve(static_cast<std::size_t>(num_vertices) *
                  (num_vertices - 1));
    for (VertexId s = 0; s < num_vertices; ++s)
        for (VertexId d = 0; d < num_vertices; ++d)
            if (s != d)
                edges.push_back(Edge{s, d, 1.0});
    return CooGraph(num_vertices, std::move(edges));
}

CooGraph
makeBipartiteRatings(VertexId num_users, VertexId num_items,
                     EdgeId num_ratings, std::uint64_t seed)
{
    GRAPHR_ASSERT(num_users > 0 && num_items > 0,
                  "bipartite graph needs users and items");
    Rng rng(seed);
    const VertexId nv = num_users + num_items;
    std::vector<Edge> edges;
    edges.reserve(num_ratings);
    for (EdgeId i = 0; i < num_ratings; ++i) {
        const auto user = static_cast<VertexId>(rng.below(num_users));
        const auto item = static_cast<VertexId>(
            num_users + rng.below(num_items));
        const double rating = 1.0 + std::floor(rng.uniform() * 5.0);
        edges.push_back(Edge{user, item, rating});
    }
    return CooGraph(nv, std::move(edges));
}

} // namespace graphr
