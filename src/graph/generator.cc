#include "generator.hh"

#include <algorithm>
#include <array>
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

/** The integer threshold T(p) = ceil(clamp(p, 0, 1) * 2^53) of
 *  probability @p p. Rng::uniform() returns k * 2^-53 for the raw
 *  53-bit draw k = Rng::next() >> 11, and r < p holds exactly when
 *  k < T(p): scaling by 2^53 is exact, k is an integer, p <= 0 is
 *  never above r and p >= 1 always is. */
std::uint64_t
drawThreshold(double p)
{
    return static_cast<std::uint64_t>(
        std::ceil(std::clamp(p, 0.0, 1.0) * 0x1.0p53));
}

/** The thresholds an R-MAT level compares its raw draw k against:
 *  k < a picks quadrant a, else k < ab picks b, else k < abc picks c,
 *  else d. They come from the double sums a, a+b and a+b+c, so each
 *  pick is the one r = k * 2^-53 makes against those sums. */
struct RmatThresholds
{
    explicit RmatThresholds(const RmatParams &p)
        : a(drawThreshold(p.a)), ab(drawThreshold(p.a + p.b)),
          abc(drawThreshold(p.a + p.b + p.c))
    {
    }

    std::uint64_t a;
    std::uint64_t ab;
    std::uint64_t abc;
};

} // namespace

bool
rmatCanDrawEdge(const RmatParams &params)
{
    const RmatThresholds t(params);
    // Each quadrant is picked for k at or above every earlier
    // threshold and below its own.
    const bool a = t.a > 0;
    const bool b = t.a < t.ab;
    const bool c = std::max(t.a, t.ab) < t.abc;
    const bool off_diagonal = !params.removeSelfLoops || b || c;
    const bool in_range =
        a || std::has_single_bit(params.numVertices) || (b && c);
    return off_diagonal && in_range;
}

double
rmatKeepProbability(const RmatParams &params)
{
    // Each quadrant's share of the 2^53 raw draws k, as in makeRmat:
    // a below t.a, b in [t.a, t.ab), c in [max(t.a, t.ab), t.abc), d
    // at or above all three. The counts are exact, and so is each
    // share, a count times 2^-53.
    const RmatThresholds t(params);
    const std::uint64_t ab_floor = std::max(t.a, t.ab);
    const std::uint64_t abc_floor = std::max(ab_floor, t.abc);
    const double quadrant[2][2] = {
        {static_cast<double>(t.a) * 0x1.0p-53,
         static_cast<double>(t.ab - std::min(t.a, t.ab)) * 0x1.0p-53},
        {static_cast<double>(t.abc - std::min(ab_floor, t.abc)) *
             0x1.0p-53,
         static_cast<double>((std::uint64_t{1} << 53) - abc_floor) *
             0x1.0p-53}};

    // The probability mass of the draws so far in each state, one bit
    // per fact: 4 = the row prefix still equals the bound's
    // (numVertices - 1), 2 = likewise the column, 1 = row equals column
    // so far. A draw that passes the bound leaves the mass.
    const VertexId bound = params.numVertices - 1;
    const int levels = std::countr_zero(ceilPow2(params.numVertices));
    std::array<double, 8> mass{};
    mass[7] = 1.0;
    for (int bit = levels - 1; bit >= 0; --bit) {
        const VertexId bound_bit = (bound >> bit) & 1;
        std::array<double, 8> next{};
        for (unsigned state = 0; state < 8; ++state) {
            const bool row_tight = state & 4;
            const bool col_tight = state & 2;
            const bool equal = state & 1;
            for (VertexId row = 0; row < 2; ++row) {
                for (VertexId col = 0; col < 2; ++col) {
                    if ((row_tight && row > bound_bit) ||
                        (col_tight && col > bound_bit))
                        continue;
                    const unsigned to =
                        (row_tight && row == bound_bit) << 2 |
                        (col_tight && col == bound_bit) << 1 |
                        (equal && row == col);
                    next[to] += mass[state] * quadrant[row][col];
                }
            }
        }
        mass = next;
    }
    double kept = 0.0;
    for (unsigned state = 0; state < 8; ++state) {
        if (!(params.removeSelfLoops && (state & 1)))
            kept += mass[state];
    }
    return kept;
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
        // Each level appends one bit to both ids, level 0 the top
        // one: a adds neither, b the column bit, c the row bit and d
        // both. The bits come from three compares, not an if chain,
        // whose first test goes either way about half the time.
        VertexId row = 0;
        VertexId col = 0;
        for (int level = 0; level < levels; ++level) {
            const std::uint64_t k = rng.next() >> 11;
            const VertexId ge_a = k >= t.a;
            const VertexId ge_ab = k >= t.ab;
            const VertexId ge_abc = k >= t.abc;
            row = (row << 1) | (ge_a & ge_ab);
            col = (col << 1) | (ge_a & ((ge_ab ^ 1) | ge_abc));
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
