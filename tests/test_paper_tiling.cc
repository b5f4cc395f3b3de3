/**
 * @file
 * Functional outputs pinned at the paper's tiling: the default
 * GraphRConfig (8x8 crossbars, 32 per GE, 64 GEs — one tile spans
 * 2,048 crossbars and 16,384 columns), where every other functional
 * test runs a tiling of at most 16 crossbars.
 *
 * Each case runs PageRank (fixed iterations), SpMV, BFS, SSSP and WCC
 * through the GE datapath and compares an FNV-1a digest of every
 * output vector with a recorded value, so any change to what the
 * datapath computes at full width — the fold order of parallel
 * edges, the variation RNG stream, resident-tile replay, with and
 * without variation — fails here. Where the datapath is exact, BFS, SSSP and WCC must also
 * equal the golden algorithms. After an intended change to the
 * outputs, each failure prints its replacement kPins row.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "algorithms/pagerank.hh"
#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/checksum.hh"
#include "graph/generator.hh"
#include "graphr/node.hh"

namespace graphr
{
namespace
{

/** Recorded digests of one (graph, configuration) pair. */
struct Pin
{
    const char *graph;
    const char *config;
    std::uint64_t pagerank;
    std::uint64_t spmv;
    std::uint64_t bfs;
    std::uint64_t sssp;
    std::uint64_t wcc;
};

constexpr Pin kPins[] = {
    {"rmat", "exact", 0x7753d62ce10ebf1a, 0x1c4a723ec7e03e58,
     0x97a6e988eb5cc8c0, 0xdfa718c54023d8ca, 0xea76e72d78c3f8d8},
    {"rmat", "variation", 0x3db35a7a85dbe4de, 0x1c4a723ec7e03e58,
     0xe788686dc9e4b105, 0xc1beef416291f579, 0xea76e72d78c3f8d8},
    {"rmat", "resident", 0x7753d62ce10ebf1a, 0x1c4a723ec7e03e58,
     0x97a6e988eb5cc8c0, 0xdfa718c54023d8ca, 0xea76e72d78c3f8d8},
    {"er", "exact", 0x131a3eca2d899b74, 0x2b8aecc21ebbe429,
     0x7901ada790cec16d, 0x159e5e16111fe989, 0xb9d103fd6854a325},
    {"er", "variation", 0x5da35a4459731ee6, 0x2b8aecc21ebbe429,
     0x0061bb24c3b3ce4d, 0x34496691c8a7c062, 0xb9d103fd6854a325},
    {"er", "resident", 0x131a3eca2d899b74, 0x2b8aecc21ebbe429,
     0x7901ada790cec16d, 0x159e5e16111fe989, 0xb9d103fd6854a325},
    {"grid", "exact", 0x6082d70a8409ab45, 0x1b2e2f71403274b6,
     0x486104ef93ede98d, 0xa0219f1c3dd8e721, 0x6e431751526de325},
    {"grid", "variation", 0xe7ed165b713bee52, 0x1b2e2f71403274b6,
     0xa19c3fa2688e78b0, 0x83b073635ec697fd, 0x6e431751526de325},
    {"grid", "resident", 0x6082d70a8409ab45, 0x1b2e2f71403274b6,
     0x486104ef93ede98d, 0xa0219f1c3dd8e721, 0x6e431751526de325},
    {"star", "exact", 0xa7113838c27407ee, 0x113d686b60cfe7d8,
     0x11af88b7228eefb8, 0x11af88b7228eefb8, 0x9c1bda7f8c872325},
    {"star", "variation", 0x2d90ffc066fe6dd2, 0x113d686b60cfe7d8,
     0xe37a6f0051354c18, 0xe37a6f0051354c18, 0x9c1bda7f8c872325},
    {"star", "resident", 0xa7113838c27407ee, 0x113d686b60cfe7d8,
     0x11af88b7228eefb8, 0x11af88b7228eefb8, 0x9c1bda7f8c872325},
    // Variation draws on reads only, so tiles replayed from their
    // resident banks read what reprogrammed ones do: the variation
    // rows' digests.
    {"rmat", "resident-variation", 0x3db35a7a85dbe4de, 0x1c4a723ec7e03e58,
     0xe788686dc9e4b105, 0xc1beef416291f579, 0xea76e72d78c3f8d8},
    {"er", "resident-variation", 0x5da35a4459731ee6, 0x2b8aecc21ebbe429,
     0x0061bb24c3b3ce4d, 0x34496691c8a7c062, 0xb9d103fd6854a325},
    {"grid", "resident-variation", 0xe7ed165b713bee52, 0x1b2e2f71403274b6,
     0xa19c3fa2688e78b0, 0x83b073635ec697fd, 0x6e431751526de325},
    {"star", "resident-variation", 0x2d90ffc066fe6dd2, 0x113d686b60cfe7d8,
     0xe37a6f0051354c18, 0xe37a6f0051354c18, 0x9c1bda7f8c872325},
};

CooGraph
makeGraph(const std::string &name)
{
    if (name == "rmat") {
        return makeRmat({.numVertices = 4096,
                         .numEdges = 32768,
                         .maxWeight = 15.0,
                         .seed = 41});
    }
    if (name == "er")
        return makeErdosRenyi(2048, 16384, 42, 15.0);
    if (name == "grid")
        return makeGrid2d(64, 48, 43, 9.0);
    return makeStar(4096);
}

/** The paper's tiling (default GraphRConfig), functional on. */
GraphRConfig
makeConfig(const std::string &name)
{
    GraphRConfig cfg;
    cfg.functional = true;
    if (name == "variation" || name == "resident-variation")
        cfg.variationSigma = 0.4;
    if (name == "resident" || name == "resident-variation")
        cfg.programCharging = ProgramCharging::kOnce;
    return cfg;
}

template <typename T>
std::uint64_t
digest(const std::vector<T> &values)
{
    return fnv1a64(values.data(), values.size() * sizeof(T));
}

/** Exact equality, with infinities (unreached vertices) equal. */
bool
sameDistances(const std::vector<Value> &a, const std::vector<Value> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t v = 0; v < a.size(); ++v) {
        if (a[v] != b[v] && !(std::isinf(a[v]) && std::isinf(b[v])))
            return false;
    }
    return true;
}

std::string
hex(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

TEST(PaperTilingPinTest, FunctionalOutputsMatchRecordedDigests)
{
    std::map<std::string, CooGraph> graphs;
    for (const Pin &pin : kPins) {
        SCOPED_TRACE(std::string(pin.graph) + "/" + pin.config);
        auto it = graphs.find(pin.graph);
        if (it == graphs.end())
            it = graphs.emplace(pin.graph, makeGraph(pin.graph)).first;
        const CooGraph &g = it->second;
        const GraphRConfig cfg = makeConfig(pin.config);
        ASSERT_EQ(cfg.tiling.crossbarsPerGe * cfg.tiling.numGe, 2048u);
        GraphRNode node(cfg);

        PageRankParams params;
        params.maxIterations = 10;
        params.tolerance = 0.0;
        std::vector<Value> ranks;
        node.runPageRank(g, params, &ranks);

        std::vector<Value> x(g.numVertices());
        for (VertexId v = 0; v < g.numVertices(); ++v)
            x[v] = 0.25 * static_cast<double>(1 + v % 5);
        std::vector<Value> y;
        node.runSpmv(g, x, &y);

        std::vector<Value> bfs_dist;
        node.runBfs(g, 0, &bfs_dist);
        std::vector<Value> sssp_dist;
        node.runSssp(g, 0, &sssp_dist);
        std::vector<VertexId> labels;
        node.runWcc(g, &labels);

        const Pin got{pin.graph,        pin.config,
                      digest(ranks),    digest(y),
                      digest(bfs_dist), digest(sssp_dist),
                      digest(labels)};
        const bool match = got.pagerank == pin.pagerank &&
                           got.spmv == pin.spmv && got.bfs == pin.bfs &&
                           got.sssp == pin.sssp && got.wcc == pin.wcc;
        EXPECT_TRUE(match)
            << "digests now: {\"" << got.graph << "\", \"" << got.config
            << "\", " << hex(got.pagerank) << ", " << hex(got.spmv)
            << ", " << hex(got.bfs) << ", " << hex(got.sssp) << ", "
            << hex(got.wcc) << "},";

        // Zero-weight cells read exactly under variation, so WCC is
        // exact in every configuration; BFS and SSSP only without
        // variation.
        EXPECT_EQ(labels, wcc(g).labels);
        if (cfg.variationSigma == 0.0) {
            EXPECT_TRUE(sameDistances(bfs_dist, bfs(g, 0).dist));
            EXPECT_TRUE(sameDistances(sssp_dist, sssp(g, 0).dist));
        }
    }
}

} // namespace
} // namespace graphr
