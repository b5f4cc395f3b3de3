#include "gpu_model.hh"

#include <numeric>

#include "algorithms/traversal.hh"
#include "algorithms/wcc.hh"
#include "common/logging.hh"

namespace graphr
{

namespace
{

constexpr double kEdgeBytes = 8.0;   ///< packed (dst, weight) in CSR
constexpr double kVertexBytes = 8.0; ///< property + frontier flag

} // namespace

GpuModel::GpuModel(GpuParams params) : params_(params)
{
    GRAPHR_ASSERT(params_.bandwidthEfficiency > 0.0 &&
                      params_.bandwidthEfficiency <= 1.0,
                  "bad bandwidth efficiency");
}

double
GpuModel::transferSeconds(EdgeId edges, VertexId vertices) const
{
    const double bytes = static_cast<double>(edges) * 12.0 +
                         static_cast<double>(vertices) * kVertexBytes;
    return bytes / (params_.pcieBandwidthGBs * 1e9);
}

void
GpuModel::finalize(BaselineReport &report, double kernel_seconds,
                   double transfer_seconds) const
{
    report.seconds = kernel_seconds + transfer_seconds;
    report.joules = params_.boardWatts * kernel_seconds +
                    params_.idleWatts * transfer_seconds;
}

BaselineReport
GpuModel::runPageRank(const CooGraph &graph, std::uint64_t iterations)
{
    BaselineReport report;
    report.platform = "gpu";
    report.algorithm = "pagerank";
    report.iterations = iterations;
    report.edgesProcessed = graph.numEdges() * iterations;

    // Per iteration: stream all edges, gather source ranks (random,
    // transaction-wasteful), update destination sums.
    const double bytes_per_iter =
        static_cast<double>(graph.numEdges()) *
            (kEdgeBytes + 8.0 * params_.randomTransactionWaste) +
        static_cast<double>(graph.numVertices()) * 2.0 * kVertexBytes;
    const double bw = params_.memBandwidthGBs * 1e9 *
                      params_.bandwidthEfficiency;
    const double kernel_s =
        static_cast<double>(iterations) *
        (bytes_per_iter / bw + params_.kernelLaunchUs * 1e-6);
    report.sequentialBytes = static_cast<std::uint64_t>(
        bytes_per_iter * static_cast<double>(iterations));
    finalize(report, kernel_s,
             transferSeconds(graph.numEdges(), graph.numVertices()));
    return report;
}

BaselineReport
GpuModel::runSpmv(const CooGraph &graph)
{
    BaselineReport report = runPageRank(graph, 1);
    report.algorithm = "spmv";
    return report;
}

BaselineReport
GpuModel::relaxation(const CooGraph &graph, const AddOpSpec &spec,
                     const char *name) const
{
    BaselineReport report;
    report.platform = "gpu";
    report.algorithm = name;

    // Price the synchronous rounds from their frontier and edge
    // volumes (Gunrock advance+filter).
    const double bw = params_.memBandwidthGBs * 1e9 *
                      params_.bandwidthEfficiency;
    const std::vector<EdgeId> degrees =
        relaxationDegrees(graph, spec.directions);

    double kernel_s = 0.0;
    double bytes_total = 0.0;
    forEachRound(graph, spec, [&](std::span<const VertexId> ids) {
        std::uint64_t frontier_edges = 0;
        for (const VertexId u : ids)
            frontier_edges += degrees[u];
        // Advance reads frontier edges + labels (random gathers pay
        // the transaction waste), filter compacts the new frontier;
        // re-relaxations and atomic serialisation inflate the work.
        const double bytes =
            (static_cast<double>(frontier_edges) *
                 (kEdgeBytes + 8.0 * params_.randomTransactionWaste) +
             static_cast<double>(ids.size()) * kVertexBytes * 3.0) *
            params_.traversalWorkInflation;
        kernel_s += bytes / bw + 2.0 * params_.kernelLaunchUs * 1e-6;
        bytes_total += bytes;
        report.edgesProcessed += frontier_edges;
        ++report.iterations;
    });
    report.sequentialBytes = static_cast<std::uint64_t>(bytes_total);

    // The transfer prices the edges the relaxation reads: for WCC the
    // symmetrised ones.
    finalize(report, kernel_s,
             transferSeconds(std::accumulate(degrees.begin(), degrees.end(),
                                             EdgeId{0}),
                             graph.numVertices()));
    return report;
}

BaselineReport
GpuModel::runBfs(const CooGraph &graph, VertexId source)
{
    return relaxation(graph, bfsSpec(graph, source), "bfs");
}

BaselineReport
GpuModel::runSssp(const CooGraph &graph, VertexId source)
{
    return relaxation(graph, ssspSpec(graph, source), "sssp");
}

BaselineReport
GpuModel::runWcc(const CooGraph &graph)
{
    return relaxation(graph, wccSpec(graph), "wcc");
}

BaselineReport
GpuModel::runCf(const CooGraph &ratings, const CfParams &cf)
{
    BaselineReport report;
    report.platform = "gpu";
    report.algorithm = "cf";
    report.iterations = static_cast<std::uint64_t>(cf.epochs);
    report.edgesProcessed = ratings.numEdges() * cf.epochs;

    const double k = static_cast<double>(cf.featureLength);
    // Per epoch: SGD update throughput (latency/atomic-bound, see
    // GpuParams::sgdUpdatesPerSecond) against factor-row traffic.
    const double bytes =
        static_cast<double>(ratings.numEdges()) *
        (kEdgeBytes + 3.0 * k * 4.0); // fp32 factors, read+write
    const double compute_s = static_cast<double>(ratings.numEdges()) /
                             params_.sgdUpdatesPerSecond;
    const double memory_s = bytes / (params_.memBandwidthGBs * 1e9 *
                                     params_.bandwidthEfficiency);
    const double kernel_s = static_cast<double>(cf.epochs) *
                            (std::max(compute_s, memory_s) +
                             params_.kernelLaunchUs * 1e-6);
    report.sequentialBytes = static_cast<std::uint64_t>(
        bytes * static_cast<double>(cf.epochs));
    finalize(report, kernel_s,
             transferSeconds(ratings.numEdges(), ratings.numVertices()));
    return report;
}

} // namespace graphr
