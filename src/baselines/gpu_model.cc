#include "gpu_model.hh"

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
GpuModel::transferSeconds(const CooGraph &graph) const
{
    const double bytes =
        static_cast<double>(graph.numEdges()) * 12.0 +
        static_cast<double>(graph.numVertices()) * kVertexBytes;
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
    finalize(report, kernel_s, transferSeconds(graph));
    return report;
}

BaselineReport
GpuModel::runSpmv(const CooGraph &graph)
{
    BaselineReport report = runPageRank(graph, 1);
    report.algorithm = "spmv";
    return report;
}

namespace
{

BaselineReport
gpuRelaxation(const CooGraph &graph, RelaxationSweep &sweep,
              const char *name, const GpuParams &params)
{
    BaselineReport report;
    report.platform = "gpu";
    report.algorithm = name;

    // Replay the synchronous rounds to obtain per-round frontier and
    // edge volumes (Gunrock advance+filter).
    const double bw = params.memBandwidthGBs * 1e9 *
                      params.bandwidthEfficiency;

    double kernel_s = 0.0;
    double bytes_total = 0.0;
    while (!sweep.done()) {
        const std::vector<bool> &active = sweep.active();
        std::uint64_t frontier_edges = 0;
        std::uint64_t frontier_vertices = 0;
        for (VertexId u = 0; u < graph.numVertices(); ++u) {
            if (!active[u])
                continue;
            ++frontier_vertices;
            frontier_edges += sweep.degree(u);
        }
        // Advance reads frontier edges + labels (random gathers pay
        // the transaction waste), filter compacts the new frontier;
        // re-relaxations and atomic serialisation inflate the work.
        const double bytes =
            (static_cast<double>(frontier_edges) *
                 (kEdgeBytes + 8.0 * params.randomTransactionWaste) +
             static_cast<double>(frontier_vertices) * kVertexBytes *
                 3.0) *
            params.traversalWorkInflation;
        kernel_s += bytes / bw + 2.0 * params.kernelLaunchUs * 1e-6;
        bytes_total += bytes;
        report.edgesProcessed += frontier_edges;
        ++report.iterations;
        sweep.step();
    }
    report.sequentialBytes = static_cast<std::uint64_t>(bytes_total);

    const double transfer_bytes =
        static_cast<double>(graph.numEdges()) * 12.0 +
        static_cast<double>(graph.numVertices()) * kVertexBytes;
    const double transfer_s =
        transfer_bytes / (params.pcieBandwidthGBs * 1e9);
    report.seconds = kernel_s + transfer_s;
    report.joules =
        params.boardWatts * kernel_s + params.idleWatts * transfer_s;
    return report;
}

} // namespace

BaselineReport
GpuModel::runBfs(const CooGraph &graph, VertexId source)
{
    RelaxationSweep sweep(graph, source, /*unit_weights=*/true);
    return gpuRelaxation(graph, sweep, "bfs", params_);
}

BaselineReport
GpuModel::runSssp(const CooGraph &graph, VertexId source)
{
    RelaxationSweep sweep(graph, source, /*unit_weights=*/false);
    return gpuRelaxation(graph, sweep, "sssp", params_);
}

BaselineReport
GpuModel::runWcc(const CooGraph &graph)
{
    const std::shared_ptr<const CooGraph> sym = symmetrized(graph);
    RelaxationSweep sweep = makeWccSweep(*sym);
    return gpuRelaxation(*sym, sweep, "wcc", params_);
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
    finalize(report, kernel_s, transferSeconds(ratings));
    return report;
}

} // namespace graphr
