#include "backend.hh"

#include "algorithms/pagerank.hh"
#include "graphr/node.hh"

namespace graphr::driver
{

namespace
{

/** Validate a BFS/SSSP source against the graph. */
VertexId
checkedSource(const Workload &workload, const ResolvedDataset &dataset)
{
    if (workload.params.source >= dataset.graph.numVertices()) {
        throw DriverError(
            "source vertex " + std::to_string(workload.params.source) +
            " out of range for dataset '" + dataset.name + "' (|V| = " +
            std::to_string(dataset.graph.numVertices()) + ")");
    }
    return workload.params.source;
}

/**
 * CF parameters adjusted to the dataset: a bipartite graph knows its
 * user/item split; on a general graph the first half of the vertex
 * range is treated as users unless users=... was given.
 */
CfParams
effectiveCf(const Workload &workload, const ResolvedDataset &dataset)
{
    CfParams cf = workload.params.cf;
    if (cf.numUsers == 0) {
        cf.numUsers = dataset.bipartite
                          ? dataset.numUsers
                          : std::max<VertexId>(
                                1, dataset.graph.numVertices() / 2);
    }
    if (cf.numUsers >= dataset.graph.numVertices()) {
        throw DriverError("cf users=" + std::to_string(cf.numUsers) +
                          " leaves no item vertices on dataset '" +
                          dataset.name + "'");
    }
    return cf;
}

/**
 * Every backend: one runner and the workload switch all six share.
 * The runners differ in two arguments, both settled at compile time:
 *  - the CPU, GPU and PIM models run PageRank for the golden
 *    iteration count, so baselines and GraphR converge identically;
 *  - GraphRNode and OutOfCoreRunner take SpMV's input vector, all
 *    ones.
 */
template <typename Runner>
class RunnerBackend final : public Backend
{
  public:
    RunnerBackend(std::string name, Runner runner)
        : name_(std::move(name)), runner_(std::move(runner))
    {
    }

    const std::string &name() const override { return name_; }

    RunResult
    run(const Workload &workload, const ResolvedDataset &dataset) override
    {
        // A runner holds its configuration (GraphRNode also its last
        // run's engine counters), so a copy per run keeps concurrent
        // runs of one backend apart.
        Runner runner = runner_;
        const CooGraph &graph = dataset.graph;
        RunResult result;
        result.workload = workload.name;
        result.backend = name_;
        result.dataset = dataset.name;
        result.vertices = graph.numVertices();
        result.edges = graph.numEdges();
        switch (workload.kind) {
          case WorkloadKind::kPageRank:
            if constexpr (requires {
                              runner.runPageRank(graph, std::uint64_t{});
                          }) {
                result.absorb(runner.runPageRank(
                    graph, static_cast<std::uint64_t>(
                               goldenPageRankIterations(
                                   graph, workload.params.pagerank))));
            } else {
                result.absorb(
                    runner.runPageRank(graph, workload.params.pagerank));
            }
            break;
          case WorkloadKind::kSpmv:
            if constexpr (requires(const std::vector<Value> &x) {
                              runner.runSpmv(graph, x);
                          }) {
                const std::vector<Value> x(graph.numVertices(), 1.0);
                result.absorb(runner.runSpmv(graph, x));
            } else {
                result.absorb(runner.runSpmv(graph));
            }
            break;
          case WorkloadKind::kBfs:
            result.absorb(
                runner.runBfs(graph, checkedSource(workload, dataset)));
            break;
          case WorkloadKind::kSssp:
            result.absorb(
                runner.runSssp(graph, checkedSource(workload, dataset)));
            break;
          case WorkloadKind::kWcc:
            result.absorb(runner.runWcc(graph));
            break;
          case WorkloadKind::kCf:
            result.absorb(
                runner.runCf(graph, effectiveCf(workload, dataset)));
            break;
        }
        return result;
    }

  private:
    std::string name_;
    Runner runner_;
};

template <typename Runner>
std::unique_ptr<Backend>
backendOf(const std::string &name, Runner runner)
{
    return std::make_unique<RunnerBackend<Runner>>(name, std::move(runner));
}

} // namespace

const std::vector<std::string> &
allBackendNames()
{
    static const std::vector<std::string> names = {
        "graphr", "multinode", "outofcore", "cpu", "gpu", "pim",
    };
    return names;
}

std::unique_ptr<Backend>
makeBackend(const std::string &name, const BackendOptions &options)
{
    if (name == "graphr")
        return backendOf(name, GraphRNode(options.config));
    if (name == "multinode") {
        return backendOf(name, MultiNodeGraphR(options.config,
                                               options.numNodes,
                                               options.link));
    }
    if (name == "outofcore")
        return backendOf(name, OutOfCoreRunner(options.config,
                                               options.storage));
    if (name == "cpu")
        return backendOf(name, CpuModel(options.cpu));
    if (name == "gpu")
        return backendOf(name, GpuModel(options.gpu));
    if (name == "pim")
        return backendOf(name, PimModel(options.pim));
    std::string msg = "unknown backend '" + name + "' (known:";
    for (const std::string &n : allBackendNames())
        msg += " " + n;
    msg += ")";
    throw DriverError(msg);
}

} // namespace graphr::driver
