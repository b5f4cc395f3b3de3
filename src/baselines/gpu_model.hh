/**
 * @file
 * GPU baseline: analytical model of Gunrock/CuMF on a Tesla K40c
 * (paper Table 5, section 5.5).
 *
 * Graph kernels on this GPU are memory-bandwidth bound, so the model
 * is a roofline over per-iteration byte traffic with an achievable-
 * bandwidth efficiency factor, plus per-kernel launch overhead and
 * the host-to-device PCIe transfer the paper explicitly counts
 * against the GPU ("with considering the data transfer time between
 * CPU memory and GPU memory — an overhead GraphR does not incur").
 * CF is additionally bounded by SGEMM-like compute throughput.
 * Energy is board power times busy time (the paper reads it from
 * nvidia-smi).
 */

#ifndef GRAPHR_BASELINES_GPU_MODEL_HH
#define GRAPHR_BASELINES_GPU_MODEL_HH

#include "algorithms/collaborative_filtering.hh"
#include "baselines/baseline_report.hh"
#include "graph/coo.hh"

namespace graphr
{

struct AddOpSpec;

/** GPU platform parameters (defaults: NVIDIA Tesla K40c). */
struct GpuParams
{
    double memBandwidthGBs = 288.0;
    /**
     * Achievable bandwidth fraction for graph kernels on Kepler:
     * irregular access streams reach a quarter of peak in practice.
     */
    double bandwidthEfficiency = 0.18;
    /**
     * Wasted-fetch multiplier on random vertex gathers: an 8-byte
     * property read costs a 32-byte minimum GDDR transaction, and
     * Kepler-class coalescing recovers little of it on graph
     * frontiers.
     */
    double randomTransactionWaste = 4.0;
    double peakSpTflops = 4.29;
    /**
     * Achieved SGD update throughput for CF (CuMF_SGD class on
     * Kepler): latency- and atomic-bound, far below the flop peak.
     */
    double sgdUpdatesPerSecond = 1.2e8;
    double pcieBandwidthGBs = 12.0;
    double kernelLaunchUs = 15.0;
    double boardWatts = 235.0;
    double idleWatts = 25.0; ///< charged during PCIe transfer
    /**
     * Work inflation for BFS/SSSP: Gunrock's delta-stepping-style
     * relaxation re-visits edges and its atomic label updates
     * serialise within warps, multiplying the useful traffic.
     */
    double traversalWorkInflation = 3.5;
};

/** Analytical Gunrock-like GPU execution model. */
class GpuModel
{
  public:
    explicit GpuModel(GpuParams params = GpuParams{});

    const GpuParams &params() const { return params_; }

    BaselineReport runPageRank(const CooGraph &graph,
                               std::uint64_t iterations);
    BaselineReport runSpmv(const CooGraph &graph);
    BaselineReport runBfs(const CooGraph &graph, VertexId source);
    BaselineReport runSssp(const CooGraph &graph, VertexId source);
    BaselineReport runWcc(const CooGraph &graph);
    BaselineReport runCf(const CooGraph &ratings, const CfParams &params);

  private:
    /** Report of the BFS/SSSP/WCC relaxation @p spec describes:
     *  each round is priced from its active ids' out-degrees. */
    BaselineReport relaxation(const CooGraph &graph, const AddOpSpec &spec,
                              const char *name) const;

    /** Host-to-device transfer time for a graph of @p edges and
     *  @p vertices, in seconds. */
    double transferSeconds(EdgeId edges, VertexId vertices) const;

    /** Finish time/energy accounting. */
    void finalize(BaselineReport &report, double kernel_seconds,
                  double transfer_seconds) const;

    GpuParams params_;
};

} // namespace graphr

#endif // GRAPHR_BASELINES_GPU_MODEL_HH
