/**
 * @file
 * PIM baseline: analytical Tesseract-like model (paper section 5.6).
 *
 * Tesseract [4] places one in-order core in each vault of a Hybrid
 * Memory Cube and scales with the HMC's internal bandwidth. The model
 * charges per-edge instruction work across all vault cores, a
 * cross-cube message penalty for the remote Put fraction, an internal
 * bandwidth roofline, and per-iteration barrier synchronisation.
 * Energy is active power times time; HMC DRAM layers plus logic-layer
 * cores draw substantially more static+dynamic power than ReRAM,
 * which is where GraphR's energy advantage comes from.
 */

#ifndef GRAPHR_BASELINES_PIM_MODEL_HH
#define GRAPHR_BASELINES_PIM_MODEL_HH

#include "algorithms/collaborative_filtering.hh"
#include "baselines/baseline_report.hh"
#include "graph/coo.hh"

namespace graphr
{

struct AddOpSpec;

/** Tesseract-like PIM parameters (16 cubes, 32 vaults each). */
struct PimParams
{
    std::uint32_t cubes = 16;
    std::uint32_t vaultsPerCube = 32;
    double coreGhz = 1.0;
    /**
     * Cycles per edge visit on a cache-less in-order vault core:
     * dominated by local DRAM-layer accesses (~3 accesses x ~50 ns
     * at 1 GHz), partially hidden by the prefetcher.
     */
    double cyclesPerEdge = 150.0;
    double remoteMsgCycles = 200.0;  ///< remote Put network + remote core
    double internalBandwidthTBs = 8.0;
    double barrierUs = 5.0;          ///< per-iteration synchronisation
    double loadImbalance = 1.5;      ///< skewed-degree slowdown
    /**
     * Extra work factor for BFS/SSSP rounds: the interrupt-driven
     * remote Put mechanism over small, skewed frontiers leaves most
     * vault cores idle and retries congested queues.
     */
    double traversalWorkInflation = 3.0;
    double activeWatts = 160.0;      ///< 16 cubes x ~10 W under load
};

/** Analytical Tesseract-like execution model. */
class PimModel
{
  public:
    explicit PimModel(PimParams params = PimParams{});

    const PimParams &params() const { return params_; }

    std::uint32_t
    totalCores() const
    {
        return params_.cubes * params_.vaultsPerCube;
    }

    BaselineReport runPageRank(const CooGraph &graph,
                               std::uint64_t iterations);
    BaselineReport runSpmv(const CooGraph &graph);
    BaselineReport runBfs(const CooGraph &graph, VertexId source);
    BaselineReport runSssp(const CooGraph &graph, VertexId source);
    BaselineReport runWcc(const CooGraph &graph);
    BaselineReport runCf(const CooGraph &ratings, const CfParams &params);

    /** Seconds to process a batch of edge visits (exposed for tests). */
    double edgeBatchSeconds(std::uint64_t edges) const;

  private:
    /** Report of the BFS/SSSP/WCC relaxation @p spec describes: each
     *  round pays for its active ids' out-edges (Tesseract's
     *  per-frontier-edge work). */
    BaselineReport relaxation(const CooGraph &graph, const AddOpSpec &spec,
                              const char *name) const;

    void finalize(BaselineReport &report, double seconds) const;

    PimParams params_;
};

} // namespace graphr

#endif // GRAPHR_BASELINES_PIM_MODEL_HH
