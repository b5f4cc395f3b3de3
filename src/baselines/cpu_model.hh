/**
 * @file
 * CPU baseline: GridGraph-style edge-centric processing on the
 * paper's Xeon E5-2630 v3 platform (Table 4).
 *
 * The model is trace-driven: it replays the dual-sliding-window
 * access pattern (sequential edge streaming, random source-vertex
 * reads, random destination-vertex updates; paper Fig. 2) through the
 * CacheHierarchy and charges per-edge instruction work on top. The
 * measured per-thread cycle count is divided by an effective
 * parallelism factor: graph kernels on this class of machine are
 * memory-bound well before all 32 hardware threads are busy, so the
 * factor is lower than the thread count.
 *
 * Energy = package power * time + DRAM access energy, matching the
 * paper's methodology of estimating CPU energy from Intel
 * specifications.
 */

#ifndef GRAPHR_BASELINES_CPU_MODEL_HH
#define GRAPHR_BASELINES_CPU_MODEL_HH

#include "algorithms/collaborative_filtering.hh"
#include "algorithms/pagerank.hh"
#include "baselines/baseline_report.hh"
#include "baselines/cache_sim.hh"
#include "graph/coo.hh"

namespace graphr
{

struct AddOpSpec;

/** CPU platform parameters (defaults: 2x Xeon E5-2630 v3). */
struct CpuParams
{
    double frequencyGhz = 2.4;
    std::uint32_t threads = 32;       ///< 2 sockets x 8 cores x 2 SMT
    double effectiveParallelism = 6.0; ///< memory-bound scaling limit
    double packageWatts = 170.0;      ///< 2 x 85 W TDP
    /** Instruction work per edge visit (issue-limited cycles). */
    double cyclesPerEdge = 5.0;
    /** Instruction work per vertex update in the apply phase. */
    double cyclesPerVertex = 2.0;
    /** Per-iteration software overhead in microseconds. */
    double iterationOverheadUs = 50.0;
    /** MACs per rating for CF (2K for SGD forward+backward). */
    double cyclesPerMac = 1.0;
    /** GridGraph grid dimension P (selective-scheduling granularity). */
    std::uint32_t gridP = 32;
    CacheHierarchyParams cache;
};

/** Trace-driven GridGraph-like CPU execution model. */
class CpuModel
{
  public:
    explicit CpuModel(CpuParams params = CpuParams{});

    const CpuParams &params() const { return params_; }

    /** PageRank for a given iteration count (per-iteration replay). */
    BaselineReport runPageRank(const CooGraph &graph,
                               std::uint64_t iterations);

    /** One SpMV pass. */
    BaselineReport runSpmv(const CooGraph &graph);

    /** BFS from a source. */
    BaselineReport runBfs(const CooGraph &graph, VertexId source);

    /** SSSP from a source. */
    BaselineReport runSssp(const CooGraph &graph, VertexId source);

    /** WCC by min-label propagation over the symmetrised graph. */
    BaselineReport runWcc(const CooGraph &graph);

    /** CF training (GraphChi-style, per the paper's CPU setup). */
    BaselineReport runCf(const CooGraph &ratings, const CfParams &params);

  private:
    /**
     * Replay one full edge sweep (every edge visited once) through
     * the cache hierarchy; returns serial cycles consumed.
     */
    double edgeSweepCycles(const CooGraph &graph, CacheHierarchy &cache,
                           BaselineReport &report);

    /**
     * Replay the rounds of the BFS/SSSP/WCC relaxation @p spec
     * describes as GridGraph streams them: whole edge blocks, skipping
     * a block only when its entire source chunk is inactive (2-level
     * selective scheduling). Unlike Gunrock it cannot traverse a
     * per-vertex frontier, so inactive-source edges inside an active
     * chunk still cost their stream bytes plus a bitmap check.
     */
    BaselineReport relaxationTrace(const CooGraph &graph,
                                   const AddOpSpec &spec,
                                   const char *name) const;

    /** Convert serial cycles to wall-clock seconds. */
    double cyclesToSeconds(double cycles) const;

    /** Fill energy from time and DRAM traffic. */
    void finalize(BaselineReport &report, double seconds,
                  const CacheStats &stats) const;

    CpuParams params_;
};

} // namespace graphr

#endif // GRAPHR_BASELINES_CPU_MODEL_HH
