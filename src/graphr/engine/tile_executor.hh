/**
 * @file
 * TileExecutor: the one tile-walk shared by every GraphR runner.
 *
 * Before this layer existed the simulator carried five hand-rolled
 * copies of the same loop over the non-empty tile table — the MAC
 * timing walk, the PageRank and SpMV functional walks, and the add-op
 * timing and functional walks. The executor owns that loop once and
 * drives both the cost-model accounting and the functional GE
 * datapath from small per-algorithm specs:
 *
 *  - MacSpec describes a parallel-MAC schedule (PageRank, SpMV, CF):
 *    sweep count, MVM passes per tile, and — for functional runs —
 *    how an edge's programmed weight derives from the edge.
 *  - AddOpSpec (algorithms/traversal.hh) describes a parallel-add-op
 *    relaxation (BFS, SSSP, WCC): initial labels, initial active set,
 *    weight mode, and the recorded rounds forEachRound() walks.
 *
 * The functional path keeps one flat cell store per run
 * (rram/graph_engine.hh: TileCellStore, 8 bytes a cell, reserved
 * once for the plan's edges). A tile is programmed on its first
 * visit straight from the local cell ids the plan's stream decodes
 * to — parallel edges merged, weights scaled per source and
 * quantised — and every later visit reads its cells in place: under
 * ProgramCharging::kPerSweep that is the sweep's reprogram of the
 * tile, under kOnce a switch to its resident bank. Either way the
 * cells are those the edges would program again, so the charging
 * policy picks the counter, not the outputs.
 */

#ifndef GRAPHR_GRAPHR_ENGINE_TILE_EXECUTOR_HH
#define GRAPHR_GRAPHR_ENGINE_TILE_EXECUTOR_HH

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "algorithms/traversal.hh"
#include "graphr/config.hh"
#include "graphr/cost_model.hh"
#include "graphr/engine/tile_plan.hh"
#include "graphr/sim_report.hh"

namespace graphr
{

/** Per-algorithm parallel-MAC schedule description. */
struct MacSpec
{
    const char *name = "mac";
    /** Timing sweeps over the tile table (algorithm iterations). */
    std::uint64_t sweeps = 1;
    /** MVM evaluations per programmed tile per sweep (CF: features). */
    std::uint32_t passesPerTile = 1;
    /**
     * Functional only: the per-source rule for the weight an edge
     * programs. Edge u -> v of weight w programs n / sourceDivisors[u],
     * n being weightNumerator when set and w otherwise: PageRank
     * programs damping / outDegree(u), SpMV w / outDegree(u). The
     * executor divides once per source, and with no numerator set
     * reads that quotient, 1 / divisor, on the tiles whose weights
     * are all 1.0; other tiles divide per edge. The span must outlive
     * the executor's sweeps.
     */
    std::span<const EdgeId> sourceDivisors;
    std::optional<double> weightNumerator;
    /**
     * Functional only, without sourceDivisors: programmed weight of
     * one edge, called per edge on the tile's first program. Null
     * keeps raw weights.
     */
    std::function<double(const Edge &)> edgeScale;
    /**
     * Apply the configured cell-programming variation to this
     * schedule's functional datapath. SpMV turns it off: it is the
     * exactness-validation workload; variation belongs to the
     * algorithm-level resilience experiments (PageRank, add-op).
     */
    bool applyVariation = true;
};

/** Counters one executor keeps about its run (tests and benches). */
struct EngineStats
{
    /** Whether the plan came out of the PlanCache (set by callers). */
    bool planCacheHit = false;
    /** Functional tile programs: first visits, and under
     *  ProgramCharging::kPerSweep every later visit too. */
    std::uint64_t functionalTilePrograms = 0;
    /** Later visits under kOnce: a switch to the tile's resident
     *  bank, not a reprogram. */
    std::uint64_t functionalTileLoads = 0;
};

/**
 * Walks one TilePlan for one run. Construct per run (cheap — the
 * heavy state is the shared plan); the same instance serves the
 * timing report and any functional sweeps of that run so resident
 * weights persist across iterations.
 *
 * Preconditions: @p config has passed GraphRConfig::validate (the
 * backends validate at construction) and its tiling matches the one
 * the plan was prepared under; @p plan is non-null. Thread-safety:
 * an instance is single-run, single-thread mutable state — parallel
 * sweeps give every run its own executor and share only the
 * immutable plan behind the TilePlanPtr. Functional walks mutate the
 * GE datapath and the stats; the timing-only macReport() is const
 * and touches neither.
 */
class TileExecutor
{
  public:
    TileExecutor(const GraphRConfig &config, TilePlanPtr plan);
    ~TileExecutor();

    TileExecutor(TileExecutor &&) noexcept;
    TileExecutor &operator=(TileExecutor &&) noexcept;

    const TilePlan &plan() const { return *plan_; }

    /**
     * Timing/energy report of a parallel-MAC schedule: one pass over
     * the tile table priced by the cost model, multiplied out per the
     * program-charging policy. (The former GraphRNode::runMacSweeps.)
     */
    SimReport macReport(const MacSpec &spec) const;

    /**
     * macReport() per destination stripe, in one pass over the plan:
     * stripe k holds the edges whose destination lies in
     * [k*w, (k+1)*w), w = ceil(V / @p num_stripes). Report k equals
     * macReport() on the plan of stripe k's edges alone (the
     * multi-node cluster's per-node sweep); a stripe without edges
     * gets an all-zero report. A tile whose columns lie in one stripe
     * is priced from its stored TileMeta; only a tile that crosses a
     * stripe boundary is decoded, and priced per run of its cells
     * (describeTile). Each
     * stripe's costs are summed in plan tile order — the order its
     * own plan would have — so the doubles match exactly.
     */
    std::vector<SimReport> macStripeReports(const MacSpec &spec,
                                            std::uint32_t num_stripes) const;

    /**
     * One functional MAC sweep over every tile of the plan:
     * program (or, on a later sweep, write back the kept cells of)
     * each tile, apply the matching rows of @p input, and sALU-reduce
     * the partial column sums into @p accum. Both vectors are indexed
     * by absolute vertex id. Every sweep of one executor programs the
     * same weights: @p spec's weight rule must not change between
     * them.
     */
    void functionalMacSweep(const MacSpec &spec,
                            const std::vector<Value> &input,
                            std::vector<Value> &accum);

    /**
     * Complete add-op run: the timing walk over the relaxation rounds
     * forEachRound() shows it (active-masked tiles priced by the cost
     * model) and, when @p labels_out is non-null, the final labels:
     * from the GE datapath in functional mode, else forEachRound()'s.
     * A round costs its frontier: its tiles come from the plan's
     * tile-row index (TileMetaTable::rowTiles), not a walk over every
     * tile. The plan holds @p graph's edges read in spec.directions.
     */
    SimReport addOpRun(const CooGraph &graph, const AddOpSpec &spec,
                       const char *name,
                       std::vector<Value> *labels_out);

    EngineStats &stats() { return stats_; }
    const EngineStats &stats() const { return stats_; }

  private:
    struct MacDatapath; ///< functional GE state (lazily built)
    struct MacSums;     ///< one MAC pass's cost sums over some tiles

    /** Price one tile of a MAC pass into @p sums. */
    void addMacTile(MacSums &sums, const TileMeta &meta,
                    std::uint32_t passes) const;

    /** The report of @p spec's sweeps over the tiles in @p sums. */
    SimReport finishMac(const MacSpec &spec, const MacSums &sums) const;

    /**
     * Count a visit that writes a tile's kept cells back: a load of
     * its resident bank under ProgramCharging::kOnce, the sweep's
     * rewrite of the tile (a program) under kPerSweep.
     */
    void
    countReplay()
    {
        ++(config_.programCharging == ProgramCharging::kOnce
               ? stats_.functionalTileLoads
               : stats_.functionalTilePrograms);
    }

    /** Program tile @p t of a MAC sweep into the run's cell store. */
    void programMacTile(const MacSpec &spec, std::size_t t);

    /** Functional GE execution of the relaxation to convergence. */
    std::vector<Value> functionalAddOpSolve(const CooGraph &graph,
                                            const AddOpSpec &spec);

    GraphRConfig config_;
    CostModel costModel_;
    TilePlanPtr plan_;
    std::unique_ptr<MacDatapath> mac_;
    /** A functional walk decodes a tile's local cell ids here, and
     *  its weights when they are not all 1.0, on its first program. */
    std::vector<std::uint64_t> locals_;
    std::vector<double> weights_;
    EngineStats stats_;
};

} // namespace graphr

#endif // GRAPHR_GRAPHR_ENGINE_TILE_EXECUTOR_HH
