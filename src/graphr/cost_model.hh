/**
 * @file
 * Tile-level timing/energy cost model of the GraphR node.
 *
 * The model charges, per processed tile (paper section 3.2/3.3):
 *
 *  programming  — occupied wordlines are written serially per
 *                 crossbar, crossbars in parallel:
 *                 t_prog = maxRowsProgrammed * t_write
 *  MAC compute  — the driver applies the input slice-serially
 *                 (inputSlices array reads), the shared ADCs convert
 *                 every occupied physical bitline once per input
 *                 slice, sALU reduces one vector pass:
 *                 t_mac = inputSlices * t_read + t_adc + t_salu
 *  add-op       — per active source row: one array read (one-hot
 *                 select), bitline conversions, one comparator pass:
 *                 t_row = t_read + t_adc_row + t_salu
 *  streaming    — tile edges are read sequentially from memory
 *                 ReRAM at the streaming bandwidth.
 *
 * With pipelining enabled (default), programming of the next tile
 * overlaps evaluation of the current one, so a tile costs
 * max(t_prog, t_compute, t_stream); otherwise the phases add up.
 *
 * Energy is accounted by event counts in EnergyEvents and priced by
 * EnergyLedger; this class only decides how many events occur.
 */

#ifndef GRAPHR_GRAPHR_COST_MODEL_HH
#define GRAPHR_GRAPHR_COST_MODEL_HH

#include "graphr/config.hh"
#include "graph/tile_meta.hh"
#include "rram/energy.hh"

namespace graphr
{

/** Time pieces of one tile activation (nanoseconds). */
struct TileCost
{
    double programNs = 0.0; ///< raw write latency of this tile
    double computeNs = 0.0;
    double streamNs = 0.0;
    /**
     * Programming throughput cost under bank overlap: a tile uses
     * only `crossbarsUsed` of the N*G crossbars, so while one bank
     * evaluates, up to floor(N*G / crossbarsUsed) tiles program
     * concurrently into idle banks. Write energy is still paid in
     * full; only the latency is hidden.
     */
    double overlappedProgramNs = 0.0;

    /** Effective latency charged to the tile. */
    double
    totalNs(bool pipelined) const
    {
        if (pipelined) {
            return std::max(
                {overlappedProgramNs, computeNs, streamNs});
        }
        return programNs + computeNs + streamNs;
    }
};

/** Computes per-tile costs and emits the matching energy events. */
class CostModel
{
  public:
    explicit CostModel(const GraphRConfig &config);

    /**
     * Cost of processing one tile in parallel-MAC mode (all rows at
     * once). Also appends the implied events to @p events.
     *
     * @param passes number of MVM evaluations over the programmed
     *        tile (1 for PageRank/SpMV; 2*K for CF, one per feature
     *        per direction). Programming and streaming are charged
     *        once; evaluation time/events scale with passes.
     */
    TileCost macTile(const TileMeta &meta, EnergyEvents &events,
                     std::uint32_t passes = 1) const;

    /**
     * Cost of processing one tile in parallel-add-op mode with the
     * given number of active source rows (>= 1).
     */
    TileCost addOpTile(const TileMeta &meta, std::uint32_t active_rows,
                       EnergyEvents &events) const;

    /** Per-iteration fixed overhead (controller + convergence). */
    double iterationOverheadNs() const
    {
        return config_.iterationOverheadNs;
    }

    /** ADC conversion time for a number of samples (ns). */
    double adcTimeNs(std::uint64_t samples) const;

    /** Concurrent-programming depth for a tile's crossbar footprint. */
    double programOverlapDepth(std::uint32_t crossbars_used) const;

    const GraphRConfig &config() const { return config_; }

  private:
    GraphRConfig config_;
    /** Total shared ADCs across the node: adcsPerGe * G. */
    double totalAdcs_;
    /** Total crossbars across the node: N * G. */
    double totalCrossbars_;
};

} // namespace graphr

#endif // GRAPHR_GRAPHR_COST_MODEL_HH
