/**
 * @file
 * Functional graph engine: a bank of crossbars spanning one tile.
 *
 * A tile (paper "subgraph") is C rows x (C*N*G) columns; the full GE
 * array of one GraphR node covers it with N*G crossbars of C columns
 * each. This class implements the *functional* behaviour — program a
 * tile, run parallel-MAC or parallel-add-op over it — and counts the
 * device events (writes, reads, ADC samples, S/A, sALU, register
 * accesses) into an EnergyLedger. Timing is derived by the node-level
 * cost model from the same counts.
 */

#ifndef GRAPHR_RRAM_GRAPH_ENGINE_HH
#define GRAPHR_RRAM_GRAPH_ENGINE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/fixed_point.hh"
#include "graph/edge.hh"
#include "rram/crossbar.hh"
#include "rram/energy.hh"
#include "rram/salu.hh"

namespace graphr
{

/**
 * How parallel (duplicate) edges are merged into one matrix cell. A
 * crossbar cell can hold only one value, so multigraph edges must be
 * combined consistently with the algorithm's reduce function: kSum
 * for additive reduces (parallel MAC), kMin for min reduces
 * (parallel add-op).
 */
enum class CombineMode
{
    kSum,
    kMin,
};

/** Per-tile device activity summary (feeds the cost model). */
struct TileActivity
{
    std::uint32_t crossbarsUsed = 0;   ///< crossbars with >= 1 nonzero
    std::uint32_t maxRowsProgrammed = 0; ///< serial row-write depth
    std::uint64_t cellWrites = 0;      ///< logical values programmed
    std::uint64_t rowWriteOps = 0;     ///< array-level row writes
    std::uint64_t readPasses = 0;      ///< array read operations
    std::uint64_t adcSamples = 0;
    std::uint64_t saluOps = 0;
};

/**
 * A programmed tile: its merged, quantised cells in (crossbar,
 * column, row) order — ascending tile column, then row — at 8 bytes
 * a cell. It is the GE array's whole state, so saveTile() and
 * loadTile() copy it and derive nothing: a functional run keeps every
 * tile's snapshot after its first programTile() and replays it on
 * later visits. loadTile() charges no write events; whether a replay
 * counts as a reprogram or as switching between resident banks is the
 * caller's charging policy.
 */
struct TileSnapshot
{
    struct CellValue
    {
        std::uint32_t col = 0; ///< tile-relative column
        FixedPoint::Raw raw = 0;
        std::uint16_t row = 0; ///< tile-relative row
    };
    std::vector<CellValue> cells;
    /** Wordlines an MVM of the tile reads: the distinct rows holding
     *  a nonzero cell, summed over the occupied crossbars. */
    std::uint64_t mvmRows = 0;
};

/** One entry of a MAC or add-op result: a tile column and its value. */
struct ColumnValue
{
    std::uint32_t col = 0;
    double value = 0.0;
};

/**
 * Functional model of the full GE array of a GraphR node operating on
 * one tile at a time.
 *
 * A tile at the paper's tiling spans 2,048 crossbars but holds a few
 * dozen edges, so the array's host work is sized by the cells it
 * holds: it keeps the tile as its cell list (TileSnapshot) and
 * returns MAC and add-op results for programmed columns only, as
 * ascending (column, value) pairs. Without variation the MVM is one
 * integer multiply-add per cell, bit-identical to the crossbar's
 * slice-serial arithmetic. Programming variation is the device
 * model's: setVariation() builds the N*G Crossbars, and the array
 * then mirrors each tile into them and reads its occupied crossbars
 * in ascending order. The device events cover every crossbar of the
 * array: the ledger charges them in closed form.
 */
class GraphEngineArray
{
  public:
    /**
     * @param crossbar_dim C
     * @param num_crossbars N*G (crossbars across all GEs)
     * @param params device parameters
     * @param ledger energy event sink (must outlive this object)
     */
    GraphEngineArray(std::uint32_t crossbar_dim,
                     std::uint32_t num_crossbars,
                     const DeviceParams &params, EnergyLedger &ledger);

    std::uint32_t crossbarDim() const { return crossbarDim_; }
    std::uint32_t numCrossbars() const { return numCrossbars_; }
    /** Tile width in values = C * numCrossbars. */
    std::uint64_t tileWidth() const
    {
        return static_cast<std::uint64_t>(crossbarDim_) * numCrossbars_;
    }

    /**
     * Program a tile's edges. Edge coordinates are absolute; the
     * tile origin (row0, col0) maps them into [0, C) x [0,
     * tileWidth). Weights are quantised with weight_frac_bits
     * fractional bits; parallel edges are merged per @p combine, in
     * input order. Edges already in (crossbar, column, row) order —
     * a plan's tile stream — are walked as given; others go through
     * a stable sort first. Returns the activity (also accumulated
     * into the ledger).
     */
    TileActivity programTile(std::span<const Edge> edges,
                             std::uint64_t row0, std::uint64_t col0,
                             int weight_frac_bits,
                             CombineMode combine = CombineMode::kSum);

    /** Ascending indices of the crossbars the current tile occupies. */
    std::vector<std::uint32_t> occupiedCrossbars() const;

    /**
     * Parallel MAC over the programmed tile: y[col] += x[row] *
     * W[row][col] for all columns at once (paper section 4.1).
     *
     * @param input per-row real inputs (length C), quantised with
     *        input_frac_bits
     * @param input_frac_bits input quantisation
     * @param weight_frac_bits must match programTile's
     * @param out one real-valued column sum per programmed column,
     *        ascending; every other column sums to 0. Reuse it across
     *        tiles.
     */
    void runMac(const std::vector<double> &input, int input_frac_bits,
                int weight_frac_bits, std::vector<ColumnValue> &out);

    /**
     * Parallel add-op for one active source row (paper section 4.2,
     * Fig. 16(c)): dist_u + W[row][col] for every column where the
     * row holds an edge, ascending; every other column is +infinity.
     *
     * @param row tile-relative source row
     * @param dist_u current distance label of the source
     * @param weight_frac_bits quantisation used when programming
     * @param out the candidates; reuse it across rows
     */
    void runAddOp(std::uint32_t row, double dist_u, int weight_frac_bits,
                  std::vector<ColumnValue> &out);

    /** Does tile-relative cell (row, col) hold an edge? */
    bool present(std::uint32_t row, std::uint64_t col) const;

    /** Capture the currently programmed tile. */
    TileSnapshot saveTile() const { return tile_; }

    /**
     * Make a previously saved tile the evaluation target again.
     * Restores its cells exactly; charges no write events (see
     * TileSnapshot).
     */
    void loadTile(const TileSnapshot &snapshot);

    /** sALU shared by the node (configured per algorithm). */
    Salu &salu() { return salu_; }

    /**
     * Enable cell programming variation: a sigma above zero builds
     * the crossbars, seeded seed, seed + 1, ... Call it before the
     * first programTile().
     */
    void setVariation(double sigma_levels, std::uint64_t seed);

  private:
    std::uint32_t crossbarDim_;
    std::uint32_t numCrossbars_;
    DeviceParams params_;
    EnergyLedger &ledger_;
    TileSnapshot tile_;
    /**
     * Under variation only: the device model, one Crossbar per
     * column block, holding the current tile's cells. Each crossbar
     * owns its RNG and empty rows draw nothing, so reading the
     * occupied crossbars in ascending order leaves every variation
     * draw where a full-width walk would make it.
     */
    std::vector<Crossbar> crossbars_;
    /** Scratch reused across calls: the MAC hot loop never allocates. */
    std::vector<FixedPoint::Raw> rawIn_;
    std::vector<std::uint64_t> columns_;
    std::vector<Edge> sorted_;
    Salu salu_{SaluOp::kAdd};

    /** Under variation, program the tile's cells into their
     *  crossbars, or (@p program false) clear those crossbars. */
    void mirrorTile(bool program);
};

} // namespace graphr

#endif // GRAPHR_RRAM_GRAPH_ENGINE_HH
