/**
 * @file
 * Functional graph engine: a bank of crossbars spanning one tile.
 *
 * A tile (paper "subgraph") is C rows x (C*N*G) columns; the full GE
 * array of one GraphR node covers it with N*G crossbars of C columns
 * each. This file implements the *functional* behaviour — program a
 * tile, run parallel-MAC or parallel-add-op over it — and counts the
 * device events (writes, reads, ADC samples, S/A, sALU, register
 * accesses) into an EnergyLedger. Timing is derived by the node-level
 * cost model from the same counts.
 */

#ifndef GRAPHR_RRAM_GRAPH_ENGINE_HH
#define GRAPHR_RRAM_GRAPH_ENGINE_HH

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "graph/edge.hh"
#include "graph/partition.hh"
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

/** One programmed cell of a tile: a merged, quantised value, 8 bytes. */
struct TileCell
{
    std::uint32_t col = 0; ///< tile-relative column
    FixedPoint::Raw raw = 0;
    std::uint16_t row = 0; ///< tile-relative row
};

/**
 * A programmed tile as the GE array reads it: its cells in (crossbar,
 * column, row) order — ascending tile column, then row — and the
 * wordlines an MVM of it reads (the distinct rows holding a nonzero
 * cell, summed over the occupied crossbars). A view: the cells live
 * in a TileCellStore.
 */
struct TileCells
{
    std::span<const TileCell> cells;
    std::uint64_t mvmRows = 0;
};

/**
 * The cells of the tiles one run programs, in one flat array. A
 * tile's cells are appended on its first program and read in place
 * from then on; nothing is copied back. The array is reserved once,
 * exactly, for the most cells the run can hold — one per edge, since
 * parallel edges merge — so it never reallocates, and pages of tiles
 * the run never visits are never touched.
 */
class TileCellStore
{
  public:
    TileCellStore() = default;

    /** Room for @p num_tiles tiles of @p max_cells cells in all. */
    TileCellStore(std::size_t num_tiles, std::uint64_t max_cells);

    bool
    programmed(std::size_t t) const
    {
        return slots_[t].begin != kUnprogrammed;
    }

    /** Tile @p t's cells, which program() wrote. */
    TileCells
    tile(std::size_t t) const
    {
        const Slot &slot = slots_[t];
        GRAPHR_ASSERT(slot.begin != kUnprogrammed, "tile ", t,
                      " not programmed");
        return TileCells{std::span<const TileCell>(cells_).subspan(
                             slot.begin, slot.count),
                         slot.mvmRows};
    }

    /**
     * Program tile @p t from its edges' local cell ids (row + col * C,
     * C = @p by_dim's divisor), ascending, as a plan's tile stream
     * holds them. @p weight_of(i, row, col) is the weight of the i-th
     * id's edge, whose tile-relative cell is (row, col). Parallel
     * edges — runs of equal ids — fold in order per @p combine; each
     * cell's weight is quantised with @p weight_frac_bits fractional
     * bits. Returns the tile's activity; charges nothing.
     */
    template <typename WeightOf>
    TileActivity program(std::size_t t,
                         std::span<const std::uint64_t> locals,
                         const Reciprocal &by_dim, int weight_frac_bits,
                         CombineMode combine, WeightOf weight_of);

  private:
    static constexpr std::uint64_t kUnprogrammed =
        std::numeric_limits<std::uint64_t>::max();

    /** A tile's cells are cells_[begin, begin + count). */
    struct Slot
    {
        std::uint64_t begin = kUnprogrammed;
        std::uint32_t count = 0;
        std::uint32_t mvmRows = 0;
    };

    std::vector<TileCell> cells_;
    std::vector<Slot> slots_;
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
 * holds: it reads the loaded tile's cells (TileCells) in place and
 * returns MAC and add-op results for programmed columns only, as
 * ascending (column, value) pairs. Without variation the MVM is one
 * integer multiply-add per cell, bit-identical to the crossbar's
 * slice-serial arithmetic, and loading a tile only points the array
 * at its cells. Programming variation is the device model's:
 * setVariation() builds the N*G Crossbars, and the array then mirrors
 * each loaded tile into them and reads its occupied crossbars in
 * ascending order. The device events cover every crossbar of the
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
     * Program a tile's edges and load it. Edge coordinates are
     * absolute; the tile origin (row0, col0) maps them into [0, C) x
     * [0, tileWidth). Weights are quantised with weight_frac_bits
     * fractional bits; parallel edges are merged per @p combine, in
     * input order. Edges already in (crossbar, column, row) order are
     * walked as given; others go through a stable sort first. The
     * cells go to a one-tile store the array keeps until the next
     * call. Returns the activity (also accumulated into the ledger).
     */
    TileActivity programTile(std::span<const Edge> edges,
                             std::uint64_t row0, std::uint64_t col0,
                             int weight_frac_bits,
                             CombineMode combine = CombineMode::kSum);

    /**
     * Make @p tile, whose cells must stay put while it is loaded, the
     * evaluation target. Charges no write events: whether a visit to
     * a tile programmed earlier counts as a reprogram or as switching
     * between resident banks is the caller's charging policy.
     */
    void load(TileCells tile);

    /** The loaded tile. */
    const TileCells &tile() const { return tile_; }

    /** Ascending indices of the crossbars the loaded tile occupies. */
    std::vector<std::uint32_t> occupiedCrossbars() const;

    /**
     * Parallel MAC over the loaded tile: y[col] += x[row] *
     * W[row][col] for all columns at once (paper section 4.1).
     * @p emit(col, value) receives one real-valued column sum per
     * programmed column, ascending; every other column sums to 0.
     *
     * @param input_raw per-row inputs (C of them), already quantised
     *        with input_frac_bits
     * @param input_frac_bits input quantisation
     * @param weight_frac_bits must match the tile's programming
     */
    template <typename Emit>
    void runMacRaw(std::span<const FixedPoint::Raw> input_raw,
                   int input_frac_bits, int weight_frac_bits, Emit emit);

    /** runMacRaw() of real inputs (length C), quantised here, into
     *  @p out as ascending (column, sum) pairs. */
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

    /** sALU shared by the node (configured per algorithm). */
    Salu &salu() { return salu_; }

    /**
     * Enable cell programming variation: a sigma above zero builds
     * the crossbars, seeded seed, seed + 1, ... Call it before the
     * first tile is loaded.
     */
    void setVariation(double sigma_levels, std::uint64_t seed);

  private:
    std::uint32_t crossbarDim_;
    std::uint32_t numCrossbars_;
    DeviceParams params_;
    EnergyLedger &ledger_;
    /** The loaded tile. */
    TileCells tile_;
    /** programTile()'s cells. */
    TileCellStore own_;
    /**
     * Under variation only: the device model, one Crossbar per
     * column block, holding the loaded tile's cells (mirrored_ lists
     * the ones it occupies). Each crossbar owns its RNG and empty
     * rows draw nothing, so reading the occupied crossbars in
     * ascending order leaves every variation draw where a full-width
     * walk would make it.
     */
    std::vector<Crossbar> crossbars_;
    std::vector<std::uint32_t> mirrored_;
    /** Scratch reused across calls: the MAC hot loop never allocates. */
    std::vector<FixedPoint::Raw> rawIn_;
    std::vector<std::uint64_t> columns_;
    std::vector<FixedPoint::Raw> rowValues_;
    Salu salu_{SaluOp::kAdd};

    /** Charge one MAC's device events: every crossbar is read. */
    void chargeMac();
};

template <typename Emit>
void
GraphEngineArray::runMacRaw(std::span<const FixedPoint::Raw> input_raw,
                            int input_frac_bits, int weight_frac_bits,
                            Emit emit)
{
    GRAPHR_ASSERT(input_raw.size() == crossbarDim_, "input length ",
                  input_raw.size(), " != C ", crossbarDim_);

    // The fixed-point scale is a power of two, so multiplying by its
    // reciprocal is dividing by it, to the bit.
    const double inv_scale =
        1.0 / (static_cast<double>(1u << input_frac_bits) *
               static_cast<double>(1u << weight_frac_bits));
    const TileCell *cell = tile_.cells.data();
    const TileCell *const last = cell + tile_.cells.size();
    if (crossbars_.empty()) {
        // Exact: slice recombination distributes over the row sum, so
        // the slice-serial MVM of a column is its cells' integer dot
        // product with the raw inputs, below 2^38 for C <= 64.
        const FixedPoint::Raw *in = input_raw.data();
        while (cell != last) {
            const std::uint32_t col = cell->col;
            std::int64_t sum = 0;
            for (; cell != last && cell->col == col; ++cell)
                sum += std::int64_t{in[cell->row]} * cell->raw;
            emit(col, static_cast<double>(sum) * inv_scale);
        }
        Crossbar::countMvmRows(tile_.mvmRows);
    } else {
        // Under variation the crossbar's reading replaces that sum:
        // each occupied crossbar runs its MVM once, when the walk
        // reaches it, and counts the rows it reads.
        std::uint32_t read_cb = std::numeric_limits<std::uint32_t>::max();
        while (cell != last) {
            const std::uint32_t col = cell->col;
            while (cell != last && cell->col == col)
                ++cell;
            const std::uint32_t cb = col / crossbarDim_;
            if (cb != read_cb) {
                crossbars_[cb].mvmRawInto(input_raw, columns_);
                read_cb = cb;
            }
            emit(col, static_cast<double>(columns_[col % crossbarDim_]) *
                          inv_scale);
        }
    }
    chargeMac();
}

template <typename WeightOf>
TileActivity
TileCellStore::program(std::size_t t, std::span<const std::uint64_t> locals,
                       const Reciprocal &by_dim, int weight_frac_bits,
                       CombineMode combine, WeightOf weight_of)
{
    GRAPHR_ASSERT(!programmed(t), "tile ", t, " programmed twice");
    GRAPHR_ASSERT(cells_.capacity() - cells_.size() >= locals.size(),
                  "cell store full");
    const std::uint64_t dim = by_dim.divisor();
    Slot &slot = slots_[t];
    slot.begin = cells_.size();

    // Per occupied crossbar, one array write op programs each
    // wordline holding a cell (all its bitlines, hence all slices of
    // the row's values at once), and an MVM reads each wordline
    // holding a nonzero one. Cells ascend by column, so each
    // crossbar's are one run, closed when a cell lies past it.
    TileActivity activity;
    activity.cellWrites = locals.size();
    std::uint64_t crossbar_end = 0;
    std::uint64_t written = 0;
    std::uint64_t nonzero = 0;
    const auto close_crossbar = [&] {
        const auto rows = static_cast<std::uint32_t>(std::popcount(written));
        ++activity.crossbarsUsed;
        activity.maxRowsProgrammed =
            std::max(activity.maxRowsProgrammed, rows);
        activity.rowWriteOps += rows;
        slot.mvmRows += static_cast<std::uint32_t>(std::popcount(nonzero));
    };

    // A crossbar cell holds one value: parallel edges are adjacent
    // ids, folded in stream order (sum for additive reduces, min for
    // relaxation).
    for (std::size_t i = 0; i < locals.size();) {
        const std::uint64_t local = locals[i];
        const std::uint64_t col = by_dim.quotientWide(local);
        const auto row = static_cast<std::uint32_t>(local - col * dim);
        double weight = weight_of(i, row, col);
        std::size_t j = i + 1;
        for (; j < locals.size() && locals[j] == local; ++j) {
            const double next = weight_of(j, row, col);
            weight = combine == CombineMode::kSum ? weight + next
                                                  : std::min(weight, next);
        }
        const FixedPoint::Raw raw =
            FixedPoint::quantize(weight, weight_frac_bits).raw();
        if (col >= crossbar_end) {
            if (written != 0)
                close_crossbar();
            crossbar_end = (by_dim.quotientWide(col) + 1) * dim;
            written = 0;
            nonzero = 0;
        }
        written |= std::uint64_t{1} << row;
        nonzero |= std::uint64_t{raw != 0} << row;
        cells_.push_back(TileCell{static_cast<std::uint32_t>(col), raw,
                                  static_cast<std::uint16_t>(row)});
        i = j;
    }
    if (written != 0)
        close_crossbar();
    slot.count = static_cast<std::uint32_t>(cells_.size() - slot.begin);
    return activity;
}

} // namespace graphr

#endif // GRAPHR_RRAM_GRAPH_ENGINE_HH
