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
 * Saved programmed state of one tile: the quantised nonzero cells.
 * Under ProgramCharging::kOnce every tile's weights stay resident in
 * its own crossbar bank after the initial programming; the functional
 * model serialises tiles through one GraphEngineArray, so "resident"
 * is modelled by snapshotting a tile after its first (and only)
 * programTile() and replaying the snapshot on later visits.
 * loadTile() charges no write events — switching the evaluation
 * target between already-programmed banks is not a reprogram.
 *
 * The snapshot stores logical (row, col, raw) triples, independent of
 * the crossbar's internal layout: loadTile() re-packs them through
 * programValue(), which rebuilds the SoA slice planes, the packed raw
 * plane and the row-occupancy mask consistently. Cells are in
 * crossbar order (ascending col / C), as saveTile() writes them.
 */
struct TileSnapshot
{
    struct CellValue
    {
        std::uint32_t row = 0;
        std::uint64_t col = 0; ///< tile-relative column
        FixedPoint::Raw raw = 0;
    };
    std::vector<CellValue> cells;
    int fracBits = 0;
};

/**
 * Functional model of the full GE array of a GraphR node operating on
 * one tile at a time.
 *
 * A tile at the paper's tiling spans 2,048 crossbars but holds a few
 * dozen edges, so the array does host work only for its *occupied*
 * crossbars (those holding at least one programmed cell): it keeps
 * them as an ascending list, clears only them on reprogram, and
 * returns MAC and add-op results in compact form — C columns per
 * occupied crossbar, in occupiedCrossbars() order. The device events
 * still cover every crossbar of the array: the ledger charges them in
 * closed form.
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
    std::uint32_t numCrossbars() const
    {
        return static_cast<std::uint32_t>(crossbars_.size());
    }
    /** Tile width in values = C * numCrossbars. */
    std::uint64_t tileWidth() const
    {
        return static_cast<std::uint64_t>(crossbarDim_) * numCrossbars();
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

    /**
     * Ascending indices of the crossbars the current tile occupies.
     * Compact results hold C values per entry: value k * C + c is
     * tile column occupiedCrossbars()[k] * C + c. Every other column
     * is 0 for a MAC and +infinity for an add-op.
     */
    std::span<const std::uint32_t>
    occupiedCrossbars() const
    {
        return occupied_;
    }

    /**
     * Parallel MAC over the programmed tile: y[col] += x[row] *
     * W[row][col] for all columns at once (paper section 4.1).
     *
     * @param input per-row real inputs (length C), quantised with
     *        input_frac_bits
     * @param input_frac_bits input quantisation
     * @param weight_frac_bits must match programTile's
     * @param out compact real-valued column sums (see
     *        occupiedCrossbars()); resized, reuse it across tiles
     */
    void runMac(const std::vector<double> &input, int input_frac_bits,
                int weight_frac_bits, std::vector<double> &out);

    /**
     * Parallel add-op for one active source row (paper section 4.2,
     * Fig. 16(c)): dist_u + W[row][col] for every column that holds
     * an edge, and +infinity for absent columns, in compact form.
     *
     * @param row tile-relative source row
     * @param dist_u current distance label of the source
     * @param weight_frac_bits quantisation used when programming
     * @param out compact candidates (see occupiedCrossbars())
     */
    void runAddOp(std::uint32_t row, double dist_u, int weight_frac_bits,
                  std::vector<double> &out);

    /** Does tile-relative cell (row, col) hold an edge? */
    bool present(std::uint32_t row, std::uint64_t col) const;

    /**
     * Capture the currently programmed tile (exact stored raw values;
     * @p weight_frac_bits must match the programTile() call).
     */
    TileSnapshot saveTile(int weight_frac_bits) const;

    /**
     * Make a previously saved tile the evaluation target again.
     * Restores cells and presence exactly; charges no write events
     * (see TileSnapshot).
     */
    void loadTile(const TileSnapshot &snapshot);

    /** sALU shared by the node (configured per algorithm). */
    Salu &salu() { return salu_; }

    /** Enable cell programming variation on all crossbars. */
    void setVariation(double sigma_levels, std::uint64_t seed);

  private:
    std::uint32_t crossbarDim_;
    DeviceParams params_;
    EnergyLedger &ledger_;
    std::vector<Crossbar> crossbars_;
    /**
     * Ascending indices of the crossbars holding programmed cells.
     * Empty crossbars produce all-zero MVM columns and never touch
     * the variation RNG (level-0 cells read exactly), so compute
     * walks only these — and, each crossbar owning its RNG, walking
     * them in ascending order leaves every variation draw in place.
     */
    std::vector<std::uint32_t> occupied_;
    /**
     * Presence, crossbar-major: word cb * C + row has bit c set when
     * tile cell (row, cb * C + c) holds an edge (C <= 64). A cell may
     * be present with a zero value (WCC programs zero weights).
     */
    std::vector<std::uint64_t> present_;
    /** Scratch reused across calls: the MAC hot loop never allocates. */
    std::vector<FixedPoint::Raw> rawIn_;
    std::vector<std::uint64_t> columns_;
    std::vector<Edge> sorted_;
    Salu salu_{SaluOp::kAdd};

    /** First presence word of crossbar @p cb. */
    std::uint64_t *
    presenceOf(std::uint32_t cb)
    {
        return present_.data() + static_cast<std::size_t>(cb) * crossbarDim_;
    }

    /** Zero every occupied crossbar and its presence words. */
    void clearProgrammedState();

    /** Store one cell's value and presence bit. */
    void placeCell(std::uint32_t row, std::uint64_t col, FixedPoint value);
};

} // namespace graphr

#endif // GRAPHR_RRAM_GRAPH_ENGINE_HH
