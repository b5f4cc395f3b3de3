#include "graph_engine.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.hh"

namespace graphr
{

GraphEngineArray::GraphEngineArray(std::uint32_t crossbar_dim,
                                   std::uint32_t num_crossbars,
                                   const DeviceParams &params,
                                   EnergyLedger &ledger)
    : crossbarDim_(crossbar_dim), numCrossbars_(num_crossbars),
      params_(params), ledger_(ledger)
{
    GRAPHR_ASSERT(num_crossbars > 0, "need >= 1 crossbar");
    GRAPHR_ASSERT(crossbarDim_ > 0 && crossbarDim_ <= 64,
                  "row masks support crossbars up to 64x64");
    GRAPHR_ASSERT(tileWidth() <= std::numeric_limits<std::uint32_t>::max(),
                  "tile width ", tileWidth(), " exceeds 32-bit columns");
    rawIn_.resize(crossbarDim_);
    columns_.resize(crossbarDim_);
}

void
GraphEngineArray::mirrorTile(bool program)
{
    if (crossbars_.empty())
        return;
    for (const TileSnapshot::CellValue &cell : tile_.cells) {
        Crossbar &crossbar = crossbars_[cell.col / crossbarDim_];
        if (program) {
            crossbar.programValue(cell.row, cell.col % crossbarDim_,
                                  FixedPoint::fromRaw(cell.raw, 0));
        } else {
            crossbar.clear();
        }
    }
}

bool
GraphEngineArray::present(std::uint32_t row, std::uint64_t col) const
{
    GRAPHR_ASSERT(row < crossbarDim_ && col < tileWidth(), "cell (", row,
                  ",", col, ") outside tile");
    return std::any_of(tile_.cells.begin(), tile_.cells.end(),
                       [row, col](const TileSnapshot::CellValue &cell) {
                           return cell.row == row && cell.col == col;
                       });
}

std::vector<std::uint32_t>
GraphEngineArray::occupiedCrossbars() const
{
    std::vector<std::uint32_t> occupied;
    for (const TileSnapshot::CellValue &cell : tile_.cells) {
        const std::uint32_t cb = cell.col / crossbarDim_;
        if (occupied.empty() || occupied.back() != cb)
            occupied.push_back(cb);
    }
    return occupied;
}

TileActivity
GraphEngineArray::programTile(std::span<const Edge> edges,
                              std::uint64_t row0, std::uint64_t col0,
                              int weight_frac_bits, CombineMode combine)
{
    mirrorTile(false);

    // (crossbar, column, row) order is tile-column-major order: the
    // order a plan's tile stream already arrives in (Eq. 8).
    const std::uint64_t dim = crossbarDim_;
    const auto cell_key = [row0, col0, dim](const Edge &e) {
        return (e.dst - col0) * dim + (e.src - row0);
    };
    bool sorted = true;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const Edge &e = edges[i];
        GRAPHR_ASSERT(e.src >= row0 && e.src - row0 < crossbarDim_,
                      "edge row ", e.src, " outside tile at ", row0);
        GRAPHR_ASSERT(e.dst >= col0 && e.dst - col0 < tileWidth(),
                      "edge col ", e.dst, " outside tile at ", col0);
        if (i > 0 && cell_key(edges[i - 1]) > cell_key(e))
            sorted = false;
    }
    std::span<const Edge> cells = edges;
    if (!sorted) {
        sorted_.assign(edges.begin(), edges.end());
        std::stable_sort(sorted_.begin(), sorted_.end(),
                         [&cell_key](const Edge &a, const Edge &b) {
                             return cell_key(a) < cell_key(b);
                         });
        cells = sorted_;
    }

    // A crossbar cell holds one value: parallel edges are adjacent
    // now, and fold in input order (sum for additive reduces, min for
    // relaxation).
    tile_.cells.clear();
    for (std::size_t i = 0; i < cells.size();) {
        const std::uint64_t key = cell_key(cells[i]);
        double weight = cells[i].weight;
        std::size_t j = i + 1;
        for (; j < cells.size() && cell_key(cells[j]) == key; ++j) {
            weight = combine == CombineMode::kSum
                         ? weight + cells[j].weight
                         : std::min(weight, cells[j].weight);
        }
        tile_.cells.push_back(TileSnapshot::CellValue{
            static_cast<std::uint32_t>(key / dim),
            FixedPoint::quantize(weight, weight_frac_bits).raw(),
            static_cast<std::uint16_t>(key % dim)});
        i = j;
    }

    // Per occupied crossbar, one array write op programs each
    // wordline holding a cell (all its bitlines, hence all slices of
    // the row's values at once), and an MVM reads each wordline
    // holding a nonzero one.
    TileActivity activity;
    activity.cellWrites = edges.size();
    tile_.mvmRows = 0;
    const std::vector<TileSnapshot::CellValue> &placed = tile_.cells;
    for (std::size_t i = 0; i < placed.size();) {
        const std::uint32_t cb = placed[i].col / crossbarDim_;
        std::uint64_t written = 0;
        std::uint64_t nonzero = 0;
        for (; i < placed.size() && placed[i].col / crossbarDim_ == cb; ++i) {
            written |= std::uint64_t{1} << placed[i].row;
            nonzero |= std::uint64_t{placed[i].raw != 0} << placed[i].row;
        }
        const auto rows = static_cast<std::uint32_t>(std::popcount(written));
        ++activity.crossbarsUsed;
        activity.maxRowsProgrammed =
            std::max(activity.maxRowsProgrammed, rows);
        activity.rowWriteOps += rows;
        tile_.mvmRows += static_cast<std::uint64_t>(std::popcount(nonzero));
    }

    mirrorTile(true);
    ledger_.events().arrayWrites += activity.rowWriteOps;
    return activity;
}

void
GraphEngineArray::loadTile(const TileSnapshot &snapshot)
{
    mirrorTile(false);
    tile_ = snapshot;
    mirrorTile(true);
}

void
GraphEngineArray::runMac(const std::vector<double> &input,
                         int input_frac_bits, int weight_frac_bits,
                         std::vector<ColumnValue> &out)
{
    GRAPHR_ASSERT(input.size() == crossbarDim_, "input length ",
                  input.size(), " != C ", crossbarDim_);

    for (std::uint32_t r = 0; r < crossbarDim_; ++r)
        rawIn_[r] = FixedPoint::quantize(input[r], input_frac_bits).raw();

    const double scale =
        static_cast<double>(1u << input_frac_bits) *
        static_cast<double>(1u << weight_frac_bits);

    // Exact: slice recombination distributes over the row sum, so the
    // slice-serial MVM of a column is its cells' uint64 dot product
    // with the raw inputs. Under variation the crossbar's reading
    // replaces that sum: each occupied crossbar runs its MVM once,
    // when the walk reaches it, and counts the rows it reads.
    const std::vector<TileSnapshot::CellValue> &cells = tile_.cells;
    const bool exact = crossbars_.empty();
    std::uint32_t read_cb = std::numeric_limits<std::uint32_t>::max();
    out.clear();
    for (std::size_t i = 0; i < cells.size();) {
        const std::uint32_t col = cells[i].col;
        std::uint64_t sum = 0;
        for (; i < cells.size() && cells[i].col == col; ++i) {
            sum += static_cast<std::uint64_t>(rawIn_[cells[i].row]) *
                   cells[i].raw;
        }
        if (!exact) {
            const std::uint32_t cb = col / crossbarDim_;
            if (cb != read_cb) {
                crossbars_[cb].mvmRawInto(rawIn_, columns_);
                read_cb = cb;
            }
            sum = columns_[col % crossbarDim_];
        }
        out.push_back(ColumnValue{col, static_cast<double>(sum) / scale});
    }
    if (exact)
        Crossbar::countMvmRows(tile_.mvmRows);

    // Every crossbar of the array is read, occupied or not: one
    // array read per input slice, one ADC sample per physical bitline
    // (C values x weight slices) per input slice.
    const std::uint64_t n = numCrossbars_;
    const auto in_slices = static_cast<std::uint64_t>(params_.inputSlices);
    const std::uint64_t samples =
        in_slices * crossbarDim_ * params_.slicesPerValue() * n;
    ledger_.events().arrayReads += in_slices * n;
    ledger_.events().adcSamples += samples;
    ledger_.events().sampleHolds += samples;
    ledger_.events().shiftAdds += tileWidth();
}

void
GraphEngineArray::runAddOp(std::uint32_t row, double dist_u,
                           int weight_frac_bits, std::vector<ColumnValue> &out)
{
    GRAPHR_ASSERT(row < crossbarDim_, "row ", row, " outside tile");

    const double w_scale = static_cast<double>(1u << weight_frac_bits);
    std::uint32_t read_cb = std::numeric_limits<std::uint32_t>::max();
    std::vector<FixedPoint::Raw> row_vals;
    out.clear();
    for (const TileSnapshot::CellValue &cell : tile_.cells) {
        if (cell.row != row)
            continue;
        FixedPoint::Raw raw = cell.raw;
        if (!crossbars_.empty()) {
            // Under variation each crossbar holding an edge in the
            // row reads the wordline once, in ascending order.
            const std::uint32_t cb = cell.col / crossbarDim_;
            if (cb != read_cb) {
                row_vals = crossbars_[cb].selectRow(row);
                read_cb = cb;
            }
            raw = row_vals[cell.col % crossbarDim_];
        }
        // The fixed "1" row adds dist(u) to each weight in analog
        // (paper Fig. 16(c)); functionally that is w + dist_u.
        out.push_back(ColumnValue{
            cell.col, static_cast<double>(raw) / w_scale + dist_u});
    }

    // Every crossbar of the array reads the selected wordline.
    const std::uint64_t n = numCrossbars_;
    const std::uint64_t samples =
        n * crossbarDim_ * params_.slicesPerValue();
    ledger_.events().arrayReads += n;
    ledger_.events().adcSamples += samples;
    ledger_.events().sampleHolds += samples;
    ledger_.events().shiftAdds += tileWidth();
}

void
GraphEngineArray::setVariation(double sigma_levels, std::uint64_t seed)
{
    GRAPHR_ASSERT(tile_.cells.empty(),
                  "set variation before programming a tile");
    crossbars_.clear();
    if (sigma_levels <= 0.0)
        return;
    crossbars_.reserve(numCrossbars_);
    for (std::uint32_t i = 0; i < numCrossbars_; ++i) {
        crossbars_.emplace_back(crossbarDim_, params_);
        crossbars_.back().setVariation(sigma_levels, seed + i);
    }
}

} // namespace graphr
