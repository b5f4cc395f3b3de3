#include "graph_engine.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.hh"

namespace graphr
{

TileCellStore::TileCellStore(std::size_t num_tiles, std::uint64_t max_cells)
    : slots_(num_tiles)
{
    cells_.reserve(max_cells);
}

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
GraphEngineArray::load(TileCells tile)
{
    tile_ = tile;
    if (crossbars_.empty())
        return;
    for (const std::uint32_t cb : mirrored_)
        crossbars_[cb].clear();
    mirrored_.clear();
    for (const TileCell &cell : tile_.cells) {
        const std::uint32_t cb = cell.col / crossbarDim_;
        if (mirrored_.empty() || mirrored_.back() != cb)
            mirrored_.push_back(cb);
        crossbars_[cb].programValue(cell.row, cell.col % crossbarDim_,
                                    FixedPoint::fromRaw(cell.raw, 0));
    }
}

bool
GraphEngineArray::present(std::uint32_t row, std::uint64_t col) const
{
    GRAPHR_ASSERT(row < crossbarDim_ && col < tileWidth(), "cell (", row,
                  ",", col, ") outside tile");
    return std::any_of(tile_.cells.begin(), tile_.cells.end(),
                       [row, col](const TileCell &cell) {
                           return cell.row == row && cell.col == col;
                       });
}

std::vector<std::uint32_t>
GraphEngineArray::occupiedCrossbars() const
{
    std::vector<std::uint32_t> occupied;
    for (const TileCell &cell : tile_.cells) {
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
    // (crossbar, column, row) order is the order of the cells' local
    // ids, row + col * C (Eq. 8): the order a plan's tile stream
    // already arrives in.
    struct Keyed
    {
        std::uint64_t local;
        double weight;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(edges.size());
    bool sorted = true;
    for (const Edge &e : edges) {
        GRAPHR_ASSERT(e.src >= row0 && e.src - row0 < crossbarDim_,
                      "edge row ", e.src, " outside tile at ", row0);
        GRAPHR_ASSERT(e.dst >= col0 && e.dst - col0 < tileWidth(),
                      "edge col ", e.dst, " outside tile at ", col0);
        const std::uint64_t local =
            (e.dst - col0) * crossbarDim_ + (e.src - row0);
        if (!keyed.empty() && keyed.back().local > local)
            sorted = false;
        keyed.push_back(Keyed{local, e.weight});
    }
    if (!sorted) {
        std::stable_sort(keyed.begin(), keyed.end(),
                         [](const Keyed &a, const Keyed &b) {
                             return a.local < b.local;
                         });
    }
    std::vector<std::uint64_t> locals(keyed.size());
    for (std::size_t i = 0; i < keyed.size(); ++i)
        locals[i] = keyed[i].local;

    own_ = TileCellStore(1, locals.size());
    const TileActivity activity = own_.program(
        0, locals, Reciprocal(crossbarDim_), weight_frac_bits, combine,
        [&keyed](std::size_t i, std::uint32_t, std::uint64_t) {
            return keyed[i].weight;
        });
    load(own_.tile(0));
    ledger_.events().arrayWrites += activity.rowWriteOps;
    return activity;
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
    out.clear();
    runMacRaw(rawIn_, input_frac_bits, weight_frac_bits,
              [&out](std::uint32_t col, double value) {
                  out.push_back(ColumnValue{col, value});
              });
}

void
GraphEngineArray::chargeMac()
{
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

    // A power of two: its reciprocal multiplies exactly.
    const double inv_scale =
        1.0 / static_cast<double>(1u << weight_frac_bits);
    std::uint32_t read_cb = std::numeric_limits<std::uint32_t>::max();
    out.clear();
    for (const TileCell &cell : tile_.cells) {
        if (cell.row != row)
            continue;
        FixedPoint::Raw raw = cell.raw;
        if (!crossbars_.empty()) {
            // Under variation each crossbar holding an edge in the
            // row reads the wordline once, in ascending order.
            const std::uint32_t cb = cell.col / crossbarDim_;
            if (cb != read_cb) {
                rowValues_ = crossbars_[cb].selectRow(row);
                read_cb = cb;
            }
            raw = rowValues_[cell.col % crossbarDim_];
        }
        // The fixed "1" row adds dist(u) to each weight in analog
        // (paper Fig. 16(c)); functionally that is w + dist_u.
        out.push_back(ColumnValue{
            cell.col, static_cast<double>(raw) * inv_scale + dist_u});
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
