#include "graph_engine.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace graphr
{

GraphEngineArray::GraphEngineArray(std::uint32_t crossbar_dim,
                                   std::uint32_t num_crossbars,
                                   const DeviceParams &params,
                                   EnergyLedger &ledger)
    : crossbarDim_(crossbar_dim), params_(params), ledger_(ledger)
{
    GRAPHR_ASSERT(num_crossbars > 0, "need >= 1 crossbar");
    GRAPHR_ASSERT(crossbarDim_ <= 64,
                  "presence words support crossbars up to 64x64");
    crossbars_.reserve(num_crossbars);
    for (std::uint32_t i = 0; i < num_crossbars; ++i)
        crossbars_.emplace_back(crossbar_dim, params);
    present_.assign(static_cast<std::size_t>(num_crossbars) * crossbarDim_,
                    0);
    rawIn_.resize(crossbarDim_);
    columns_.resize(crossbarDim_);
}

void
GraphEngineArray::clearProgrammedState()
{
    for (const std::uint32_t cb : occupied_) {
        crossbars_[cb].clear();
        std::fill_n(presenceOf(cb), crossbarDim_, std::uint64_t{0});
    }
    occupied_.clear();
}

void
GraphEngineArray::placeCell(std::uint32_t row, std::uint64_t col,
                            FixedPoint value)
{
    const auto cb = static_cast<std::uint32_t>(col / crossbarDim_);
    const auto cb_col = static_cast<std::uint32_t>(col % crossbarDim_);
    if (occupied_.empty() || occupied_.back() != cb) {
        GRAPHR_ASSERT(occupied_.empty() || occupied_.back() < cb,
                      "cells must arrive in crossbar order");
        occupied_.push_back(cb);
    }
    crossbars_[cb].programValue(row, cb_col, value);
    presenceOf(cb)[row] |= std::uint64_t{1} << cb_col;
}

bool
GraphEngineArray::present(std::uint32_t row, std::uint64_t col) const
{
    GRAPHR_ASSERT(row < crossbarDim_ && col < tileWidth(), "cell (", row,
                  ",", col, ") outside tile");
    const std::uint64_t word =
        present_[(col / crossbarDim_) * crossbarDim_ + row];
    return (word >> (col % crossbarDim_)) & 1u;
}

TileActivity
GraphEngineArray::programTile(std::span<const Edge> edges,
                              std::uint64_t row0, std::uint64_t col0,
                              int weight_frac_bits, CombineMode combine)
{
    clearProgrammedState();

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
    for (std::size_t i = 0; i < cells.size();) {
        const std::uint64_t key = cell_key(cells[i]);
        double weight = cells[i].weight;
        std::size_t j = i + 1;
        for (; j < cells.size() && cell_key(cells[j]) == key; ++j) {
            weight = combine == CombineMode::kSum
                         ? weight + cells[j].weight
                         : std::min(weight, cells[j].weight);
        }
        placeCell(static_cast<std::uint32_t>(key % dim), key / dim,
                  FixedPoint::quantize(weight, weight_frac_bits));
        i = j;
    }

    TileActivity activity;
    activity.cellWrites = edges.size();
    activity.crossbarsUsed = static_cast<std::uint32_t>(occupied_.size());
    for (const std::uint32_t cb : occupied_) {
        const std::uint64_t *words = presenceOf(cb);
        const auto rows = static_cast<std::uint32_t>(std::count_if(
            words, words + crossbarDim_,
            [](std::uint64_t w) { return w != 0; }));
        activity.maxRowsProgrammed =
            std::max(activity.maxRowsProgrammed, rows);
        // One array write op programs a whole occupied wordline (all
        // bitlines, hence all slices of the row's values) at once.
        activity.rowWriteOps += rows;
    }

    ledger_.events().arrayWrites += activity.rowWriteOps;
    return activity;
}

void
GraphEngineArray::runMac(const std::vector<double> &input,
                         int input_frac_bits, int weight_frac_bits,
                         std::vector<double> &out)
{
    GRAPHR_ASSERT(input.size() == crossbarDim_, "input length ",
                  input.size(), " != C ", crossbarDim_);

    for (std::uint32_t r = 0; r < crossbarDim_; ++r)
        rawIn_[r] = FixedPoint::quantize(input[r], input_frac_bits).raw();

    const double scale =
        static_cast<double>(1u << input_frac_bits) *
        static_cast<double>(1u << weight_frac_bits);

    out.resize(occupied_.size() * crossbarDim_);
    for (std::size_t k = 0; k < occupied_.size(); ++k) {
        crossbars_[occupied_[k]].mvmRawInto(rawIn_, columns_);
        double *dst = out.data() + k * crossbarDim_;
        for (std::uint32_t c = 0; c < crossbarDim_; ++c)
            dst[c] = static_cast<double>(columns_[c]) / scale;
    }

    // Every crossbar of the array is read, occupied or not: one
    // array read per input slice, one ADC sample per physical bitline
    // (C values x weight slices) per input slice.
    const std::uint64_t n = numCrossbars();
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
                           int weight_frac_bits, std::vector<double> &out)
{
    GRAPHR_ASSERT(row < crossbarDim_, "row ", row, " outside tile");

    const double w_scale = static_cast<double>(1u << weight_frac_bits);
    out.resize(occupied_.size() * crossbarDim_);
    for (std::size_t k = 0; k < occupied_.size(); ++k) {
        const std::uint32_t cb = occupied_[k];
        double *dst = out.data() + k * crossbarDim_;
        const std::uint64_t bits = presenceOf(cb)[row];
        // A row without edges in this crossbar holds only level-0
        // cells, so reading it draws no variation noise: skip it.
        if (bits == 0) {
            std::fill_n(dst, crossbarDim_, kInfDistance);
            continue;
        }
        const std::vector<FixedPoint::Raw> row_vals =
            crossbars_[cb].selectRow(row);
        for (std::uint32_t c = 0; c < crossbarDim_; ++c) {
            // The fixed "1" row adds dist(u) to each weight in analog
            // (paper Fig. 16(c)); functionally that is w + dist_u.
            dst[c] = (bits >> c) & 1u
                         ? static_cast<double>(row_vals[c]) / w_scale +
                               dist_u
                         : kInfDistance;
        }
    }

    // Every crossbar of the array reads the selected wordline.
    const std::uint64_t n = numCrossbars();
    const std::uint64_t samples =
        n * crossbarDim_ * params_.slicesPerValue();
    ledger_.events().arrayReads += n;
    ledger_.events().adcSamples += samples;
    ledger_.events().sampleHolds += samples;
    ledger_.events().shiftAdds += tileWidth();
}

TileSnapshot
GraphEngineArray::saveTile(int weight_frac_bits) const
{
    TileSnapshot snapshot;
    snapshot.fracBits = weight_frac_bits;
    for (const std::uint32_t cb : occupied_) {
        const std::uint64_t col0 =
            static_cast<std::uint64_t>(cb) * crossbarDim_;
        for (std::uint32_t row = 0; row < crossbarDim_; ++row) {
            std::uint64_t bits =
                present_[static_cast<std::size_t>(cb) * crossbarDim_ + row];
            while (bits != 0) {
                const auto c =
                    static_cast<std::uint32_t>(std::countr_zero(bits));
                bits &= bits - 1;
                snapshot.cells.push_back(TileSnapshot::CellValue{
                    row, col0 + c, crossbars_[cb].storedRaw(row, c)});
            }
        }
    }
    return snapshot;
}

void
GraphEngineArray::loadTile(const TileSnapshot &snapshot)
{
    clearProgrammedState();
    for (const TileSnapshot::CellValue &cell : snapshot.cells) {
        placeCell(cell.row, cell.col,
                  FixedPoint::fromRaw(cell.raw, snapshot.fracBits));
    }
}

void
GraphEngineArray::setVariation(double sigma_levels, std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (Crossbar &cb : crossbars_)
        cb.setVariation(sigma_levels, s++);
}

} // namespace graphr
