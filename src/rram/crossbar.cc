#include "crossbar.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.hh"
#include "perf/counters.hh"

namespace graphr
{

namespace
{

/** Work metric for the bench gate: occupied wordlines an MVM reads.
 *  Machine-independent (the occupancy mask decides). */
perf::Counter &
mvmRowsCounter()
{
    static perf::Counter &counter = perf::Registry::instance().counter(
        "crossbar.mvm_rows_processed");
    return counter;
}

} // namespace

Crossbar::Crossbar(std::uint32_t dim, const DeviceParams &params)
    : dim_(dim), slices_(params.slicesPerValue()),
      cellLevels_(params.cellLevels())
{
    GRAPHR_ASSERT(dim_ > 0, "crossbar dimension must be > 0");
    rawPlane_.resize(static_cast<std::size_t>(dim_) * dim_);
    rowMask_.assign((dim_ + 63) / 64, 0);
}

void
Crossbar::clear()
{
    // Only occupied wordlines can hold nonzero cells, so zero those
    // row spans instead of reprogramming every cell: O(occupied
    // rows), not O(dim^2).
    forEachOccupiedRow([this](std::uint32_t row) {
        const std::size_t row_off =
            static_cast<std::size_t>(row) * dim_;
        std::fill(rawPlane_.begin() +
                      static_cast<std::ptrdiff_t>(row_off),
                  rawPlane_.begin() +
                      static_cast<std::ptrdiff_t>(row_off + dim_),
                  FixedPoint::Raw{0});
    });
    std::fill(rowMask_.begin(), rowMask_.end(), 0);
}

void
Crossbar::programValue(std::uint32_t row, std::uint32_t col,
                       FixedPoint value)
{
    GRAPHR_ASSERT(row < dim_ && col < dim_, "program (", row, ",", col,
                  ") outside ", dim_, "x", dim_, " crossbar");
    rawPlane_[static_cast<std::size_t>(row) * dim_ + col] = value.raw();
    // Programming zero leaves the cells at level 0; the mask only
    // needs to cover rows that may hold nonzeros.
    if (value.raw() != 0)
        rowMask_[row >> 6] |= std::uint64_t{1} << (row & 63);
}

void
Crossbar::countMvmRows(std::uint64_t rows)
{
    mvmRowsCounter().add(rows);
}

std::vector<std::uint64_t>
Crossbar::mvmRaw(const std::vector<FixedPoint::Raw> &input_raw) const
{
    std::vector<std::uint64_t> columns(dim_);
    mvmRawInto(input_raw, columns);
    return columns;
}

void
Crossbar::mvmRawInto(std::span<const FixedPoint::Raw> input_raw,
                     std::span<std::uint64_t> columns) const
{
    GRAPHR_ASSERT(input_raw.size() == dim_, "input length ",
                  input_raw.size(), " != crossbar dim ", dim_);
    GRAPHR_ASSERT(columns.size() == dim_, "output length ",
                  columns.size(), " != crossbar dim ", dim_);
    std::fill(columns.begin(), columns.end(), std::uint64_t{0});

    // Unoccupied wordlines hold only level-0 cells: they contribute
    // nothing to any bitline and never consume a variation RNG draw,
    // so restricting the row walk to the occupied set (in ascending
    // order, straight off the bitmask — no per-call allocation) is
    // bit-exact and RNG-neutral. An empty crossbar skips the column
    // loops and S/A recombination entirely.
    if (!anyRowOccupied())
        return;
    countMvmRows(maskedRowCount());

    // The hardware-shaped slice-serial walk, scalar so that under
    // variation every cell read draws noise in the documented order
    // (input slice, column, weight slice, ascending occupied row).
    // Without variation each read returns its level and draws
    // nothing, so the walk is exact.
    // Outer loop: input slices applied by the driver, LSB first.
    // Inner: weight slices summed on bitlines, recombined by S/A.
    for (int in_s = 0; in_s < slices_; ++in_s) {
        for (std::uint32_t col = 0; col < dim_; ++col) {
            std::array<std::uint64_t, kSlicesPerValue> partials{};
            for (int w_s = 0; w_s < slices_; ++w_s) {
                std::uint64_t bitline = 0;
                forEachOccupiedRow([&](std::uint32_t row) {
                    const std::uint64_t in_nib =
                        (input_raw[row] >> (in_s * kCellBits)) & 0xF;
                    bitline += in_nib *
                               readLevel(levelAt(row, col, w_s));
                });
                partials[static_cast<std::size_t>(w_s)] = bitline;
            }
            // Shift-and-add across weight slices, then shift by the
            // input slice position.
            const std::uint64_t combined = FixedPoint::shiftAdd(partials);
            columns[col] += combined << (in_s * kCellBits);
        }
    }
}

std::vector<FixedPoint::Raw>
Crossbar::selectRow(std::uint32_t row) const
{
    GRAPHR_ASSERT(row < dim_, "row ", row, " outside crossbar");
    std::vector<FixedPoint::Raw> out(dim_, 0);
    // An unoccupied wordline reads all-zero without touching the RNG
    // (level-0 cells are exact), so skip its per-column slice
    // recombination outright.
    if (!rowMayHoldNonzero(row))
        return out;
    for (std::uint32_t col = 0; col < dim_; ++col) {
        FixedPoint::Raw raw = 0;
        for (int s = slices_ - 1; s >= 0; --s) {
            raw = static_cast<FixedPoint::Raw>(
                (raw << kCellBits) | readLevel(levelAt(row, col, s)));
        }
        out[col] = raw;
    }
    return out;
}

std::uint32_t
Crossbar::occupiedRows() const
{
    // The mask is conservative (a nonzero cell may have been
    // reprogrammed to zero), so verify the cells of masked rows —
    // unmasked rows are guaranteed empty and need no scan: one uint16
    // span check per masked row.
    std::uint32_t count = 0;
    forEachOccupiedRow([this, &count](std::uint32_t row) {
        const FixedPoint::Raw *first =
            rawPlane_.data() + static_cast<std::size_t>(row) * dim_;
        const bool occupied =
            std::any_of(first, first + dim_,
                        [](FixedPoint::Raw v) { return v != 0; });
        if (occupied)
            ++count;
    });
    return count;
}

std::vector<std::uint32_t>
Crossbar::occupiedRowIndices() const
{
    std::vector<std::uint32_t> rows;
    forEachOccupiedRow(
        [&rows](std::uint32_t row) { rows.push_back(row); });
    return rows;
}

} // namespace graphr
