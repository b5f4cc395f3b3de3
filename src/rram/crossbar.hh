/**
 * @file
 * Functional ReRAM crossbar performing in-situ matrix-vector
 * multiplication (paper Fig. 3(c)).
 *
 * Geometry: the crossbar holds a C x C block of 16-bit fixed-point
 * values. Each value is bit-sliced into kSlicesPerValue 4-bit cells
 * on adjacent bitlines of the same wordline, so the physical array is
 * C wordlines x (C * kSlicesPerValue) bitlines; the shift-and-add
 * unit recombines per-slice bitline sums into full-precision column
 * results. Inputs are likewise applied slice-serially by the driver.
 *
 * Cell state is one packed row-major C x C plane of the 16-bit raw
 * values, written only by programValue()/clear(). The level of slice
 * s of a value is its bits [4s, 4s + 4) (levelAt), so the plane is
 * also the slice planes. A wordline's contribution to the MVM is a
 * unit-stride uint16 span, which the exact fast path accumulates
 * into the column sums one occupied row at a time.
 *
 * The arithmetic is integer-exact: summing slice partial products
 * with the correct shifts reproduces the full 16x16-bit multiply, so
 * the functional result equals a digital fixed-point SpMV — and,
 * because that recombination distributes over rows, the exact MVM
 * equals a plain uint16 dot product per column, which is what the
 * fast path computes. Optional programming variation injects the
 * analog error the paper argues graph algorithms tolerate; with
 * variation enabled the slice-serial walk runs instead, preserving
 * the RNG draw order exactly.
 */

#ifndef GRAPHR_RRAM_CROSSBAR_HH
#define GRAPHR_RRAM_CROSSBAR_HH

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "rram/cell.hh"
#include "rram/device_params.hh"

namespace graphr
{

/** Functional model of one C x C (logical) ReRAM crossbar. */
class Crossbar
{
  public:
    /**
     * @param dim logical dimension C (values per side)
     * @param params device parameters (cell levels, resistances)
     */
    Crossbar(std::uint32_t dim, const DeviceParams &params);

    std::uint32_t dim() const { return dim_; }

    /** Clear all cells to zero. */
    void clear();

    /**
     * Program one logical value at (row, col). Counts as one row
     * visit for write accounting at the caller's level.
     */
    void programValue(std::uint32_t row, std::uint32_t col,
                      FixedPoint value);

    /** Read back the exact stored raw value. */
    FixedPoint::Raw
    storedRaw(std::uint32_t row, std::uint32_t col) const
    {
        GRAPHR_ASSERT(row < dim_ && col < dim_,
                      "read outside crossbar");
        return rawPlane_[static_cast<std::size_t>(row) * dim_ + col];
    }

    /**
     * In-situ MVM: y[col] = sum_row input[row] * W[row][col], done
     * slice-by-slice exactly as the hardware would (input slices via
     * driver, weight slices via bitlines, shift-and-add recombine).
     * Inputs and outputs are raw fixed-point integers; the caller
     * owns scaling.
     *
     * Only occupied wordlines are read (row bitmask): skipped rows
     * are guaranteed all-zero, so the result, the variation RNG
     * stream and the modelled event counts (charged by the caller)
     * are identical to a dense scan. A fully empty crossbar skips
     * the S/A recombination entirely. With variation off the
     * accumulation is one AXPY per occupied row over the packed raw
     * plane — bit-identical to the slice-serial walk.
     *
     * @param input_raw one raw 16-bit input per wordline
     * @return 64-bit integer column sums (full precision)
     */
    std::vector<std::uint64_t>
    mvmRaw(const std::vector<FixedPoint::Raw> &input_raw) const;

    /**
     * mvmRaw() into a caller-owned buffer of dim() column sums,
     * without allocating: the GE array runs one MVM per occupied
     * crossbar per tile, so the hot path reuses one buffer.
     */
    void mvmRawInto(std::span<const FixedPoint::Raw> input_raw,
                    std::span<std::uint64_t> columns) const;

    /**
     * Add @p rows to the crossbar.mvm_rows_processed work counter,
     * the wordlines MVMs read. A model that computes a crossbar's MVM
     * without running it counts the rows it would read.
     */
    static void countMvmRows(std::uint64_t rows);

    /**
     * Row-selected read for the parallel add-op pattern: returns the
     * raw stored values of one wordline (an SpMV with a one-hot input
     * vector, as in paper Fig. 16(c)).
     */
    std::vector<FixedPoint::Raw> selectRow(std::uint32_t row) const;

    /**
     * Enable programming variation: each cell read is perturbed with
     * Gaussian noise of sigma (in level units). Models analog error.
     */
    void
    setVariation(double sigma_levels, std::uint64_t seed)
    {
        variationSigma_ = sigma_levels;
        rng_ = Rng(seed);
    }

    /** Number of wordlines that currently hold at least one nonzero. */
    std::uint32_t occupiedRows() const;

    /**
     * Whether the wordline may hold a nonzero cell. Maintained as a
     * row bitmask by programValue()/clear(); a clear bit guarantees
     * the row is all level-0 cells (which read exactly and never
     * consume variation RNG draws), so compute may skip it without
     * changing results or the RNG stream.
     */
    bool
    rowMayHoldNonzero(std::uint32_t row) const
    {
        GRAPHR_ASSERT(row < dim_, "row ", row, " outside crossbar");
        return (rowMask_[row >> 6] >> (row & 63)) & 1u;
    }

    /**
     * Ascending indices of the possibly-nonzero wordlines (the set
     * rowMayHoldNonzero() answers over). Ascending order keeps the
     * variation RNG read order identical to a dense scan.
     */
    std::vector<std::uint32_t> occupiedRowIndices() const;

  private:
    /** Level of the cell holding slice s of value (row, col). */
    std::uint8_t
    levelAt(std::uint32_t row, std::uint32_t col, int slice) const
    {
        return static_cast<std::uint8_t>(
            (rawPlane_[static_cast<std::size_t>(row) * dim_ + col] >>
             (slice * kCellBits)) &
            0xF);
    }

    std::uint8_t
    readLevel(std::uint8_t level) const
    {
        return Cell::perturbLevel(level, variationSigma_, rng_,
                                  cellLevels_);
    }

    /**
     * Invoke @p fn(row) for every possibly-nonzero wordline in
     * ascending order. Allocation-free — mvmRaw sits on the hot path
     * and runs this once per (input slice, column, weight slice).
     */
    template <typename Fn>
    void
    forEachOccupiedRow(Fn &&fn) const
    {
        for (std::size_t word = 0; word < rowMask_.size(); ++word) {
            std::uint64_t bits = rowMask_[word];
            while (bits != 0) {
                fn(static_cast<std::uint32_t>(
                    word * 64 +
                    static_cast<unsigned>(std::countr_zero(bits))));
                bits &= bits - 1;
            }
        }
    }

    bool
    anyRowOccupied() const
    {
        for (const std::uint64_t word : rowMask_) {
            if (word != 0)
                return true;
        }
        return false;
    }

    /** Occupied wordlines, straight off the bitmask. */
    std::uint32_t
    maskedRowCount() const
    {
        std::uint32_t count = 0;
        for (const std::uint64_t word : rowMask_)
            count += static_cast<std::uint32_t>(std::popcount(word));
        return count;
    }

    std::uint32_t dim_;
    int slices_;
    int cellLevels_;
    /** Packed plane of the 16-bit values, row-major. */
    std::vector<FixedPoint::Raw> rawPlane_;
    /**
     * One bit per wordline, set when a nonzero value is programmed
     * into the row and reset by clear(). Conservative: reprogramming
     * a cell to zero leaves the bit set, so a set bit means "may hold
     * nonzeros" while a clear bit guarantees an all-zero row.
     */
    std::vector<std::uint64_t> rowMask_;
    double variationSigma_ = 0.0;
    mutable Rng rng_{0};
};

} // namespace graphr

#endif // GRAPHR_RRAM_CROSSBAR_HH
