/**
 * @file
 * 16-bit fixed-point arithmetic and 4-bit slicing.
 *
 * GraphR stores each 16-bit fixed-point operand as four 4-bit ReRAM
 * cells spread across four crossbars and recombines partial products
 * with the shift-and-add unit (paper section 3.2, "Data Format").
 * This header provides the quantisation, slicing and recombination
 * used by both the device model and the algorithm mappings.
 */

#ifndef GRAPHR_COMMON_FIXED_POINT_HH
#define GRAPHR_COMMON_FIXED_POINT_HH

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"

namespace graphr
{

/** Number of bits in a full fixed-point operand. */
inline constexpr int kValueBits = 16;

/** Resolution of one multi-level ReRAM cell (paper assumes 4-bit). */
inline constexpr int kCellBits = 4;

/** Number of 4-bit slices composing one 16-bit value. */
inline constexpr int kSlicesPerValue = kValueBits / kCellBits;

/**
 * Unsigned 16-bit fixed point with a configurable number of
 * fractional bits. Chosen per algorithm: PageRank uses Q0.15-style
 * scaling (values in [0, 1)); SSSP/BFS use integer distances (0
 * fractional bits).
 */
class FixedPoint
{
  public:
    /** Raw storage type: 16 bits of magnitude. */
    using Raw = std::uint16_t;

    FixedPoint() = default;

    /** Construct from raw bits. */
    static constexpr FixedPoint
    fromRaw(Raw raw, int frac_bits)
    {
        FixedPoint fp;
        fp.raw_ = raw;
        fp.fracBits_ = frac_bits;
        return fp;
    }

    /**
     * Quantise a non-negative real number to the nearest step, halves
     * away from zero. Values outside the representable range
     * saturate. The rounding is inline, a truncation plus one when
     * the fraction is at least a half: on the saturated range
     * [0, 65535] that is llround, without the library call, so the
     * datapath's per-cell loops can afford it.
     */
    static FixedPoint
    quantize(double value, int frac_bits)
    {
        GRAPHR_ASSERT(frac_bits >= 0 && frac_bits <= kValueBits,
                      "frac_bits=", frac_bits);
        GRAPHR_ASSERT(value >= 0.0 || std::abs(value) < 1e-12,
                      "negative value ", value,
                      " not representable in unsigned fixed point");
        const double scaled = std::max(0.0, value) *
                              static_cast<double>(1u << frac_bits);
        const double max_raw = 65535.0;
        const double clamped = std::min(scaled, max_raw);
        const auto whole = static_cast<Raw>(clamped);
        FixedPoint fp;
        fp.raw_ = static_cast<Raw>(whole + (clamped - whole >= 0.5 ? 1 : 0));
        fp.fracBits_ = frac_bits;
        return fp;
    }

    /** Recover the real value. */
    double
    toDouble() const
    {
        return static_cast<double>(raw_) /
               static_cast<double>(1u << fracBits_);
    }

    Raw raw() const { return raw_; }
    int fracBits() const { return fracBits_; }

    /** Extract the i-th 4-bit slice (slice 0 is least significant). */
    std::uint8_t
    slice(int i) const
    {
        GRAPHR_ASSERT(i >= 0 && i < kSlicesPerValue, "slice index ", i);
        return static_cast<std::uint8_t>((raw_ >> (i * kCellBits)) & 0xF);
    }

    /** All slices, least significant first. */
    std::array<std::uint8_t, kSlicesPerValue>
    slices() const
    {
        std::array<std::uint8_t, kSlicesPerValue> out{};
        for (int i = 0; i < kSlicesPerValue; ++i)
            out[static_cast<std::size_t>(i)] = slice(i);
        return out;
    }

    /**
     * Recombine per-slice partial sums with shift-and-add
     * (D3 << 12 | D2 << 8 | D1 << 4 | D0 in the paper's notation).
     * Partial sums are wider than 4 bits because a bitline sums many
     * cells, hence the 64-bit accumulator.
     */
    static std::uint64_t
    shiftAdd(const std::array<std::uint64_t, kSlicesPerValue> &partials)
    {
        std::uint64_t acc = 0;
        for (int i = kSlicesPerValue - 1; i >= 0; --i) {
            acc = (acc << kCellBits) +
                  partials[static_cast<std::size_t>(i)];
        }
        return acc;
    }

    bool operator==(const FixedPoint &other) const = default;

  private:
    Raw raw_ = 0;
    int fracBits_ = 0;
};

/**
 * Quantisation step size for a given number of fractional bits; the
 * worst-case representation error is half of this.
 */
inline constexpr double
quantStep(int frac_bits)
{
    return 1.0 / static_cast<double>(1u << frac_bits);
}

} // namespace graphr

#endif // GRAPHR_COMMON_FIXED_POINT_HH
