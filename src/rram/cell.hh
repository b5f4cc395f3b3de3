/**
 * @file
 * Multi-level ReRAM cell model.
 *
 * A cell stores one kCellBits-bit slice as a conductance level
 * between 1/HRS and 1/LRS. The functional model is digital-exact by
 * default (the paper argues graph algorithms tolerate the analog
 * imprecision; our variation model makes that claim testable).
 */

#ifndef GRAPHR_RRAM_CELL_HH
#define GRAPHR_RRAM_CELL_HH

#include <cstdint>

#include "common/random.hh"
#include "rram/device_params.hh"

namespace graphr
{

/** One multi-level ReRAM cell. */
class Cell
{
  public:
    Cell() = default;

    /** Program a slice value in [0, levels). */
    void
    program(std::uint8_t level)
    {
        level_ = level;
    }

    /** Stored level, exact. */
    std::uint8_t level() const { return level_; }

    /**
     * Conductance in siemens for a given parameter set: linear
     * interpolation between 1/HRS (level 0) and 1/LRS (max level),
     * the standard dot-product-engine mapping.
     */
    double
    conductance(const DeviceParams &params) const
    {
        const double g_min = 1.0 / params.hrsOhm;
        const double g_max = 1.0 / params.lrsOhm;
        const double frac = static_cast<double>(level_) /
                            static_cast<double>(params.cellLevels() - 1);
        return g_min + frac * (g_max - g_min);
    }

    /**
     * Read the level back with optional programming variation: the
     * stored level is perturbed by Gaussian noise of the given sigma
     * (in level units) and clamped/rounded. sigma 0 is exact. Cells
     * left in the fully-OFF state (level 0, HRS) are stable and read
     * exactly — programming variation affects tuned intermediate
     * states ([7, 26] tune those iteratively to ~1% accuracy).
     */
    std::uint8_t
    readWithVariation(double sigma_levels, Rng &rng,
                      int num_levels) const
    {
        return perturbLevel(level_, sigma_levels, rng, num_levels);
    }

    /**
     * The variation model on a bare level, for storage that keeps
     * cell levels packed in raw values rather than Cell objects
     * (rram/crossbar.hh). Level 0 never consumes an RNG draw
     * — the guarantee the crossbar's row-occupancy skip relies on.
     */
    static std::uint8_t
    perturbLevel(std::uint8_t level, double sigma_levels, Rng &rng,
                 int num_levels)
    {
        if (sigma_levels <= 0.0 || level == 0)
            return level;
        const double noisy =
            static_cast<double>(level) + rng.normal(0.0, sigma_levels);
        const double clamped =
            std::max(0.0, std::min(noisy,
                                   static_cast<double>(num_levels - 1)));
        return static_cast<std::uint8_t>(clamped + 0.5);
    }

  private:
    std::uint8_t level_ = 0;
};

} // namespace graphr

#endif // GRAPHR_RRAM_CELL_HH
