/**
 * @file
 * Exact, field-by-field SimReport comparison for differential tests:
 * every double with EXPECT_EQ (bit-identical, not nearly equal) and
 * every event count, so a failure names the field that moved. The
 * JSON report rounds doubles to 12 digits, so comparing JSON would
 * miss a last-bit difference.
 */

#ifndef GRAPHR_TESTS_SIM_REPORT_EQ_HH
#define GRAPHR_TESTS_SIM_REPORT_EQ_HH

#include <gtest/gtest.h>

#include "graphr/sim_report.hh"

namespace graphr
{

inline void
expectSameSimReport(const SimReport &got, const SimReport &want)
{
    EXPECT_EQ(got.algorithm, want.algorithm);
    EXPECT_EQ(got.seconds, want.seconds);
    EXPECT_EQ(got.joules, want.joules);
    EXPECT_EQ(got.programSeconds, want.programSeconds);
    EXPECT_EQ(got.computeSeconds, want.computeSeconds);
    EXPECT_EQ(got.streamSeconds, want.streamSeconds);
    EXPECT_EQ(got.occupancy, want.occupancy);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.tilesProcessed, want.tilesProcessed);
    EXPECT_EQ(got.tilesSkipped, want.tilesSkipped);
    EXPECT_EQ(got.edgesProcessed, want.edgesProcessed);
    EXPECT_EQ(got.activeRowOps, want.activeRowOps);

    EXPECT_EQ(got.energy.write, want.energy.write);
    EXPECT_EQ(got.energy.read, want.energy.read);
    EXPECT_EQ(got.energy.adc, want.energy.adc);
    EXPECT_EQ(got.energy.sampleHold, want.energy.sampleHold);
    EXPECT_EQ(got.energy.shiftAdd, want.energy.shiftAdd);
    EXPECT_EQ(got.energy.salu, want.energy.salu);
    EXPECT_EQ(got.energy.reg, want.energy.reg);
    EXPECT_EQ(got.energy.memory, want.energy.memory);
    EXPECT_EQ(got.energy.peripheral, want.energy.peripheral);

    EXPECT_EQ(got.events.arrayWrites, want.events.arrayWrites);
    EXPECT_EQ(got.events.arrayReads, want.events.arrayReads);
    EXPECT_EQ(got.events.adcSamples, want.events.adcSamples);
    EXPECT_EQ(got.events.sampleHolds, want.events.sampleHolds);
    EXPECT_EQ(got.events.shiftAdds, want.events.shiftAdds);
    EXPECT_EQ(got.events.saluOps, want.events.saluOps);
    EXPECT_EQ(got.events.regAccesses, want.events.regAccesses);
    EXPECT_EQ(got.events.memBytes, want.events.memBytes);
}

} // namespace graphr

#endif // GRAPHR_TESTS_SIM_REPORT_EQ_HH
