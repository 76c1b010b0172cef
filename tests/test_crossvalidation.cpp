/**
 * @file
 * Cross-validation between the two operating points: the *native*
 * engine's measured behaviour must agree with the *model's* structural
 * assumptions — Pair shares, rebuild cadence, kspace presence, and the
 * Figure 3 trends — so the platform replay is anchored to real code,
 * not just to the paper's numbers.
 */

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/suite.h"
#include "harness/sweep.h"

namespace mdbench {
namespace {

TEST(CrossValidation, LjPairShareNativeVsModel)
{
    // Native serial LJ run on the host vs the 1-rank model breakdown:
    // both must be pair-dominated to a similar degree.
    ExperimentSpec native;
    native.mode = ExperimentMode::NativeSerial;
    native.benchmark = BenchmarkId::LJ;
    native.natoms = 4000;
    native.steps = 120;
    // Pin width 0 (SIMD off, the W = 1 pair kernels): the model's task
    // ratios are calibrated against unvectorized pair kernels. On ISA
    // builds the SIMD path speeds up Pair but not the neighbor build
    // (unlike the INTEL package the model replays, which vectorizes
    // both), so the share comparison below only holds at width 0.
    native.simdWidth = 0;
    const auto nativeRecord = runExperiment(native);

    const auto modelRecord =
        runModelExperiment(cpuSweep({BenchmarkId::LJ}, {32}, {1})[0]);

    const double nativePair =
        nativeRecord.taskBreakdown.fraction(Task::Pair);
    const double modelPair =
        modelRecord.taskBreakdown.fraction(Task::Pair);
    // The model replays the vectorized INTEL-package ratios (~88%
    // Pair); our scalar engine spends relatively more in neighbor
    // builds, so only the structural statement must agree: Pair is
    // the dominant task on both operating points.
    EXPECT_GT(nativePair, 0.4);
    EXPECT_GT(modelPair, 0.6);
    for (Task task : {Task::Neigh, Task::Bond, Task::Kspace, Task::Comm,
                      Task::Modify, Task::Output, Task::Other}) {
        EXPECT_GT(nativePair, nativeRecord.taskBreakdown.fraction(task));
        EXPECT_GT(modelPair, modelRecord.taskBreakdown.fraction(task));
    }
}

TEST(CrossValidation, RebuildIntervalsNearModelAssumption)
{
    // The model amortizes neighbor builds over spec.rebuildInterval;
    // the native engine's measured cadence must be the same order.
    struct Case
    {
        BenchmarkId id;
        long natoms;
        long steps;
    };
    for (const Case &c : {Case{BenchmarkId::LJ, 4000, 300},
                          Case{BenchmarkId::Chain, 3000, 300}}) {
        auto sim = buildNative(c.id, c.natoms);
        sim->thermoEvery = 0;
        sim->setup();
        sim->run(c.steps);
        const double measured = sim->neighbor.averageRebuildInterval();
        const double assumed = WorkloadSpec::get(c.id).rebuildInterval;
        EXPECT_GT(measured, assumed / 4.0) << benchmarkName(c.id);
        EXPECT_LT(measured, assumed * 4.0) << benchmarkName(c.id);
    }
}

TEST(CrossValidation, RhodoKspaceShareBothOperatingPoints)
{
    ExperimentSpec native;
    native.mode = ExperimentMode::NativeSerial;
    native.benchmark = BenchmarkId::Rhodo;
    native.natoms = 1800;
    native.steps = 15;
    const auto nativeRecord = runExperiment(native);
    const auto modelRecord =
        runModelExperiment(cpuSweep({BenchmarkId::Rhodo}, {32}, {1})[0]);
    EXPECT_GT(nativeRecord.taskBreakdown.fraction(Task::Kspace), 0.01);
    EXPECT_GT(modelRecord.taskBreakdown.fraction(Task::Kspace), 0.01);
    // Both must also show the Modify cost of SHAKE + NPT.
    EXPECT_GT(nativeRecord.taskBreakdown.fraction(Task::Modify), 0.01);
    EXPECT_GT(modelRecord.taskBreakdown.fraction(Task::Modify), 0.01);
}

TEST(CrossValidation, Fig3TrendPairShareShrinksWithRanks)
{
    // Figure 3: parallelization reduces the Pair share (Comm grows).
    const auto records = runModelSweep(
        cpuSweep({BenchmarkId::LJ}, {32}, {1, 64}));
    EXPECT_GT(records[0].taskBreakdown.fraction(Task::Pair),
              records[1].taskBreakdown.fraction(Task::Pair));
    EXPECT_LT(records[0].taskBreakdown.fraction(Task::Comm),
              records[1].taskBreakdown.fraction(Task::Comm));
}

TEST(CrossValidation, Fig3TrendWeakerForLargerSystems)
{
    // "this effect is less noticeable for larger experiment sizes":
    // the Pair-share drop from 1 to 64 ranks shrinks with system size.
    auto dropFor = [](long sizeK) {
        const auto records = runModelSweep(
            cpuSweep({BenchmarkId::LJ}, {sizeK}, {1, 64}));
        return records[0].taskBreakdown.fraction(Task::Pair) -
               records[1].taskBreakdown.fraction(Task::Pair);
    };
    EXPECT_GT(dropFor(32), dropFor(2048));
}

TEST(CrossValidation, NativeRankedMpiSharesLookLikeModel)
{
    // The decomposed native run and the model agree structurally: MPI
    // time exists, Init is visible, and Wait reflects imbalance.
    ExperimentSpec spec;
    spec.mode = ExperimentMode::NativeRanked;
    spec.benchmark = BenchmarkId::LJ;
    spec.natoms = 4000;
    spec.resources = 4;
    spec.steps = 80;
    const auto record = runExperiment(spec);
    EXPECT_GT(record.mpiTimePercent, 0.0);
    EXPECT_LT(record.mpiTimePercent, 95.0);
    EXPECT_GT(record.mpiFunctionFraction(MpiFunction::Init), 0.0);
    EXPECT_GT(record.mpiFunctionFraction(MpiFunction::Sendrecv), 0.0);
}

} // namespace
} // namespace mdbench
