/**
 * @file
 * Figure 5 reproduction: per-MPI-function breakdown of the MPI time
 * (MPI_Init / Send / Sendrecv / Allreduce / Wait / others).
 */

#include <iostream>

#include "core/experiment.h"
#include "harness/report.h"
#include "harness/sweep.h"
#include "obs/bench_options.h"

using namespace mdbench;

int
main(int argc, char **argv)
{
    BenchRun run(argc, argv, "bench_fig05_mpi_functions");
    printFigureHeader(std::cout, "Figure 5",
                      "Breakdown of the MPI overhead by function "
                      "(10k-step runs)");

    const auto records = runModelSweep(
        cpuSweep(allBenchmarks(), paperSizesK(), {4, 8, 16, 32, 64}));
    emitTable(std::cout, makeMpiFunctionTable(records), "fig05");

    // Native companion: blocking vs overlapped halo exchange from the
    // real decomposed engine. The overlap row shifts the forward share
    // from MPI_Send into Isend/Irecv/Waitall and carries a measured
    // host wall column next to the modeled shares.
    std::cout << "\n-- native decomposed companion (measured wall) --\n";
    std::vector<ExperimentSpec> nativeSpecs;
    for (const bool overlap : {false, true}) {
        ExperimentSpec spec;
        spec.mode = ExperimentMode::NativeRanked;
        spec.benchmark = BenchmarkId::LJ;
        spec.natoms = 4000;
        spec.resources = 8;
        spec.steps = 300;
        spec.commOverlap = overlap;
        nativeSpecs.push_back(spec);
    }
    emitTable(std::cout, makeMpiFunctionTable(runSweep(nativeSpecs)),
              "fig05_native");

    std::cout << "\nObservations reproduced:\n"
              << " - MPI_Init takes a considerable share and grows with "
                 "the process count (Section 5.1)\n"
              << " - Send/Sendrecv/Allreduce become more prominent for "
                 "bigger systems\n"
              << " - with overlap on, forward-halo time moves from "
                 "MPI_Send into Isend/Irecv/Waitall and only the "
                 "exposed remainder is waited on\n";
    return 0;
}
