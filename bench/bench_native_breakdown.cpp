/**
 * @file
 * Native-engine characterization (the validation path of Figure 2's
 * framework): runs the *real* from-scratch engine on host-scale
 * instances of all five benchmarks, serial and decomposed, and prints
 * the same task-breakdown and MPI tables the modeled figures use.
 */

#include <iostream>
#include <sstream>

#include "core/experiment.h"
#include "harness/report.h"
#include "obs/bench_options.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace mdbench;

namespace {

std::string
formatDouble(double value, int precision)
{
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed << value;
    return os.str();
}

/**
 * Shared-memory thread scaling of the real engine: TS/s at 1, 2, 4, and
 * the machine-default thread count, per benchmark. This is in-core
 * threading of the hot kernels, distinct from the simulated MPI-rank
 * scaling of the ranked tables below.
 */
void
emitThreadScaling(std::ostream &os)
{
    Table table({"bench", "threads", "TS/s", "speedup"});
    for (BenchmarkId id : {BenchmarkId::LJ, BenchmarkId::EAM}) {
        double baseline = 0.0;
        for (int threads : {1, 2, 4, 0}) {
            ExperimentSpec spec;
            spec.mode = ExperimentMode::NativeSerial;
            spec.benchmark = id;
            spec.natoms = 4000;
            spec.steps = id == BenchmarkId::EAM ? 40 : 100;
            spec.threads = threads == 0 ? ThreadPool::threads() : threads;
            const ExperimentRecord record = runExperiment(spec);
            if (threads == 1)
                baseline = record.timestepsPerSecond;
            table.addRow({benchmarkName(id), std::to_string(*spec.threads),
                          formatDouble(record.timestepsPerSecond, 2),
                          formatDouble(baseline > 0.0
                                           ? record.timestepsPerSecond /
                                                 baseline
                                           : 0.0,
                                       2)});
        }
    }
    emitTable(os, table, "native_thread_scaling");
}

} // namespace

int
main(int argc, char **argv)
{
    BenchRun run(argc, argv, "bench_native_breakdown");
    printFigureHeader(std::cout, "Native breakdown",
                      "Real-engine task breakdown on the reproduction "
                      "host (small instances; validates the Fig. 2 "
                      "instrumentation path)");

    std::vector<ExperimentRecord> records;
    struct Config
    {
        BenchmarkId id;
        long natoms;
        long steps;
    };
    const std::vector<Config> configs = {
        {BenchmarkId::Chain, 4000, 150}, {BenchmarkId::Chute, 3000, 1500},
        {BenchmarkId::EAM, 4000, 80},    {BenchmarkId::LJ, 4000, 150},
        {BenchmarkId::Rhodo, 2000, 25}};
    for (const Config &config : configs) {
        ExperimentSpec spec;
        spec.mode = ExperimentMode::NativeSerial;
        spec.benchmark = config.id;
        spec.natoms = config.natoms;
        spec.steps = config.steps;
        records.push_back(runExperiment(spec));
    }
    emitTable(std::cout, makeBreakdownTable(records, "procs(=1)"),
              "native_serial");

    emitThreadScaling(std::cout);

    // Decomposed runs with simulated MPI (LJ / Chain / Chute).
    std::vector<ExperimentRecord> ranked;
    for (BenchmarkId id :
         {BenchmarkId::LJ, BenchmarkId::Chain, BenchmarkId::Chute}) {
        for (int ranks : {2, 4, 8}) {
            ExperimentSpec spec;
            spec.mode = ExperimentMode::NativeRanked;
            spec.benchmark = id;
            spec.natoms = 4000;
            spec.resources = ranks;
            spec.steps = 60;
            ranked.push_back(runExperiment(spec));
        }
    }
    emitTable(std::cout, makeBreakdownTable(ranked, "procs"),
              "native_ranked_tasks");
    emitTable(std::cout, makeMpiFunctionTable(ranked),
              "native_ranked_mpi");
    return 0;
}
