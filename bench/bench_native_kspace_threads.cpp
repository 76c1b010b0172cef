/**
 * @file
 * Thread scaling of the PPPM k-space pipeline vs. error threshold: the
 * CPU-side counterpart of the paper's Section 7 sensitivity study
 * (Figs. 10-14), now that the make_rho / poisson / interp stages and
 * the FFT line batches run on the thread pool.
 *
 * Sweeps thread count x accuracy (1e-4 .. 1e-7) on the Rhodopsin-like
 * proxy and reports the Kspace task seconds of a timed segment, the
 * Kspace share of step time, and the per-accuracy speedup against the
 * 1-thread row — the `kspace_speedup` column at the highest thread
 * count is the headline number for this pipeline.
 *
 * Usage: bench_native_kspace_threads [--quick] [shared flags]
 * `--quick` shrinks the system, sweep, and step counts to smoke-test
 * size (CI).
 */

#include <iostream>
#include <sstream>
#include <vector>

#include "core/suite.h"
#include "harness/report.h"
#include "kspace/pppm.h"
#include "md/simulation.h"
#include "obs/bench_options.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

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

struct Segment
{
    double kspaceSeconds = 0.0;
    double stepSeconds = 0.0;
    std::size_t natoms = 0;
    std::string grid = "-";
};

Segment
runSegment(int moleculesPerAxis, double accuracy, int nthreads,
           long warmup, long steps)
{
    ThreadPool::setThreads(nthreads);
    SuiteOptions options;
    options.kspaceAccuracy = accuracy;
    auto sim = buildRhodoProxy(moleculesPerAxis, options);
    sim->thermoEvery = 0;
    sim->setup();
    sim->run(warmup);

    sim->timer.reset();
    sim->run(steps);

    Segment segment;
    segment.kspaceSeconds = sim->timer.seconds(Task::Kspace);
    segment.stepSeconds = sim->timer.total();
    segment.natoms = sim->atoms.nlocal();
    if (const auto *pppm = dynamic_cast<const Pppm *>(sim->kspace.get())) {
        segment.grid = std::to_string(pppm->grid()[0]) + "x" +
                       std::to_string(pppm->grid()[1]) + "x" +
                       std::to_string(pppm->grid()[2]);
    }
    return segment;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchRun run(argc, argv, "bench_native_kspace_threads");
    const bool quick = run.options().quick;

    const int molecules = quick ? 8 : 12;
    const long warmup = quick ? 2 : 5;
    const long steps = quick ? 5 : 20;
    const std::vector<double> accuracies =
        quick ? std::vector<double>{1e-4, 1e-5}
              : std::vector<double>{1e-4, 1e-5, 1e-6, 1e-7};
    const std::vector<int> threadCounts =
        quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};

    const int before = ThreadPool::threads();
    Table table({"threads", "accuracy", "grid", "atoms", "steps",
                 "kspace_s", "step_s", "kspace_share", "kspace_speedup"});
    for (double accuracy : accuracies) {
        double baselineKspace = 0.0;
        for (int nthreads : threadCounts) {
            const Segment segment =
                runSegment(molecules, accuracy, nthreads, warmup, steps);
            if (nthreads == threadCounts.front())
                baselineKspace = segment.kspaceSeconds;
            std::ostringstream acc;
            acc << accuracy;
            table.addRow(
                {std::to_string(nthreads), acc.str(), segment.grid,
                 std::to_string(segment.natoms), std::to_string(steps),
                 formatDouble(segment.kspaceSeconds, 3),
                 formatDouble(segment.stepSeconds, 3),
                 formatDouble(segment.stepSeconds > 0.0
                                  ? segment.kspaceSeconds /
                                        segment.stepSeconds
                                  : 0.0,
                              3),
                 formatDouble(segment.kspaceSeconds > 0.0
                                  ? baselineKspace /
                                        segment.kspaceSeconds
                                  : 0.0,
                              3)});
        }
    }
    ThreadPool::setThreads(before);
    emitTable(std::cout, table, "native_kspace_threads");
    return 0;
}
