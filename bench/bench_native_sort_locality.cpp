/**
 * @file
 * Cache-locality effect of spatial atom reordering on the pair/neighbor
 * hot path: sweeps the sort interval (off / every rebuild / every 5th
 * rebuild) over the LJ, EAM, and Chain workloads and reports the Pair
 * and Neigh task seconds of a timed segment.
 *
 * Each system is pre-shuffled with a fixed-seed random permutation
 * before setup, modeling the diffused steady state of a long run where
 * memory order has decorrelated from space. The sort-disabled rows keep
 * that shuffled order for the whole run and are the locality baseline
 * the `vs_off` speedup column is computed against.
 *
 * Usage: bench_native_sort_locality [--quick] [shared flags]
 * `--quick` shrinks systems and step counts to smoke-test size (CI).
 */

#include <iostream>
#include <sstream>
#include <vector>

#include "core/suite.h"
#include "harness/report.h"
#include "md/simulation.h"
#include "obs/bench_options.h"
#include "obs/counters.h"
#include "util/rng.h"
#include "util/table.h"
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

/** Fixed-seed Fisher-Yates permutation of the owned atoms. */
void
shuffleAtoms(Simulation &sim, std::uint64_t seed)
{
    const std::size_t n = sim.atoms.nlocal();
    std::vector<std::uint32_t> oldOf(n);
    for (std::size_t i = 0; i < n; ++i)
        oldOf[i] = static_cast<std::uint32_t>(i);
    Rng rng(seed);
    for (std::size_t i = n - 1; i > 0; --i)
        std::swap(oldOf[i], oldOf[rng.uniformInt(i + 1)]);
    sim.atoms.applyPermutation(oldOf);
}

struct Config
{
    BenchmarkId id;
    long natoms;
    long warmup; ///< steps before the timer reset (sorts settle here)
    long steps;  ///< timed steps
};

struct Segment
{
    double pairSeconds = 0.0;
    double neighSeconds = 0.0;
    long sortsApplied = 0;
    long sortsSkipped = 0;
    std::size_t natoms = 0;
};

/**
 * One cell of the sweep: build, shuffle, warm up, then time. Sort time
 * itself is charged to Neigh (see Simulation::maybeSortAtoms), so the
 * pair+neigh sum the speedup uses already pays for the sorts.
 */
Segment
runSegment(const Config &config, int sortEvery)
{
    auto sim = buildNative(config.id, config.natoms);
    sim->thermoEvery = 0;
    sim->config.sortEvery = sortEvery;
    shuffleAtoms(*sim, 777);
    const auto skippedBefore = counterValue(Counter::SortSkipped);
    sim->setup();
    sim->run(config.warmup);

    sim->timer.reset();
    sim->run(config.steps);

    Segment segment;
    segment.pairSeconds = sim->timer.seconds(Task::Pair);
    segment.neighSeconds = sim->timer.seconds(Task::Neigh);
    // Sort/skip counts cover the whole run (setup + warmup + timed):
    // solid workloads sort once at setup and never rebuild again, which
    // a timed-segment delta would report as zero.
    segment.sortsApplied = sim->neighbor.sortCount();
    segment.sortsSkipped = static_cast<long>(
        counterValue(Counter::SortSkipped) - skippedBefore);
    segment.natoms = sim->atoms.nlocal();
    return segment;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchRun run(argc, argv, "bench_native_sort_locality");
    const bool quick = run.options().quick;

    const std::vector<Config> configs =
        quick ? std::vector<Config>{{BenchmarkId::LJ, 4000, 20, 30},
                                    {BenchmarkId::EAM, 4000, 15, 20},
                                    {BenchmarkId::Chain, 4000, 20, 30}}
              : std::vector<Config>{{BenchmarkId::LJ, 500000, 60, 60},
                                    {BenchmarkId::EAM, 108000, 40, 40},
                                    {BenchmarkId::Chain, 96000, 60, 60}};

    Table table({"bench", "atoms", "sort_every", "steps", "pair_s",
                 "neigh_s", "pair+neigh_s", "vs_off", "sorts", "skipped"});
    for (const Config &config : configs) {
        double baselineHot = 0.0;
        for (int sortEvery : {0, 1, 5}) {
            const Segment segment = runSegment(config, sortEvery);
            const double hot = segment.pairSeconds + segment.neighSeconds;
            if (sortEvery == 0)
                baselineHot = hot;
            table.addRow({benchmarkName(config.id),
                          std::to_string(segment.natoms),
                          std::to_string(sortEvery),
                          std::to_string(config.steps),
                          formatDouble(segment.pairSeconds, 3),
                          formatDouble(segment.neighSeconds, 3),
                          formatDouble(hot, 3),
                          formatDouble(hot > 0.0 ? baselineHot / hot : 0.0,
                                       3),
                          std::to_string(segment.sortsApplied),
                          std::to_string(segment.sortsSkipped)});
        }
    }
    emitTable(std::cout, table, "native_sort_locality");
    return 0;
}
