/**
 * @file
 * Throughput of the SIMD pair-kernel compute layer (DESIGN.md §12):
 * sweeps the packed vector width (0 = SIMD off: the double W = 1
 * kernel over the plain neighbor rows, reported as backend "scalar";
 * 1/2/4/8 = the padded packings, ISA backend where one matches) over
 * the lj/cut, EAM, and lj/charmm/coul/long force fields and reports
 * Mpairs/s plus `vs_scalar`, the speedup against the width-0 row on
 * the same system. The `list` column is the flavor each style's setup
 * built: full for lj/cut, half for EAM and lj/charmm/coul/long.
 *
 * Usage: bench_native_simd_kernels [--quick] [shared flags]
 * `--quick` shrinks systems and the timing target to smoke-test size.
 */

#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/suite.h"
#include "harness/report.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/bench_options.h"
#include "util/simd.h"
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

struct Config
{
    std::string kernel;
    std::function<std::unique_ptr<Simulation>()> build;
};

struct Cell
{
    std::size_t natoms = 0;
    std::size_t pairs = 0;
    bool full = false; ///< the list flavor setup built
    double mpairsPerSecond = 0.0;
};

/**
 * Time pair->compute on a frozen neighbor list (the packed width is
 * baked in at setup's build). Iterations double until the measurement
 * exceeds @p targetSeconds, so each cell self-calibrates.
 */
Cell
runCell(const Config &config, int width, double targetSeconds)
{
    auto sim = config.build();
    sim->config.simdWidth = width;
    sim->thermoEvery = 0;
    sim->setup();

    Cell cell;
    cell.natoms = sim->atoms.nlocal();
    cell.pairs = sim->neighbor.list().pairCount();
    cell.full = sim->neighbor.list().full;
    long iters = 1;
    for (;;) {
        WallTimer wall;
        for (long it = 0; it < iters; ++it) {
            sim->atoms.zeroForces();
            sim->pair->compute(*sim, sim->neighbor.list());
        }
        const double elapsed = wall.seconds();
        if (elapsed >= targetSeconds || iters >= (1L << 22)) {
            const double perCall = elapsed / static_cast<double>(iters);
            cell.mpairsPerSecond =
                perCall > 0.0
                    ? static_cast<double>(cell.pairs) / perCall * 1e-6
                    : 0.0;
            return cell;
        }
        iters *= 2;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    BenchRun run(argc, argv, "bench_native_simd_kernels");
    const bool quick = run.options().quick;

    ThreadPool::setThreads(1); // isolate kernel throughput from threading
    const double target = quick ? 0.02 : 0.25;
    const int ljCells = quick ? 5 : 12;
    const int eamCells = quick ? 4 : 8;
    const int rhodoMolecules = quick ? 8 : 8;

    const std::vector<Config> configs = {
        {"lj/cut", [&] { return buildLJ(ljCells); }},
        {"eam", [&] { return buildEAM(eamCells); }},
        {"lj/charmm/coul/long",
         [&] { return buildRhodoProxy(rhodoMolecules); }},
    };

    Table table({"kernel", "list", "atoms", "pairs", "width", "backend",
                 "mpairs_per_s", "vs_scalar"});
    for (const Config &config : configs) {
        double widthZeroRate = 0.0;
        for (int width : {0, 1, 2, 4, 8}) {
            const Cell cell = runCell(config, width, target);
            if (width == 0)
                widthZeroRate = cell.mpairsPerSecond;
            table.addRow(
                {config.kernel, cell.full ? "full" : "half",
                 std::to_string(cell.natoms), std::to_string(cell.pairs),
                 std::to_string(width), simdBackendName(width),
                 formatDouble(cell.mpairsPerSecond, 2),
                 formatDouble(widthZeroRate > 0.0
                                  ? cell.mpairsPerSecond / widthZeroRate
                                  : 0.0,
                              3)});
        }
    }
    emitTable(std::cout, table, "native_simd_kernels");
    return 0;
}
