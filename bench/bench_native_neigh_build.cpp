/**
 * @file
 * Throughput of the neighbor-list build pipeline (DESIGN.md §14):
 * sweeps system × size × SIMD filter width (0 = the W = 1 fill, the
 * reference every wider fill matches row for row, then the default
 * width) × thread count and reports best-of-N build time, ns/atom,
 * and the bytes/atom of the list (row starts, row counts and the
 * padded rows the pair kernels traverse).
 * The systems are the LJ melt (no exclusions; the full list lj/cut
 * asks for) and the Rhodo proxy (a half list), whose solute rows drop
 * their bonded partners through the special lists. The
 * `vs_scalar_serial` column is the speedup against the width-0
 * single-thread build of the same system — the number the
 * vectorized + threaded build is accountable to.
 *
 * Usage: bench_native_neigh_build [--quick] [shared flags]
 * `--quick` shrinks systems and the repeat count to smoke-test size.
 */

#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
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

/** Bytes of the list: row starts, row counts and the padded rows. */
std::size_t
listBytes(const NeighborList &list)
{
    return sizeof(std::uint32_t) * (list.offsets.size() +
                                    list.counts.size() +
                                    list.neighbors.size());
}

struct Cell
{
    int width = 0; ///< double-lane SIMD width the cell ran at
    std::size_t natoms = 0;
    std::size_t pairs = 0;
    double buildMs = 0.0;
    double bytesPerAtom = 0.0;
};

/** A benchmarked system: its table name and its suite builder. */
struct System
{
    const char *name;
    std::unique_ptr<Simulation> (*build)(int size);
    std::vector<int> sizes; ///< builder arguments swept
};

/**
 * Best-of-@p reps rebuild time at the default SIMD width, or with the
 * SIMD layer off unless @p simd (positions are frozen, so every
 * rebuild does identical work and the minimum is the clean
 * measurement).
 */
Cell
runCell(const System &system, int size, bool simd, int threads, int reps)
{
    ThreadPool::setThreads(threads);
    auto sim = system.build(size);
    if (!simd)
        sim->config.simdWidth = 0;
    sim->thermoEvery = 0;
    sim->setup();

    Cell cell;
    cell.width = sim->config.laneWidth(false);
    cell.natoms = sim->atoms.nlocal();
    double best = -1.0;
    for (int rep = 0; rep < reps; ++rep) {
        WallTimer wall;
        sim->neighbor.build(*sim);
        const double elapsed = wall.seconds();
        if (best < 0.0 || elapsed < best)
            best = elapsed;
    }
    cell.buildMs = best * 1e3;
    cell.pairs = sim->neighbor.list().pairCount();
    cell.bytesPerAtom =
        static_cast<double>(listBytes(sim->neighbor.list())) /
        static_cast<double>(cell.natoms);
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchRun run(argc, argv, "bench_native_neigh_build");
    const bool quick = run.options().quick;

    const int reps = quick ? 2 : 3;
    // buildLJ(c) is 4c³ atoms: the full sweep ends at the paper's
    // 500k-atom LJ working set (the acceptance workload).
    // buildRhodoProxy(m) is ~3m³ atoms in a box of m × 3.1 Å; m = 14 is
    // the benchmark's rhodo-pppm system, and quick sizes keep the box
    // above twice the 12 Å build cutoff.
    const std::vector<System> systems{
        {"lj", [](int c) { return buildLJ(c); },
         quick ? std::vector<int>{5, 8} : std::vector<int>{16, 32, 50}},
        {"rhodo", [](int m) { return buildRhodoProxy(m); },
         quick ? std::vector<int>{9, 11} : std::vector<int>{14, 20}},
    };
    const int hwThreads = std::max(
        1, static_cast<int>(std::thread::hardware_concurrency()));
    std::vector<int> threadCounts{1};
    if (hwThreads > 1)
        threadCounts.push_back(hwThreads);

    const int previousThreads = ThreadPool::threads();
    Table table({"system", "width", "backend", "threads", "atoms",
                 "pairs", "build_ms", "ns_per_atom",
                 "list_bytes_per_atom", "vs_scalar_serial"});
    for (const System &system : systems) {
        for (const int size : system.sizes) {
            double scalarSerialMs = 0.0;
            for (const bool simd : {false, true}) {
                for (const int threads : threadCounts) {
                    const Cell cell =
                        runCell(system, size, simd, threads, reps);
                    if (!simd && threads == 1)
                        scalarSerialMs = cell.buildMs;
                    table.addRow(
                        {system.name, std::to_string(cell.width),
                         simdBackendName(cell.width),
                         std::to_string(threads),
                         std::to_string(cell.natoms),
                         std::to_string(cell.pairs),
                         formatDouble(cell.buildMs, 3),
                         formatDouble(cell.buildMs * 1e6 /
                                          static_cast<double>(cell.natoms),
                                      2),
                         formatDouble(cell.bytesPerAtom, 1),
                         formatDouble(cell.buildMs > 0.0
                                          ? scalarSerialMs / cell.buildMs
                                          : 0.0,
                                      3)});
                }
            }
        }
    }
    ThreadPool::setThreads(previousThreads);
    emitTable(std::cout, table, "native_neigh_build");
    return 0;
}
