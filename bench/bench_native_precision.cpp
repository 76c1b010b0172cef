/**
 * @file
 * Native precision-tier study (DESIGN.md §13): sweeps the three
 * compute tiers (double / mixed / single) over the vectorized pair
 * kernels at width 0 (SIMD off) and each compiled native SIMD width,
 * reporting Mpairs/s and the speedup against the double tier at its
 * own native width — the paper's Section 8 question ("what does
 * dropping precision buy?") asked of the native engine instead of the
 * analytical model. The lj/cut rows at each tier's native width also
 * carry accuracy columns: relative NVE energy drift over a long
 * microcanonical run and the maximum RDF deviation from the
 * double-tier trajectory.
 *
 * Usage: bench_native_precision [--quick] [shared flags]
 * `--quick` shrinks systems, the timing target, and the NVE run to
 * smoke-test size.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/suite.h"
#include "harness/report.h"
#include "md/analysis.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/bench_options.h"
#include "util/precision.h"
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

std::string
formatScientific(double value, int precision)
{
    std::ostringstream os;
    os.precision(precision);
    os << std::scientific << value;
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
 * Time pair->compute on a frozen neighbor list packed at @p tier and
 * @p width (both are baked in at setup's build; the compute dispatch
 * reads them back off the list). Iterations double until the
 * measurement exceeds @p targetSeconds, so each cell self-calibrates.
 */
Cell
runCell(const Config &config, Precision tier, int width,
        double targetSeconds)
{
    auto sim = config.build();
    sim->config.precision = tier;
    sim->config.simdWidth = width;
    sim->thermoEvery = 0;
    sim->setup();

    Cell cell;
    cell.natoms = sim->atoms.nlocal();
    cell.pairs = sim->neighbor.list().pairCount();
    cell.full = sim->neighbor.list().full;
    auto measure = [&](long iters) {
        WallTimer wall;
        for (long it = 0; it < iters; ++it) {
            sim->atoms.zeroForces();
            sim->pair->compute(*sim, sim->neighbor.list());
        }
        return wall.seconds();
    };
    long iters = 1;
    double elapsed;
    while ((elapsed = measure(iters)) < targetSeconds &&
           iters < (1L << 22))
        iters *= 2;
    // Best-of-3 at the calibrated repeat count: the minimum estimates
    // the uncontended cost, shielding the ratio columns from scheduler
    // noise on shared machines.
    elapsed = std::min({elapsed, measure(iters), measure(iters)});
    const double perCall = elapsed / static_cast<double>(iters);
    cell.mpairsPerSecond =
        perCall > 0.0 ? static_cast<double>(cell.pairs) / perCall * 1e-6
                      : 0.0;
    return cell;
}

struct Accuracy
{
    double drift = 0.0;    ///< |E(t) - E(0)| / |E(0)| after the run
    std::vector<double> g; ///< RDF histogram at the end of the run
};

/**
 * Long microcanonical LJ run at @p tier and the tier's native SIMD
 * width: the accuracy half of the study. The same deterministic
 * initial condition at every tier, so the RDF histograms are directly
 * comparable bin by bin.
 */
Accuracy
runAccuracy(Precision tier, int cells, long steps)
{
    auto sim = buildLJ(cells);
    sim->config.precision = tier;
    // Pin the tier's compiled width for the whole run: the engine
    // default resolves to width 0 on a generic build, which runs the
    // double kernels at every tier and would hide the float tiers
    // entirely.
    sim->config.simdWidth = tier == Precision::Double
                                ? kSimdCompiledWidth
                                : kSimdCompiledFloatWidth;
    sim->thermoEvery = 0;
    sim->setup();
    const double e0 = sim->kineticEnergy() + sim->potentialEnergy();
    sim->run(steps);
    const double e1 = sim->kineticEnergy() + sim->potentialEnergy();

    Accuracy accuracy;
    accuracy.drift = std::fabs(e1 - e0) / std::fabs(e0);
    accuracy.g = computeRdf(*sim, 2.5, 100).g;
    return accuracy;
}

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
        worst = std::max(worst, std::fabs(a[i] - b[i]));
    return worst;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchRun run(argc, argv, "bench_native_precision");
    const bool quick = run.options().quick;

    ThreadPool::setThreads(1); // isolate kernel throughput from threading
    const double target = quick ? 0.02 : 0.25;
    const int ljCells = quick ? 5 : 12;
    const int eamCells = quick ? 4 : 8;
    const int rhodoMolecules = 8;
    const int accuracyCells = quick ? 4 : 6;
    const long accuracySteps = quick ? 200 : 10000;

    const std::vector<Config> configs = {
        {"lj/cut", [&] { return buildLJ(ljCells); }},
        {"eam", [&] { return buildEAM(eamCells); }},
        {"lj/charmm/coul/long",
         [&] { return buildRhodoProxy(rhodoMolecules); }},
    };
    const std::vector<Precision> tiers = {
        Precision::Double, Precision::Mixed, Precision::Single};

    // Width 0 plus each compiled native width (double lanes and float
    // lanes differ on any real ISA; deduplicate for the generic build).
    std::vector<int> widths = {0, kSimdCompiledWidth};
    if (kSimdCompiledFloatWidth != kSimdCompiledWidth)
        widths.push_back(kSimdCompiledFloatWidth);

    // Accuracy study: one NVE run per tier at its native width; the
    // double tier's RDF is the reference the float tiers diverge from.
    const Accuracy reference =
        runAccuracy(Precision::Double, accuracyCells, accuracySteps);
    std::vector<std::pair<Precision, Accuracy>> accuracy = {
        {Precision::Double, reference}};
    for (Precision tier : {Precision::Mixed, Precision::Single})
        accuracy.emplace_back(
            tier, runAccuracy(tier, accuracyCells, accuracySteps));

    Table table({"kernel", "list", "tier", "width", "backend", "atoms",
                 "pairs", "mpairs_per_s", "vs_double_native",
                 "energy_drift", "rdf_max_err"});
    for (const Config &config : configs) {
        struct Row
        {
            Precision tier;
            int width;
            Cell cell;
        };
        std::vector<Row> rows;
        double doubleNativeRate = 0.0;
        for (Precision tier : tiers) {
            const int native = tier == Precision::Double
                                   ? kSimdCompiledWidth
                                   : kSimdCompiledFloatWidth;
            for (int width : widths) {
                const Cell cell = runCell(config, tier, width, target);
                if (tier == Precision::Double && width == native)
                    doubleNativeRate = cell.mpairsPerSecond;
                rows.push_back({tier, width, cell});
            }
        }
        for (const Row &row : rows) {
            const bool floatLanes = row.tier != Precision::Double;
            const int native = floatLanes ? kSimdCompiledFloatWidth
                                          : kSimdCompiledWidth;
            std::string drift = "-";
            std::string rdfErr = "-";
            // The accuracy run is lj/cut's: attach its columns to the
            // lj/cut throughput rows at each tier's native width.
            if (config.kernel == "lj/cut" && row.width == native) {
                for (const auto &[tier, acc] : accuracy) {
                    if (tier != row.tier)
                        continue;
                    drift = formatScientific(acc.drift, 2);
                    rdfErr = formatScientific(
                        maxAbsDiff(acc.g, reference.g), 2);
                }
            }
            table.addRow(
                {config.kernel, row.cell.full ? "full" : "half",
                 precisionName(row.tier), std::to_string(row.width),
                 simdBackendName(row.width, floatLanes),
                 std::to_string(row.cell.natoms),
                 std::to_string(row.cell.pairs),
                 formatDouble(row.cell.mpairsPerSecond, 2),
                 formatDouble(doubleNativeRate > 0.0
                                  ? row.cell.mpairsPerSecond /
                                        doubleNativeRate
                                  : 0.0,
                              3),
                 drift, rdfErr});
        }
    }
    emitTable(std::cout, table, "native_precision");
    return 0;
}
