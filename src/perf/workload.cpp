#include "perf/workload.h"

#include <cmath>

#include "util/error.h"

namespace mdbench {

const std::vector<BenchmarkId> &
allBenchmarks()
{
    static const std::vector<BenchmarkId> all = {
        BenchmarkId::Chain, BenchmarkId::Chute, BenchmarkId::EAM,
        BenchmarkId::LJ, BenchmarkId::Rhodo};
    return all;
}

const std::vector<BenchmarkId> &
gpuBenchmarks()
{
    // The standard GPU package has no gran/hooke support (Section 6).
    static const std::vector<BenchmarkId> gpu = {
        BenchmarkId::Chain, BenchmarkId::EAM, BenchmarkId::LJ,
        BenchmarkId::Rhodo};
    return gpu;
}

const char *
benchmarkName(BenchmarkId id)
{
    switch (id) {
      case BenchmarkId::Rhodo: return "rhodo";
      case BenchmarkId::LJ:    return "lj";
      case BenchmarkId::Chain: return "chain";
      case BenchmarkId::EAM:   return "eam";
      case BenchmarkId::Chute: return "chute";
      default: panic("invalid BenchmarkId");
    }
}

WorkloadSpec
WorkloadSpec::get(BenchmarkId id)
{
    WorkloadSpec spec;
    spec.id = id;
    switch (id) {
      case BenchmarkId::Rhodo:
        spec.forceField = "CHARMM";
        spec.cutoff = 10.0; // Angstrom (8.0-10.0 switching)
        spec.skin = 2.0;
        spec.neighborsPerAtom = 440.0;
        spec.hasBonds = true;
        spec.hasAngles = true;
        spec.usesKspace = true;
        spec.usesShake = true;
        spec.nptIntegration = true;
        spec.bondsPerAtom = 0.9;
        spec.anglesPerAtom = 0.6;
        spec.numberDensity = 0.10; // atoms / A^3 (solvated biomolecule)
        spec.pairCostUnits = 1.15; // LJ switch + erfc/exp Coulomb
        spec.rebuildInterval = 8.0;
        spec.coreUtilization = 0.83;
        spec.imbalanceFactor = 0.05;
        spec.chargeSq = 0.4;
        spec.doubleCostFactor = 1.45; // erfc/exp heavy kernel
        break;
      case BenchmarkId::LJ:
        spec.forceField = "lj";
        spec.cutoff = 2.5; // sigma
        spec.skin = 0.3;
        spec.neighborsPerAtom = 55.0;
        spec.numberDensity = 0.8442;
        spec.pairCostUnits = 1.0;
        spec.rebuildInterval = 10.0;
        spec.coreUtilization = 0.48;
        spec.imbalanceFactor = 0.006;
        break;
      case BenchmarkId::Chain:
        spec.forceField = "lj (FENE chains)";
        spec.cutoff = 1.12; // 2^(1/6) sigma, WCA
        spec.skin = 0.4;
        spec.neighborsPerAtom = 5.0;
        spec.hasBonds = true;
        spec.bondsPerAtom = 0.99; // 100-mers
        spec.numberDensity = 0.85;
        spec.pairCostUnits = 3.0; // scalar path, short neighbor lists
        spec.gpuPairFactor = 1.5;
        spec.rebuildInterval = 12.0;
        spec.coreUtilization = 0.56;
        spec.imbalanceFactor = 0.06;
        spec.extraFixCostPerAtom = 10.0; // Langevin thermostat (RNG heavy)
        break;
      case BenchmarkId::EAM:
        spec.forceField = "EAM";
        spec.cutoff = 4.95; // Angstrom
        spec.skin = 1.0;
        spec.neighborsPerAtom = 45.0;
        spec.numberDensity = 4.0 / (3.615 * 3.615 * 3.615); // Cu fcc
        spec.pairCostUnits = 1.8; // two passes + spline lookups
        spec.gpuPairFactor = 2.2;
        spec.rebuildInterval = 25.0;
        spec.coreUtilization = 0.63;
        spec.imbalanceFactor = 0.006;
        break;
      case BenchmarkId::Chute:
        spec.forceField = "gran/hooke/history";
        spec.cutoff = 1.0; // sigma (particle diameter)
        spec.skin = 0.1;
        spec.neighborsPerAtom = 7.0;
        spec.newton3 = false; // paper Section 3
        spec.numberDensity = 1.0;
        spec.pairCostUnits = 1.45; // history bookkeeping, scalar code
        spec.rebuildInterval = 18.0;
        spec.coreUtilization = 0.24;
        spec.imbalanceFactor = 0.11; // gravity-packed bed
        spec.extraFixCostPerAtom = 1.5; // gravity + bottom wall
        spec.sizeCostExponent = 0.20;   // deeper beds, denser contacts
        break;
      default:
        panic("invalid BenchmarkId");
    }
    return spec;
}

double
WorkloadInstance::pairInteractionsPerStep() const
{
    // Half lists visit each pair once (Newton's third law); Chute's
    // full lists compute both sides.
    const double perAtom = spec.newton3 ? spec.neighborsPerAtom / 2.0
                                        : spec.neighborsPerAtom;
    return static_cast<double>(natoms) * perAtom;
}

long
WorkloadInstance::kspaceGridPoints() const
{
    return spec.usesKspace ? kspacePlan.gridPoints() : 0;
}

WorkloadInstance
WorkloadInstance::make(BenchmarkId id, long natoms, double kspaceAccuracy,
                       Precision precision)
{
    require(natoms > 0, "workload needs atoms");
    WorkloadInstance instance;
    instance.spec = WorkloadSpec::get(id);
    instance.natoms = natoms;
    instance.kspaceAccuracy = kspaceAccuracy;
    instance.precision = precision;
    const double edge =
        std::cbrt(static_cast<double>(natoms) / instance.spec.numberDensity);
    instance.boxLength = {edge, edge, edge};

    if (instance.spec.usesKspace) {
        KspaceProblem problem;
        problem.boxLength = instance.boxLength;
        problem.natoms = natoms;
        problem.qSqSum = instance.spec.chargeSq * natoms;
        problem.qqr2e = 332.06371; // real units
        problem.cutoff = instance.spec.cutoff;
        problem.accuracy = kspaceAccuracy;
        problem.order = 5;
        instance.kspacePlan = planKspace(problem);
    }
    return instance;
}

const std::vector<long> &
paperSizesK()
{
    static const std::vector<long> sizes = {32, 256, 864, 2048};
    return sizes;
}

const std::vector<int> &
paperRankCounts()
{
    static const std::vector<int> ranks = {1, 2, 4, 8, 16, 32, 64};
    return ranks;
}

const std::vector<int> &
paperGpuCounts()
{
    static const std::vector<int> gpus = {1, 2, 4, 6, 8};
    return gpus;
}

const std::vector<double> &
paperErrorThresholds()
{
    static const std::vector<double> thresholds = {1e-4, 1e-5, 1e-6, 1e-7};
    return thresholds;
}

} // namespace mdbench
