#include "harness/experiment.h"

#include "gpusim/gpu_model.h"
#include "perf/cpu_model.h"
#include "util/error.h"
#include "util/string_utils.h"

namespace mdbench {

const char *
experimentModeName(ExperimentMode mode)
{
    switch (mode) {
      case ExperimentMode::NativeSerial: return "native-serial";
      case ExperimentMode::NativeRanked: return "native-ranked";
      case ExperimentMode::ModelCpu:     return "model-cpu";
      case ExperimentMode::ModelGpu:     return "model-gpu";
      default: panic("invalid ExperimentMode");
    }
}

std::string
ExperimentSpec::label() const
{
    return strprintf("%s-%ldk", benchmarkName(benchmark), natoms / 1000);
}

EngineConfig
ExperimentSpec::engineConfig() const
{
    EngineConfig config = EngineConfig::fromEnv();
    if (simdWidth)
        config.simdWidth = *simdWidth;
    config.precision = precision.value_or(config.precision);
    config.sortEvery = sortEvery.value_or(config.sortEvery);
    config.commOverlap = commOverlap.value_or(config.commOverlap);
    config.rankExec = rankExec.value_or(config.rankExec);
    return config;
}

double
ExperimentRecord::mpiFunctionFraction(MpiFunction fn) const
{
    double total = 0.0;
    for (double s : mpiFunctionSeconds)
        total += s;
    return total > 0.0 ? mpiFunctionSeconds[static_cast<std::size_t>(fn)] /
                             total
                       : 0.0;
}

ExperimentRecord
runModelExperiment(const ExperimentSpec &spec)
{
    ExperimentRecord record;
    record.spec = spec;
    const WorkloadInstance workload = WorkloadInstance::make(
        spec.benchmark, spec.natoms, spec.kspaceAccuracy,
        spec.precision.value_or(Precision::Mixed));

    if (spec.mode == ExperimentMode::ModelCpu) {
        static const CpuModel model;
        const CpuModelResult result =
            model.evaluate(workload, spec.resources, spec.steps);
        record.timestepsPerSecond = result.timestepsPerSecond;
        record.parallelEfficiencyPct =
            model.parallelEfficiency(workload, spec.resources);
        record.energyEfficiency = result.energyEfficiency;
        record.powerWatts = result.powerWatts;
        record.mpiTimePercent = result.mpiTimePercent;
        record.mpiImbalancePercent = result.mpiImbalancePercent;
        record.nsPerDay = result.nsPerDay;
        record.taskBreakdown = result.taskBreakdown;
        record.mpiFunctionSeconds = result.mpiFunctionSeconds;
    } else if (spec.mode == ExperimentMode::ModelGpu) {
        static const GpuModel model;
        const GpuModelResult result =
            model.evaluate(workload, spec.resources);
        record.timestepsPerSecond = result.timestepsPerSecond;
        record.parallelEfficiencyPct =
            model.parallelEfficiency(workload, spec.resources);
        record.energyEfficiency = result.energyEfficiency;
        record.powerWatts = result.powerWatts;
        record.deviceUtilization = result.deviceUtilization;
        record.nsPerDay = result.nsPerDay;
        record.taskBreakdown = result.taskBreakdown;
    } else {
        fatal("runModelExperiment handles model modes only; use "
              "runExperiment (core) for native modes");
    }
    return record;
}

} // namespace mdbench
