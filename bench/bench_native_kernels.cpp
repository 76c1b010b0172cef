/**
 * @file
 * google-benchmark microbenchmarks of the native engine's kernels:
 * pair styles, neighbor construction, FFT, PPPM solve, and SHAKE.
 * These measure the from-scratch substrate itself (the reproduction
 * host's numbers, not the paper platform).
 */

#include <benchmark/benchmark.h>

#include "core/suite.h"
#include "kspace/fft3d.h"
#include "md/simulation.h"
#include "obs/bench_options.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace mdbench;

// Thread-count sweep used by the *Threads benchmarks below: 1, 2, 4,
// and the machine default (0 = MDBENCH_THREADS / hardware_concurrency).
#define MDBENCH_THREAD_SWEEP(bench, cells)                                   \
    BENCHMARK(bench)                                                         \
        ->Args({cells, 1})                                                   \
        ->Args({cells, 2})                                                   \
        ->Args({cells, 4})                                                   \
        ->Args({cells, 0})

void
BM_PairLJCompute(benchmark::State &state)
{
    ThreadPool::setThreads(1); // serial reference
    auto sim = buildLJ(static_cast<int>(state.range(0)));
    sim->thermoEvery = 0;
    sim->setup();
    for (auto _ : state) {
        sim->atoms.zeroForces();
        sim->pair->compute(*sim, sim->neighbor.list());
        benchmark::DoNotOptimize(sim->pair->energy());
    }
    state.SetItemsProcessed(state.iterations() *
                            sim->neighbor.list().pairCount());
}
BENCHMARK(BM_PairLJCompute)->Arg(5)->Arg(8)->Arg(12);

void
BM_PairLJComputeThreads(benchmark::State &state)
{
    ThreadPool::setThreads(static_cast<int>(state.range(1)));
    auto sim = buildLJ(static_cast<int>(state.range(0)));
    sim->thermoEvery = 0;
    sim->setup();
    for (auto _ : state) {
        sim->atoms.zeroForces();
        sim->pair->compute(*sim, sim->neighbor.list());
        benchmark::DoNotOptimize(sim->pair->energy());
    }
    state.SetItemsProcessed(state.iterations() *
                            sim->neighbor.list().pairCount());
    state.counters["threads"] = sim->threadCount();
    ThreadPool::setThreads(1);
}
MDBENCH_THREAD_SWEEP(BM_PairLJComputeThreads, 8);

void
BM_PairEamCompute(benchmark::State &state)
{
    ThreadPool::setThreads(1); // serial reference
    auto sim = buildEAM(static_cast<int>(state.range(0)));
    sim->thermoEvery = 0;
    sim->setup();
    for (auto _ : state) {
        sim->atoms.zeroForces();
        sim->pair->compute(*sim, sim->neighbor.list());
        benchmark::DoNotOptimize(sim->pair->energy());
    }
    state.SetItemsProcessed(state.iterations() *
                            sim->neighbor.list().pairCount());
}
BENCHMARK(BM_PairEamCompute)->Arg(5)->Arg(8);

void
BM_PairEamComputeThreads(benchmark::State &state)
{
    ThreadPool::setThreads(static_cast<int>(state.range(1)));
    auto sim = buildEAM(static_cast<int>(state.range(0)));
    sim->thermoEvery = 0;
    sim->setup();
    for (auto _ : state) {
        sim->atoms.zeroForces();
        sim->pair->compute(*sim, sim->neighbor.list());
        benchmark::DoNotOptimize(sim->pair->energy());
    }
    state.SetItemsProcessed(state.iterations() *
                            sim->neighbor.list().pairCount());
    state.counters["threads"] = sim->threadCount();
    ThreadPool::setThreads(1);
}
MDBENCH_THREAD_SWEEP(BM_PairEamComputeThreads, 8);

void
BM_NeighborBuild(benchmark::State &state)
{
    ThreadPool::setThreads(1); // serial reference
    auto sim = buildLJ(static_cast<int>(state.range(0)));
    sim->thermoEvery = 0;
    sim->setup();
    for (auto _ : state) {
        sim->neighbor.build(*sim);
        benchmark::DoNotOptimize(sim->neighbor.list().pairCount());
    }
    state.SetItemsProcessed(state.iterations() * sim->atoms.nlocal());
}
BENCHMARK(BM_NeighborBuild)->Arg(5)->Arg(8)->Arg(12);

void
BM_NeighborBuildThreads(benchmark::State &state)
{
    ThreadPool::setThreads(static_cast<int>(state.range(1)));
    auto sim = buildLJ(static_cast<int>(state.range(0)));
    sim->thermoEvery = 0;
    sim->setup();
    for (auto _ : state) {
        sim->neighbor.build(*sim);
        benchmark::DoNotOptimize(sim->neighbor.list().pairCount());
    }
    state.SetItemsProcessed(state.iterations() * sim->atoms.nlocal());
    state.counters["threads"] = sim->threadCount();
    ThreadPool::setThreads(1);
}
MDBENCH_THREAD_SWEEP(BM_NeighborBuildThreads, 8);

void
BM_Fft3d(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    Fft3d fft(n, n, n);
    Rng rng(7);
    std::vector<Complex> input(fft.size());
    for (auto &value : input)
        value = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    std::vector<Complex> data = input;
    for (auto _ : state) {
        fft.forward(data);
        fft.inverse(data);
        benchmark::DoNotOptimize(data[0]);
        // The inverse is unnormalized: restore the input, untimed, so
        // repeated round trips never overflow.
        state.PauseTiming();
        data = input;
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() * fft.size());
}
BENCHMARK(BM_Fft3d)->Arg(16)->Arg(24)->Arg(32);

void
BM_RhodoProxyStep(benchmark::State &state)
{
    auto sim = buildRhodoProxy(static_cast<int>(state.range(0)));
    sim->thermoEvery = 0;
    sim->setup();
    for (auto _ : state)
        sim->run(1);
    state.SetItemsProcessed(state.iterations() * sim->atoms.nlocal());
}
BENCHMARK(BM_RhodoProxyStep)->Arg(8);

void
BM_ChuteStep(benchmark::State &state)
{
    auto sim = buildChute(10, 10, 6);
    sim->thermoEvery = 0;
    sim->setup();
    for (auto _ : state)
        sim->run(1);
    state.SetItemsProcessed(state.iterations() * sim->atoms.nlocal());
}
BENCHMARK(BM_ChuteStep);

} // namespace

// Expanded BENCHMARK_MAIN() with the shared mdbench flags stripped
// first, so --trace/--manifest coexist with google-benchmark's own
// command line.
int
main(int argc, char **argv)
{
    mdbench::BenchRun run(argc, argv, "bench_native_kernels",
                          mdbench::BenchHelp::PassOn);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
