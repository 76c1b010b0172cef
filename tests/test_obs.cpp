/**
 * @file
 * Unit tests for the observability layer (src/obs/): the event tracer,
 * the counter registry, the JSON writer/parser, BenchOptions parsing,
 * TaskScope, and the run-manifest schema (golden-file style, validated
 * with the bundled JSON parser against a real tiny LJ run).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/suite.h"
#include "kspace/fft3d.h"
#include "md/neighbor.h"
#include "md/simulation.h"
#include "obs/bench_options.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/task_scope.h"
#include "obs/trace.h"
#include "util/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mdbench {
namespace {

/** Default per-thread ring capacity (mirrors trace.cpp). */
constexpr std::size_t kDefaultCapacity = std::size_t{1} << 15;

/** Reset the tracer to a known state between tests. */
void
resetTracer()
{
    traceDisable();
    traceClear();
    traceSetBufferCapacity(kDefaultCapacity);
}

std::string
exportTrace()
{
    std::ostringstream os;
    writeChromeTrace(os);
    return os.str();
}

// ------------------------------------------------------------------ trace

TEST(Trace, DisabledRecordsNothing)
{
    resetTracer();
    {
        TraceScope scope("test", "outer");
        traceInstant("test", "tick");
    }
    EXPECT_EQ(traceRecordedEvents(), 0u);
    EXPECT_EQ(traceDroppedEvents(), 0u);
}

TEST(Trace, NestedScopesExportValidChromeJson)
{
    resetTracer();
    traceEnable();
    {
        TraceScope outer("test", "outer");
        {
            TraceScope inner("test", "inner");
            traceInstant("test", "tick");
        }
    }
    traceDisable();
    EXPECT_EQ(traceRecordedEvents(), 5u); // 2 B, 2 E, 1 i

    const auto doc = JsonValue::parse(exportTrace());
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->size(), 5u);

    // Same-thread events come out in recording order: B B i E E.
    const char *phases[] = {"B", "B", "i", "E", "E"};
    const char *names[] = {"outer", "inner", "tick", "inner", "outer"};
    double lastTs = -1.0;
    for (std::size_t e = 0; e < 5; ++e) {
        const JsonValue &event = events->at(e);
        EXPECT_EQ(event.find("ph")->asString(), phases[e]);
        EXPECT_EQ(event.find("name")->asString(), names[e]);
        EXPECT_EQ(event.find("cat")->asString(), "test");
        const double ts = event.find("ts")->asNumber();
        EXPECT_GE(ts, lastTs);
        lastTs = ts;
    }
    resetTracer();
}

TEST(Trace, ScopeStartedWhileDisabledStaysUnpaired)
{
    resetTracer();
    {
        TraceScope scope("test", "straddle"); // disabled at construction
        traceEnable();
    } // must NOT emit a dangling E event
    traceDisable();
    EXPECT_EQ(traceRecordedEvents(), 0u);
    resetTracer();
}

TEST(Trace, RingWrapDropsOldestAndCounts)
{
    resetTracer();
    traceSetBufferCapacity(8);
    traceEnable();
    static const char *const digits[] = {"0", "1", "2", "3", "4", "5", "6",
                                         "7", "8", "9", "10", "11", "12",
                                         "13", "14", "15", "16", "17", "18",
                                         "19"};
    for (int e = 0; e < 20; ++e)
        traceInstant("wrap", digits[e]);
    traceDisable();

    EXPECT_EQ(traceRecordedEvents(), 8u);
    EXPECT_EQ(traceDroppedEvents(), 12u);

    const auto doc = JsonValue::parse(exportTrace());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 8u);
    // The survivors are the newest eight, oldest first.
    for (std::size_t e = 0; e < 8; ++e)
        EXPECT_EQ(events->at(e).find("name")->asString(), digits[12 + e]);
    resetTracer();
}

TEST(Trace, ClearResetsEventsAndDropCount)
{
    resetTracer();
    traceSetBufferCapacity(4);
    traceEnable();
    for (int e = 0; e < 9; ++e)
        traceInstant("wrap", "x");
    traceDisable();
    EXPECT_GT(traceDroppedEvents(), 0u);
    traceClear();
    EXPECT_EQ(traceRecordedEvents(), 0u);
    EXPECT_EQ(traceDroppedEvents(), 0u);
    resetTracer();
}

// --------------------------------------------------------------- counters

TEST(Counters, NamesAreStableAndDistinct)
{
    std::set<std::string> names;
    for (std::size_t c = 0; c < kNumCounters; ++c)
        names.insert(counterName(static_cast<Counter>(c)));
    EXPECT_EQ(names.size(), kNumCounters);
    EXPECT_EQ(names.count("neigh.builds"), 1u);
    EXPECT_EQ(names.count("neigh.excluded_pairs"), 1u);
    EXPECT_EQ(names.count("pair.interactions"), 1u);
    EXPECT_EQ(names.count("kspace.ffts"), 1u);
    EXPECT_EQ(names.count("pool.slices"), 1u);
    EXPECT_EQ(names.count("mpi.modeled_bytes"), 1u);
    // Hybrid rank×thread runtime counters (DESIGN.md §17).
    EXPECT_EQ(names.count("pair.interior_pairs"), 1u);
    EXPECT_EQ(names.count("pair.boundary_pairs"), 1u);
    EXPECT_EQ(names.count("comm.overlap_steps"), 1u);
    EXPECT_EQ(names.count("comm.bytes_inflight"), 1u);
}

TEST(Counters, AddAndReset)
{
    resetCounters();
    counterAdd(Counter::NeighBuilds);
    counterAdd(Counter::NeighPairs, 41);
    counterAdd(Counter::NeighPairs);
    EXPECT_EQ(counterValue(Counter::NeighBuilds), 1u);
    EXPECT_EQ(counterValue(Counter::NeighPairs), 42u);
    resetCounters();
    EXPECT_EQ(counterValue(Counter::NeighPairs), 0u);
}

TEST(Counters, ExactUnderThreadPoolContention)
{
    ThreadPool::setThreads(4);
    resetCounters();
    ThreadPool &pool = ThreadPool::global();
    constexpr std::size_t kItems = 100000;
    pool.parallelFor(0, kItems, 64,
                     [](std::size_t begin, std::size_t end, int) {
                         for (std::size_t i = begin; i < end; ++i)
                             counterAdd(Counter::MpiMessages);
                     });
    EXPECT_EQ(counterValue(Counter::MpiMessages), kItems);
    resetCounters();
    ThreadPool::setThreads(1);
}

TEST(Counters, GlobalTaskSecondsAccumulate)
{
    resetCounters();
    chargeGlobalTask(Task::Pair, 0.25);
    chargeGlobalTask(Task::Pair, 0.5);
    chargeGlobalTask(Task::Comm, 1.0);
    const auto seconds = globalTaskSeconds();
    EXPECT_NEAR(seconds[static_cast<std::size_t>(Task::Pair)], 0.75, 1e-9);
    EXPECT_NEAR(seconds[static_cast<std::size_t>(Task::Comm)], 1.0, 1e-9);
    resetCounters();
}

TEST(Counters, SimdKernelLaneAccounting)
{
    // setup() does exactly one neighbor build and one force compute, so
    // the SIMD lane counters must come out exactly: every stored pair
    // is one active lane, every sentinel slot one wasted lane, and
    // together they tile the padded rows with no remainder.
    setSimdWidth(4);
    resetCounters();
    auto sim = buildLJ(4);
    sim->thermoEvery = 0;
    sim->setup();
    const NeighborList &list = sim->neighbor.list();
    ASSERT_TRUE(list.packedFor(4));
    const auto lanes = counterValue(Counter::PairSimdLanesActive);
    const auto waste = counterValue(Counter::PairSimdPaddingWaste);
    EXPECT_EQ(lanes, list.pairCount());
    EXPECT_EQ(waste, list.paddedSlots);
    EXPECT_EQ(counterValue(Counter::NeighPaddedSlots), list.paddedSlots);
    EXPECT_EQ((lanes + waste) % 4, 0u);
    resetCounters();
    setSimdWidth(-1);
}

TEST(Counters, SimdCountersStaySilentOnScalarPath)
{
    setSimdWidth(0);
    resetCounters();
    auto sim = buildLJ(4);
    sim->thermoEvery = 0;
    sim->setup();
    EXPECT_EQ(counterValue(Counter::PairSimdLanesActive), 0u);
    EXPECT_EQ(counterValue(Counter::PairSimdPaddingWaste), 0u);
    EXPECT_EQ(counterValue(Counter::NeighPaddedSlots), 0u);
    resetCounters();
    setSimdWidth(-1);
}

TEST(Trace, SimdKernelScopeAppearsInExport)
{
    setSimdWidth(4);
    resetTracer();
    traceEnable();
    {
        auto sim = buildLJ(4);
        sim->thermoEvery = 0;
        sim->setup();
    }
    traceDisable();
    const auto doc = JsonValue::parse(exportTrace());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool sawSimdScope = false;
    for (std::size_t e = 0; e < events->size(); ++e) {
        const JsonValue &event = events->at(e);
        if (event.find("cat")->asString() == "pair" &&
            event.find("name")->asString() == "simd" &&
            event.find("ph")->asString() == "B")
            sawSimdScope = true;
    }
    EXPECT_TRUE(sawSimdScope);
    resetTracer();
    setSimdWidth(-1);
}

TEST(Counters, NeighborBuildFilterAccounting)
{
    // setup() does exactly one build: candidates are every stencil slot
    // the filter examined, accepted is exactly the stored payload, and
    // neither depends on the filter width (the scalar walk examines the
    // same candidate set).
    setSimdWidth(4);
    resetCounters();
    auto sim = buildLJ(4);
    sim->thermoEvery = 0;
    sim->setup();
    const auto candidates = counterValue(Counter::NeighBuildCandidates);
    const auto accepted = counterValue(Counter::NeighBuildAccepted);
    EXPECT_GT(candidates, accepted);
    EXPECT_GT(accepted, 0u);
    EXPECT_EQ(accepted, sim->neighbor.list().pairCount());
    setSimdWidth(-1);

    setSimdWidth(0);
    resetCounters();
    auto scalar = buildLJ(4);
    scalar->thermoEvery = 0;
    scalar->setup();
    EXPECT_EQ(counterValue(Counter::NeighBuildCandidates), candidates);
    EXPECT_EQ(counterValue(Counter::NeighBuildAccepted), accepted);
    resetCounters();
    setSimdWidth(-1);
}

TEST(Counters, NeighborExcludedPairsAccounting)
{
    // In-range pairs dropped by the special lists: charged once per
    // build whatever the filter width, and zero for a system without
    // bonds or angles.
    auto excludedAt = [](int width, bool bonded) {
        setSimdWidth(width);
        resetCounters();
        auto sim = bonded ? buildChain(4) : buildLJ(4);
        sim->thermoEvery = 0;
        sim->setup();
        setSimdWidth(-1);
        return counterValue(Counter::NeighExcludedPairs);
    };
    const auto vectorized = excludedAt(4, true);
    EXPECT_GT(vectorized, 0u);
    EXPECT_EQ(excludedAt(0, true), vectorized);
    EXPECT_EQ(excludedAt(4, false), 0u);
    resetCounters();
}

TEST(Trace, NeighborBuildFilterScopeAppearsInExport)
{
    resetTracer();
    traceEnable();
    {
        auto sim = buildLJ(4);
        sim->thermoEvery = 0;
        sim->setup();
    }
    traceDisable();
    const auto doc = JsonValue::parse(exportTrace());
    ASSERT_TRUE(doc.has_value());
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool sawFilterScope = false;
    for (std::size_t e = 0; e < events->size(); ++e) {
        const JsonValue &event = events->at(e);
        if (event.find("cat")->asString() == "neigh" &&
            event.find("name")->asString() == "build_filter" &&
            event.find("ph")->asString() == "B")
            sawFilterScope = true;
    }
    EXPECT_TRUE(sawFilterScope);
    resetTracer();
}

// -------------------------------------------------------------- TaskScope

TEST(TaskScope, ChargesLocalTimerAndGlobalAccumulator)
{
    resetCounters();
    TaskTimer timer;
    {
        TaskScope scope(timer, Task::Neigh);
        volatile double x = 0.0;
        for (int i = 0; i < 50000; ++i)
            x = x + std::sqrt(static_cast<double>(i));
        (void)x;
    }
    EXPECT_GT(timer.seconds(Task::Neigh), 0.0);
    const auto seconds = globalTaskSeconds();
    EXPECT_GT(seconds[static_cast<std::size_t>(Task::Neigh)], 0.0);
    resetCounters();
}

// ------------------------------------------------------------------- json

TEST(Json, WriterRoundTripsThroughParser)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.key("name").value("quote \" backslash \\ newline \n tab \t");
    json.key("count").value(std::uint64_t{18446744073709551615ull});
    json.key("pi").value(3.141592653589793);
    json.key("flag").value(true);
    json.key("list").beginArray();
    json.value(1).value(2).value(3);
    json.endArray();
    json.endObject();

    const auto doc = JsonValue::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("name")->asString(),
              "quote \" backslash \\ newline \n tab \t");
    EXPECT_DOUBLE_EQ(doc->find("pi")->asNumber(), 3.141592653589793);
    EXPECT_TRUE(doc->find("flag")->asBool());
    ASSERT_EQ(doc->find("list")->size(), 3u);
    EXPECT_DOUBLE_EQ(doc->find("list")->at(2).asNumber(), 3.0);
}

TEST(Json, ParserAcceptsValidDocuments)
{
    EXPECT_TRUE(JsonValue::parse("null").has_value());
    EXPECT_TRUE(JsonValue::parse("[]").has_value());
    EXPECT_TRUE(JsonValue::parse("{\"a\":[1,-2.5e3,{\"b\":false}]}")
                    .has_value());
    EXPECT_TRUE(JsonValue::parse("  \"\\u0041\\u00e9\"  ").has_value());
    EXPECT_EQ(JsonValue::parse("\"\\u0041\"")->asString(), "A");
}

TEST(Json, ParserRejectsMalformedDocuments)
{
    EXPECT_FALSE(JsonValue::parse("").has_value());
    EXPECT_FALSE(JsonValue::parse("{").has_value());
    EXPECT_FALSE(JsonValue::parse("[1,]").has_value());
    EXPECT_FALSE(JsonValue::parse("{\"a\" 1}").has_value());
    EXPECT_FALSE(JsonValue::parse("\"unterminated").has_value());
    EXPECT_FALSE(JsonValue::parse("tru").has_value());
    EXPECT_FALSE(JsonValue::parse("{} trailing").has_value());
    EXPECT_FALSE(JsonValue::parse("01").has_value());
}

// ----------------------------------------------------------- BenchOptions

TEST(BenchOptions, ParsesAndStripsSharedFlags)
{
    const LogLevel before = logLevel();
    std::vector<std::string> storage = {
        "prog",          "--trace",  "t.json", "--benchmark_filter=BM_X",
        "--manifest=m.json", "--log-level", "inform", "positional"};
    std::vector<char *> argv;
    for (auto &arg : storage)
        argv.push_back(arg.data());
    int argc = static_cast<int>(argv.size());
    argv.push_back(nullptr); // the argv[argc] slot real mains guarantee

    const BenchOptions options = parseBenchOptions(argc, argv.data());
    EXPECT_EQ(options.tracePath, "t.json");
    EXPECT_EQ(options.manifestPath, "m.json");
    EXPECT_EQ(options.logLevel, "inform");
    EXPECT_FALSE(options.help);
    EXPECT_EQ(logLevel(), LogLevel::Inform);

    // Unrecognized arguments survive, in order, compacted to the front.
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "--benchmark_filter=BM_X");
    EXPECT_STREQ(argv[2], "positional");

    setLogLevel(before);
}

TEST(BenchOptions, HelpIsDetectedAndKept)
{
    std::vector<std::string> storage = {"prog", "--help"};
    std::vector<char *> argv;
    for (auto &arg : storage)
        argv.push_back(arg.data());
    int argc = static_cast<int>(argv.size());
    argv.push_back(nullptr); // the argv[argc] slot real mains guarantee
    const BenchOptions options = parseBenchOptions(argc, argv.data());
    EXPECT_TRUE(options.help);
    // --help stays visible so a wrapped parser (google-benchmark) can
    // print its own usage too.
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--help");
}

// --------------------------------------------------------------- manifest

/**
 * Golden-file test: trace + manifest from a real tiny LJ run, then a
 * schema walk over the parsed JSON. Also exercises the acceptance
 * criterion that a traced run covers the neigh/pair/kspace/pool
 * categories (kspace via a direct FFT, since LJ has no solver).
 */
TEST(Manifest, TinyLjRunProducesSchemaCompleteManifest)
{
    ThreadPool::setThreads(1);
    resetTracer();
    resetCounters();
    traceEnable();

    auto sim = buildLJ(4);
    sim->thermoEvery = 0;
    sim->setup();
    sim->run(3);

    Fft3d fft(8, 8, 8);
    std::vector<Complex> data(fft.size(), Complex{0.5, -0.5});
    fft.forward(data);
    fft.inverse(data);

    traceDisable();

    RunManifest manifest("test_obs");
    Table table({"figure", "value"});
    table.addRow({"fig99", "1.25"});
    manifest.addTable("fig99", table);
    manifest.captureRuntime();

    std::ostringstream os;
    manifest.write(os);
    const auto doc = JsonValue::parse(os.str());
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isObject());

    EXPECT_EQ(doc->find("schema")->asString(), "mdbench-manifest-v1");
    EXPECT_EQ(doc->find("program")->asString(), "test_obs");

    const JsonValue *platform = doc->find("platform");
    ASSERT_NE(platform, nullptr);
    for (const char *key : {"hostname", "os", "kernel", "arch", "compiler"})
        ASSERT_NE(platform->find(key), nullptr) << key;
    EXPECT_GE(platform->find("hardware_threads")->asNumber(), 1.0);

    const JsonValue *build = doc->find("build");
    ASSERT_NE(build, nullptr);
    ASSERT_NE(build->find("type"), nullptr);
    ASSERT_NE(build->find("sanitize"), nullptr);
    ASSERT_NE(build->find("native_arch"), nullptr);

    EXPECT_EQ(doc->find("threads")->asNumber(), 1.0);

    const JsonValue *tasks = doc->find("tasks");
    ASSERT_NE(tasks, nullptr);
    ASSERT_EQ(tasks->size(), kNumTasks);
    for (std::size_t t = 0; t < kNumTasks; ++t)
        ASSERT_NE(tasks->find(taskName(static_cast<Task>(t))), nullptr);
    // The step loop ran, so Pair and Neigh accumulated real time.
    EXPECT_GT(tasks->find("Pair")->asNumber(), 0.0);
    EXPECT_GT(tasks->find("Neigh")->asNumber(), 0.0);

    const JsonValue *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_EQ(counters->size(), kNumCounters);
    for (std::size_t c = 0; c < kNumCounters; ++c)
        ASSERT_NE(counters->find(counterName(static_cast<Counter>(c))),
                  nullptr);
    EXPECT_GT(counters->find("neigh.builds")->asNumber(), 0.0);
    EXPECT_GT(counters->find("pair.interactions")->asNumber(), 0.0);
    EXPECT_EQ(counters->find("kspace.ffts")->asNumber(), 2.0);
    EXPECT_GT(counters->find("pool.regions")->asNumber(), 0.0);

    const JsonValue *trace = doc->find("trace");
    ASSERT_NE(trace, nullptr);
    EXPECT_GT(trace->find("recorded")->asNumber(), 0.0);

    const JsonValue *tables = doc->find("tables");
    ASSERT_NE(tables, nullptr);
    ASSERT_EQ(tables->size(), 1u);
    const JsonValue &record = tables->at(0);
    EXPECT_EQ(record.find("tag")->asString(), "fig99");
    ASSERT_EQ(record.find("headers")->size(), 2u);
    EXPECT_EQ(record.find("headers")->at(1).asString(), "value");
    ASSERT_EQ(record.find("rows")->size(), 1u);
    EXPECT_EQ(record.find("rows")->at(0).at(1).asString(), "1.25");

    // Acceptance criterion: the trace of an end-to-end run covers the
    // four engine categories (plus task/comm from the step loop).
    const auto traceDoc = JsonValue::parse(exportTrace());
    ASSERT_TRUE(traceDoc.has_value());
    const JsonValue *events = traceDoc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::set<std::string> categories;
    for (std::size_t e = 0; e < events->size(); ++e)
        categories.insert(events->at(e).find("cat")->asString());
    for (const char *cat : {"neigh", "pair", "kspace", "pool", "comm",
                            "task"})
        EXPECT_EQ(categories.count(cat), 1u) << cat;

    resetTracer();
    resetCounters();
}

TEST(Manifest, ActiveManifestCollectsEmittedTables)
{
    RunManifest manifest("test_obs");
    setActiveManifest(&manifest);
    EXPECT_EQ(activeManifest(), &manifest);
    setActiveManifest(nullptr);
    EXPECT_EQ(activeManifest(), nullptr);
}

} // namespace
} // namespace mdbench
