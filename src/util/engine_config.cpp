#include "util/engine_config.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>

#include "util/error.h"
#include "util/simd.h"

namespace mdbench {

namespace {

/** The value @p text names among @p choices; fatal() on any other. */
template <typename T>
T
pick(const char *name, const char *text,
     std::initializer_list<std::pair<const char *, T>> choices)
{
    std::string accepted;
    for (const auto &[word, value] : choices) {
        if (std::strcmp(text, word) == 0)
            return value;
        accepted += (accepted.empty() ? "" : ", ") + std::string(word);
    }
    fatal(std::string(name) + "='" + text + "' is not supported: use " +
          accepted);
}

/** @p text as a whole decimal integer >= @p min; fatal() otherwise. */
int
parseCount(const char *name, const char *text, int min)
{
    int value = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value < min)
        fatal(std::string(name) + "='" + text +
              "' is not supported: use an integer >= " +
              std::to_string(min));
    return value;
}

/** The variable's value, or nullptr when it is unset or empty. */
const char *
knob(const char *name)
{
    const char *value = std::getenv(name);
    return value != nullptr && *value != '\0' ? value : nullptr;
}

} // namespace

const char *
rankExecutionName(RankExecution exec)
{
    return exec == RankExecution::Sequential ? "sequential" : "concurrent";
}

int
EngineConfig::laneWidth(bool floatLanes) const
{
    return simdWidth ? *simdWidth : simdNativeWidth(floatLanes);
}

void
EngineConfig::validate() const
{
    if (simdWidth && *simdWidth != 0 && !simdWidthSupported(*simdWidth))
        fatal("SIMD width " + std::to_string(*simdWidth) +
              " is not supported: use 0, 1, 2, 4, 8 or 16");
    require(sortEvery >= 0, "sort interval must be >= 0");
}

EngineConfig
EngineConfig::fromEnv()
{
    return EngineEnv::process().config;
}

EngineEnv
EngineEnv::read()
{
    EngineEnv env;
    EngineConfig &config = env.config;
    if (const char *text = knob("MDBENCH_SIMD"))
        config.simdWidth = pick<std::optional<int>>(
            "MDBENCH_SIMD", text,
            {{"0", 0}, {"off", 0}, {"1", std::nullopt}, {"on", std::nullopt},
             {"native", std::nullopt}, {"2", 2}, {"4", 4}, {"8", 8},
             {"16", 16}});
    if (const char *text = knob("MDBENCH_PRECISION"))
        config.precision = pick<Precision>(
            "MDBENCH_PRECISION", text,
            {{"double", Precision::Double}, {"mixed", Precision::Mixed},
             {"single", Precision::Single}});
    if (const char *text = knob("MDBENCH_SORT_EVERY"))
        config.sortEvery = parseCount("MDBENCH_SORT_EVERY", text, 0);
    if (const char *text = knob("MDBENCH_RANK_EXEC"))
        config.rankExec = pick<RankExecution>(
            "MDBENCH_RANK_EXEC", text,
            {{"concurrent", RankExecution::Concurrent},
             {"seq", RankExecution::Sequential},
             {"sequential", RankExecution::Sequential}});
    if (const char *text = knob("MDBENCH_COMM_OVERLAP"))
        config.commOverlap = pick<bool>("MDBENCH_COMM_OVERLAP", text,
                                        {{"0", false}, {"1", true}});
    if (const char *text = knob("MDBENCH_THREADS"))
        env.threads = parseCount("MDBENCH_THREADS", text, 1);
    return env;
}

const EngineEnv &
EngineEnv::process()
{
    static const EngineEnv env = read();
    return env;
}

int
simdWidth()
{
    return EngineConfig::fromEnv().laneWidth(false);
}

Precision
precisionTier()
{
    return EngineConfig::fromEnv().precision;
}

} // namespace mdbench
