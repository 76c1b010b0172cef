#include "util/precision.h"

#include <cstdlib>
#include <cstring>
#include <string>

#include "util/error.h"

namespace mdbench {

namespace {

// Precision::EngineDefault means "no override": fall back to the
// MDBENCH_PRECISION environment default (itself defaulting to double).
Precision overrideTier = Precision::EngineDefault;

} // namespace

const char *
precisionName(Precision precision)
{
    switch (precision) {
      case Precision::Mixed:  return "mixed";
      case Precision::Single: return "single";
      case Precision::Double: return "double";
      case Precision::EngineDefault: return "default";
      default: panic("invalid Precision");
    }
}

bool
parsePrecision(const char *text, Precision &out)
{
    if (text == nullptr)
        return false;
    if (std::strcmp(text, "double") == 0) {
        out = Precision::Double;
    } else if (std::strcmp(text, "mixed") == 0) {
        out = Precision::Mixed;
    } else if (std::strcmp(text, "single") == 0) {
        out = Precision::Single;
    } else if (std::strcmp(text, "default") == 0) {
        out = Precision::EngineDefault;
    } else {
        return false;
    }
    return true;
}

Precision
defaultPrecisionTier()
{
    const char *env = std::getenv("MDBENCH_PRECISION");
    if (env == nullptr || *env == '\0')
        return Precision::Double;
    Precision parsed = Precision::Double;
    if (!parsePrecision(env, parsed) || parsed == Precision::EngineDefault)
        fatal("MDBENCH_PRECISION='" + std::string(env) +
              "' is not a precision tier: use double, mixed or single");
    return parsed;
}

Precision
precisionTier()
{
    if (overrideTier != Precision::EngineDefault)
        return overrideTier;
    return defaultPrecisionTier();
}

void
setPrecisionTier(Precision precision)
{
    overrideTier = precision;
}

Precision
precisionTierOverride()
{
    return overrideTier;
}

} // namespace mdbench
