/**
 * @file
 * Floating-point precision policy for the native compute path.
 *
 * Three tiers (the paper's Section 8 study, made real):
 *
 *  - double: all arithmetic and accumulation in double. The seed
 *    behavior; bitwise-stable against the scalar oracle kernels.
 *  - mixed:  float coordinates/charges and per-pair force arithmetic,
 *    double accumulation of per-atom forces, energies and virials
 *    (the Trott et al. production design, arXiv 1009.4330).
 *  - single: float arithmetic and float row accumulation; per-atom
 *    storage remains double (one widening store per row).
 *
 * The active tier is a process-wide knob mirroring the SIMD width
 * knob in util/simd.h: `MDBENCH_PRECISION` sets the default,
 * `setPrecisionTier()` overrides it at runtime, and kernels template
 * themselves on one of the policy structs below.
 */

#ifndef MDBENCH_UTIL_PRECISION_H
#define MDBENCH_UTIL_PRECISION_H

namespace mdbench {

/**
 * Floating-point precision modes of the Section 8 study.
 *
 * `EngineDefault` is a request sentinel only ("inherit the engine
 * default"), used by ExperimentSpec; the active tier resolved by
 * precisionTier() is always one of the three concrete tiers.
 */
enum class Precision { Mixed = 0, Single, Double, EngineDefault };

/** Lowercase tier name ("mixed", "single", "double", "default"). */
const char *precisionName(Precision precision);

/**
 * Parse a tier name ("double" | "mixed" | "single", plus "default"
 * for the EngineDefault sentinel). Returns false on unknown text.
 */
bool parsePrecision(const char *text, Precision &out);

/**
 * Default tier from `MDBENCH_PRECISION` (double | mixed | single).
 * Unset or empty means Precision::Double: the native engine computes
 * in full double unless explicitly asked otherwise. Any other value is
 * a fatal() error.
 */
Precision defaultPrecisionTier();

/** The active tier: the override if set, else defaultPrecisionTier(). */
Precision precisionTier();

/**
 * Override the active tier for subsequent force computations and
 * neighbor packings. Pass Precision::EngineDefault to clear the
 * override and fall back to the environment default.
 */
void setPrecisionTier(Precision precision);

/**
 * Kernel precision policies. `real` is the type of per-pair
 * arithmetic (coordinates, distances, coefficient math); `acc` is the
 * type of row-level energy/virial accumulation. Per-atom force
 * storage is always double — float tiers widen once per atom row.
 */
struct PrecisionDouble
{
    using real = double;
    using acc = double;
    static constexpr Precision kTier = Precision::Double;
};

struct PrecisionMixed
{
    using real = float;
    using acc = double;
    static constexpr Precision kTier = Precision::Mixed;
};

struct PrecisionSingle
{
    using real = float;
    using acc = float;
    static constexpr Precision kTier = Precision::Single;
};

} // namespace mdbench

#endif // MDBENCH_UTIL_PRECISION_H
