/**
 * @file
 * Floating-point precision policy for the native compute path.
 *
 * Three tiers (the paper's Section 8 study, made real):
 *
 *  - double: all arithmetic and accumulation in double. The seed
 *    behavior, and the tier width 0 (SIMD off) always runs.
 *  - mixed:  float coordinates/charges and per-pair force arithmetic,
 *    double accumulation of per-atom forces, energies and virials
 *    (the Trott et al. production design, arXiv 1009.4330).
 *  - single: float arithmetic and float row accumulation; per-atom
 *    storage remains double (one widening store per row).
 *
 * A simulation's tier is a field of its EngineConfig
 * (util/engine_config.h), defaulting to `MDBENCH_PRECISION`; the
 * neighbor list records the tier it was packed for, and kernels
 * template themselves on one of the policy structs below.
 */

#ifndef MDBENCH_UTIL_PRECISION_H
#define MDBENCH_UTIL_PRECISION_H

namespace mdbench {

/** Floating-point precision modes of the Section 8 study. */
enum class Precision { Mixed = 0, Single, Double };

/** Lowercase tier name ("mixed", "single", "double"). */
const char *precisionName(Precision precision);

/**
 * Tier of the process default EngineConfig: `MDBENCH_PRECISION`,
 * Precision::Double when unset (engine_config.cpp).
 */
Precision precisionTier();

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
