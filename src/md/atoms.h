/**
 * @file
 * Structure-of-arrays atom storage.
 *
 * Owned (local) atoms occupy indices [0, nlocal); ghost copies (periodic
 * images in serial runs, halo atoms in decomposed runs) occupy
 * [nlocal, nlocal + nghost). Per-atom arrays always have
 * nlocal + nghost entries — plus, while the SIMD padded neighbor
 * packing is active, one inert pad slot at index nall() that sentinel
 * neighbor ids gather from (see ensurePadAtom and DESIGN.md §12). The
 * pad slot is excluded from nlocal/nghost/nall and never participates
 * in physics, communication, or reorders.
 */

#ifndef MDBENCH_MD_ATOMS_H
#define MDBENCH_MD_ATOMS_H

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "md/vec3.h"

namespace mdbench {

/** Per-type static properties. */
struct AtomTypeParams
{
    double mass = 1.0;
    double radius = 0.5; ///< particle radius (granular styles)
};

/**
 * SoA container for per-atom state.
 */
class AtomStore
{
  public:
    /** Reserve capacity for @p n owned atoms. */
    void reserve(std::size_t n);

    /**
     * Append an owned atom. Must not be called while ghosts exist.
     *
     * @param tag   Globally unique 1-based atom id (stable across ranks).
     * @param type  1-based atom type.
     * @param pos   Initial position.
     * @return local index of the new atom.
     */
    std::size_t addAtom(std::int64_t tag, int type, const Vec3 &pos);

    /** Number of owned atoms. */
    std::size_t nlocal() const { return nlocal_; }

    /** Number of ghost atoms (excludes the SIMD pad slot). */
    std::size_t nghost() const { return x.size() - nlocal_ - npad_; }

    /** Owned + ghost count (excludes the SIMD pad slot). */
    std::size_t nall() const { return x.size() - npad_; }

    /** Number of SIMD pad slots present (0 or 1). */
    std::size_t npad() const { return npad_; }

    /** Drop all ghost atoms and the pad slot (keeps owned atoms). */
    void clearGhosts();

    /**
     * Ensure the inert SIMD pad slot exists at index nall() with
     * position @p pos (placed far outside every cutoff by the caller so
     * the kernels' distance masks zero its lanes). The slot has type 1,
     * zero charge, zero velocity/force, and tag -1; it is dropped by
     * clearGhosts() and must not exist across any structural mutation
     * (addAtom/addGhost/removeAtom/applyPermutation assert this).
     * @return the pad index (== nall()).
     */
    std::size_t ensurePadAtom(const Vec3 &pos);

    /**
     * Append a ghost copy of atom @p src displaced by @p shift.
     * Copies tag/type/charge/molecule; velocity is copied as well (granular
     * styles need ghost velocities).
     * @return index of the ghost.
     */
    std::size_t addGhost(std::size_t src, const Vec3 &shift);

    /**
     * Append @p src.size() periodic images in one step: ghost k copies
     * atom src[k] displaced by image[k] * @p period per axis (image
     * codes in {-1, 0, +1}). Bitwise the store the same addGhost calls,
     * in order, would build; every per-atom array is resized once and
     * the copies are filled over the thread pool.
     * @return index of the first new ghost.
     */
    std::size_t addGhosts(std::span<const std::uint32_t> src,
                          std::span<const std::array<std::int8_t, 3>> image,
                          const Vec3 &period);

    /**
     * Append a ghost copied from another store (cross-rank halo).
     * ghostOf is set to -1: the owner lives in a different store and is
     * tracked by the communication layer instead.
     * @return index of the ghost.
     */
    std::size_t addGhostFrom(const AtomStore &src, std::size_t i,
                             const Vec3 &shift);

    /** Remove owned atom @p i by swapping the last owned atom into it. */
    void removeAtom(std::size_t i);

    /**
     * Reorder the owned atoms so that new index @p k holds the atom
     * previously at oldOf[k]. Remaps every per-atom SoA array
     * (positions through ghostOf). @p oldOf must be a permutation of
     * [0, nlocal), and no ghosts may exist: any subsystem holding local
     * indices (ghost records, neighbor lists, saved positions) must be
     * rebuilt afterwards — see the permutation contract in DESIGN.md
     * §10. Callers identify atoms across a reorder by tag.
     */
    void applyPermutation(const std::vector<std::uint32_t> &oldOf);

    /** Zero the force accumulators of all owned and ghost atoms. */
    void zeroForces();

    // Per-atom state, indexable by [0, nall()).
    std::vector<Vec3> x;               ///< positions
    std::vector<Vec3> v;               ///< velocities
    std::vector<Vec3> f;               ///< force accumulators
    std::vector<Vec3> omega;           ///< angular velocities (granular)
    std::vector<Vec3> torque;          ///< torque accumulators (granular)
    std::vector<double> q;             ///< charges
    std::vector<int> type;             ///< 1-based type ids
    std::vector<std::int64_t> tag;     ///< global ids (1-based)
    std::vector<std::int64_t> molecule; ///< molecule ids (0 = none)
    std::vector<std::int32_t> ghostOf; ///< owner index for ghosts, -1 for owned

    /** Per-type parameters; index 0 unused (types are 1-based). */
    std::vector<AtomTypeParams> typeParams;

    /** Mass of atom @p i via its type. */
    double massOf(std::size_t i) const { return typeParams[type[i]].mass; }

    /** Define types 1..n with unit mass (idempotent growth). */
    void setNumTypes(int n);

  private:
    std::size_t nlocal_ = 0;
    std::size_t npad_ = 0; ///< SIMD pad slots past the ghosts (0 or 1)
};

} // namespace mdbench

#endif // MDBENCH_MD_ATOMS_H
