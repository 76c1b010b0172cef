/**
 * @file
 * Binned neighbor-list construction with a skin distance.
 *
 * Implements the cutoff + skin scheme described in Section 2 of the paper:
 * lists hold every pair within (cutoff + skin) and are rebuilt only when
 * some atom has moved more than half the skin since the last build.
 */

#ifndef MDBENCH_MD_NEIGHBOR_H
#define MDBENCH_MD_NEIGHBOR_H

#include <cstdint>
#include <vector>

#include "md/vec3.h"
#include "md/xpack.h"
#include "util/precision.h"

namespace mdbench {

class Simulation;

/**
 * CSR neighbor list over the owned atoms.
 *
 * Half lists contain each physical pair once (forces applied to both
 * sides via Newton's third law); full lists contain each pair twice,
 * once per side (used by gran/hooke/history, which the paper notes does
 * not exploit Newton's third law).
 */
struct NeighborList
{
    std::vector<std::uint32_t> offsets;   ///< size nlocal + 1
    std::vector<std::uint32_t> neighbors; ///< CSR payload (owned or ghost ids)
    bool full = false;                    ///< full vs half list
    double buildCutoff = 0.0;             ///< cutoff + skin used at build

    // SIMD padded packing (DESIGN.md §12): a second CSR view of the
    // same pairs whose rows are padded to a multiple of padWidth with
    // copies of `sentinel` — the index of the AtomStore pad slot, an
    // inert atom placed far outside every cutoff so the kernels'
    // distance masks zero the padding lanes. Built only when the SIMD
    // layer is active (padWidth >= 1); the plain list above always
    // remains valid and is the scalar oracle.
    std::vector<std::uint32_t> packedOffsets;   ///< size nlocal + 1
    std::vector<std::uint32_t> packedNeighbors; ///< rows padded to padWidth
    int padWidth = 0;              ///< packing vector width (0 = disabled)
    std::uint32_t sentinel = 0;    ///< pad-slot index filling padded slots
    std::size_t paddedSlots = 0;   ///< sentinel entries across all rows

    /**
     * Precision tier the packing was built for (util/precision.h).
     * Float tiers pack at the float-lane width (twice the double-lane
     * width at a given ISA level); kernels dispatch on this recorded
     * tier rather than the live global so a knob change between build
     * and compute cannot mismatch the padded geometry.
     */
    Precision packTier = Precision::Double;

    /** Neighbors of atom @p i as a begin/end index pair. */
    std::pair<std::uint32_t, std::uint32_t>
    range(std::size_t i) const
    {
        return {offsets[i], offsets[i + 1]};
    }

    /** Padded neighbors of @p i (length a multiple of padWidth). */
    std::pair<std::uint32_t, std::uint32_t>
    packedRange(std::size_t i) const
    {
        return {packedOffsets[i], packedOffsets[i + 1]};
    }

    /** True when the padded packing was built at width @p w. */
    bool packedFor(int w) const { return padWidth == w && padWidth >= 1; }

    /** Total stored pairs (excludes padding). */
    std::size_t pairCount() const { return neighbors.size(); }

    /** Average neighbors per owned atom. */
    double neighborsPerAtom() const;
};

/**
 * Charge the SIMD lane-utilization counters for @p traversals padded
 * traversals of @p list (pair.simd_lanes_active += pairs,
 * pair.simd_padding_waste += padded sentinel slots, each ×
 * traversals). Shared by every vectorized kernel so the accounting is
 * uniform: charged per kernel *invocation* — once per list traversal,
 * twice for EAM's two radial passes — never per list build, which
 * keeps manifest lane-utilization ratios comparable across sortEvery
 * and rebuild-interval settings.
 */
void countSimdLaneUse(const NeighborList &list, int traversals = 1);

/**
 * Neighbor-list manager: binning, rebuild policy, and build statistics.
 */
class Neighbor
{
  public:
    /** Pair-style interaction cutoff (excludes skin). */
    double cutoff = 0.0;

    /** Extra margin stored in the list (paper Table 2 "Neighbor skin"). */
    double skin = 0.3;

    /** Build a full list (each pair twice) instead of a half list. */
    bool full = false;

    /**
     * Partition every build into interior/boundary sublists (DESIGN.md
     * §17): a pair is *boundary* when its j side is a ghost — it reads
     * halo data — and *interior* otherwise. Decomposed ranks set this
     * so the force drivers can compute interior pairs while the halo
     * exchange is in flight and finish the boundary pairs after it
     * lands. Each sublist gets its own padded SIMD packing; the
     * two-pass arithmetic stays a fixed regrouping of the one-pass
     * per-row sums at any schedule because the sublists preserve the
     * build's per-row neighbor order.
     */
    bool splitGhostPairs = false;

    /** True when the current build produced the sublists. */
    bool splitActive() const { return splitBuilt_; }

    /** Pairs whose j side is owned (computable before the halo). */
    const NeighborList &interiorList() const { return interiorList_; }

    /** Pairs whose j side is a ghost (need fresh halo positions). */
    const NeighborList &boundaryList() const { return boundaryList_; }

    /** Rebuild at most every this many steps (0 = purely distance based). */
    int every = 1;

    /**
     * Spatially reorder the owned atoms every this many neighbor
     * rebuilds (0 = never). Initialized from the MDBENCH_SORT_EVERY
     * environment variable; see Simulation::setSortEvery for the
     * programmatic knob and DESIGN.md §10 for the policy.
     */
    int sortEvery = defaultSortEvery();

    /** MDBENCH_SORT_EVERY, or 0 (disabled) when unset/invalid. */
    static int defaultSortEvery();

    /**
     * True when the sort policy asks for a reorder before the next
     * build. The very first build is always due: the initial atom order
     * is whatever the builder (or a restart file) produced, so an
     * enabled policy establishes spatial order at setup and then
     * re-sorts every sortEvery rebuilds.
     */
    bool
    sortDue() const
    {
        return sortEvery > 0 &&
               (buildCount_ == 0 || buildsSinceSort_ >= sortEvery);
    }

    /**
     * Counting-sort bin ordering of the owned atoms: order[k] is the
     * old index of the atom that belongs at index k when atoms are
     * grouped by ascending spatial bin (ties by ascending old index).
     * Reuses the build's binning arrays; the traversal depends only on
     * positions, never on threading.
     */
    void computeSortOrder(const Simulation &sim,
                          std::vector<std::uint32_t> &order);

    /**
     * Record that the owned atoms were reordered: resets the sort
     * interval and invalidates lastBuildPos_ (its indices no longer
     * match), so the next trigger check forces a rebuild.
     */
    void noteSortApplied();

    /** Number of spatial sorts applied since construction. */
    long sortCount() const { return sortCount_; }

    /** Distance the fastest atom may travel before a rebuild triggers. */
    double triggerDistance() const { return 0.5 * skin; }

    /** True when any owned atom moved more than triggerDistance(). */
    bool checkTrigger(const Simulation &sim) const;

    /** Build the list from the current owned + ghost atoms. */
    void build(Simulation &sim);

    /** The current list. */
    const NeighborList &list() const { return list_; }

    /** Number of builds since construction. */
    long buildCount() const { return buildCount_; }

    /** Steps at which builds happened (statistics for the harness). */
    double averageRebuildInterval() const;

    /**
     * Re-derive the padded packing from the existing plain list when
     * the SIMD width or precision tier changed since the last build —
     * called by the force loop before every pair compute, so a knob
     * change between builds can never leave a kernel traversing
     * stale-width geometry.
     */
    void ensureFreshPacking(Simulation &sim);

  private:
    /**
     * The build proper. Kept out of line behind the traced build()
     * wrapper: extra calls in the same function push gcc's size
     * estimate past its large-function limit and it stops unrolling
     * the hot fill loop (~10% on the serial build).
     */
    [[gnu::noinline]] void buildImpl(Simulation &sim);

    /**
     * Build the padded packing of @p list at the current simdWidth() (a
     * no-op that clears the packed arrays when the SIMD layer is off)
     * and install the AtomStore pad slot the sentinel ids gather from.
     */
    void packPadded(Simulation &sim, NeighborList &list);

    /** Pack list_ (or the split sublists) + knob bookkeeping. */
    void packLists(Simulation &sim);

    /** Partition list_ into interiorList_/boundaryList_ by j side. */
    void buildSplitLists(const Simulation &sim);

    NeighborList list_;
    NeighborList interiorList_; ///< owned-j pairs (splitGhostPairs)
    NeighborList boundaryList_; ///< ghost-j pairs (splitGhostPairs)
    bool splitBuilt_ = false;
    std::vector<Vec3> lastBuildPos_;

    // Counting-sort binning state, persistent across builds so the
    // arrays are allocation-free in steady state.
    std::vector<std::uint32_t> binOf_;     ///< flat bin of each atom
    std::vector<std::uint32_t> binStart_;  ///< CSR bin offsets (nbins + 1)
    std::vector<std::uint32_t> binCursor_; ///< scatter cursors (scratch)
    std::vector<std::uint32_t> binAtoms_;  ///< atoms grouped by bin

    /** Per-(slice, bin) histograms for the parallel counting sort. */
    std::vector<std::uint32_t> binSliceCount_;

    /**
     * Special lists resolved over the owned atoms at each build (only
     * for systems with exclusions): row i's excluded partner tags are
     * specialTags_[specialOffsets_[i] .. specialOffsets_[i + 1]).
     */
    std::vector<std::uint32_t> specialOffsets_;
    std::vector<std::int64_t> specialTags_;

    /** Bin-ordered [x, y, z, 0] records staged for the SIMD filter. */
    XPack<double> buildStage_;

    /** Knob values the current packing was built with. */
    int packedWidth_ = 0;
    Precision packedTier_ = Precision::Double;

    long buildsSinceSort_ = 0;
    long sortCount_ = 0;
    long buildCount_ = 0;
    long lastBuildStep_ = 0;
    long firstBuildStep_ = -1;

    friend class Simulation;
};

} // namespace mdbench

#endif // MDBENCH_MD_NEIGHBOR_H
