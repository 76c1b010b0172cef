/**
 * @file
 * Molecular topology: bonds, angles, and rigid (SHAKE) clusters.
 *
 * Topology is stored with *global tags*, and resolved to local indices on
 * demand through a tag map, so it survives atom migration and reordering.
 */

#ifndef MDBENCH_MD_TOPOLOGY_H
#define MDBENCH_MD_TOPOLOGY_H

#include <cstdint>
#include <span>
#include <vector>

namespace mdbench {

class AtomStore;

/** A two-body bonded interaction between atoms with global tags. */
struct Bond
{
    std::int64_t tagA = 0;
    std::int64_t tagB = 0;
    int type = 1;
};

/** A three-body angle interaction (B is the vertex). */
struct Angle
{
    std::int64_t tagA = 0;
    std::int64_t tagB = 0;
    std::int64_t tagC = 0;
    int type = 1;
};

/** A rigid cluster constrained by SHAKE (e.g. a 3-site water molecule). */
struct ShakeCluster
{
    /** Atom tags; tags[0] is the central atom. */
    std::vector<std::int64_t> tags;
    /** Constrained distances: pairs (i, j) of indices into tags + target. */
    struct Constraint
    {
        int i = 0;
        int j = 0;
        double distance = 0.0;
    };
    std::vector<Constraint> constraints;
};

/**
 * Container for bonded topology plus a tag -> local-index resolver.
 */
class Topology
{
  public:
    std::vector<Bond> bonds;
    std::vector<Angle> angles;
    std::vector<ShakeCluster> shakeClusters;

    /**
     * Build the special lists: 1-2 pairs (bonds) and 1-3 pairs (angle
     * ends) are removed from the pairwise neighbor lists, matching
     * LAMMPS `special_bonds 0 0 1` semantics used by the Chain and
     * Rhodopsin workloads. Each tag with partners gets the ascending
     * list of its excluded partner tags (LAMMPS `special[]`).
     */
    void buildExclusions();

    /**
     * Replace the special lists with @p other's (used by
     * RankedSimulation, whose per-rank topologies hold only
     * locally-owned bonds but must exclude globally).
     */
    void copyExclusions(const Topology &other);

    /** Number of excluded tag pairs. */
    std::size_t exclusionCount() const { return exclusionPairs_; }

    /** Ascending excluded partner tags of @p tag (empty when none). */
    std::span<const std::int64_t> specialPartners(std::int64_t tag) const;

    /** True when the (tagA, tagB) pair is excluded from pair interactions. */
    bool excluded(std::int64_t tagA, std::int64_t tagB) const;

    /**
     * Rebuild the tag -> index map from @p atoms (owned + ghosts): a
     * dense array indexed by tag, sized to the largest tag + 1 (LAMMPS
     * `atom_modify map array`). Tags must be positive; every suite
     * builder numbers its atoms 1..N, so the array stays N + 1 long.
     */
    void buildTagMap(const AtomStore &atoms);

    /**
     * Resolve @p tag to a local index, preferring owned atoms.
     * @return index, or -1 when the tag is not present.
     */
    std::int64_t
    indexOf(std::int64_t tag) const
    {
        if (tag < 0 || static_cast<std::uint64_t>(tag) >= tagMap_.size())
            return -1;
        return tagMap_[static_cast<std::size_t>(tag)];
    }

  private:
    /** Local index of each tag, -1 where the tag is absent. */
    std::vector<std::int32_t> tagMap_;

    // Special lists as a CSR keyed by tag: specialKeys_ holds the
    // ascending tags that have partners, row k of specialPartners_
    // (specialOffsets_[k] .. specialOffsets_[k + 1]) their partners.
    std::vector<std::int64_t> specialKeys_;
    std::vector<std::uint32_t> specialOffsets_;
    std::vector<std::int64_t> specialPartners_;
    std::size_t exclusionPairs_ = 0;
};

} // namespace mdbench

#endif // MDBENCH_MD_TOPOLOGY_H
