#include "md/topology.h"

#include <algorithm>
#include <string>
#include <utility>

#include "md/atoms.h"
#include "util/error.h"

namespace mdbench {

void
Topology::buildTagMap(const AtomStore &atoms)
{
    const std::size_t nall = atoms.nall();
    std::int64_t maxTag = 0;
    for (std::size_t i = 0; i < nall; ++i) {
        const std::int64_t tag = atoms.tag[i];
        if (tag <= 0)
            fatal("atom tags must be positive, got " + std::to_string(tag));
        maxTag = std::max(maxTag, tag);
    }
    tagMap_.assign(static_cast<std::size_t>(maxTag) + 1, -1);
    // Write ghosts first so that owned atoms overwrite them: lookups then
    // prefer the owned copy, which is the one integrated.
    for (std::size_t i = atoms.nlocal(); i < nall; ++i)
        tagMap_[static_cast<std::size_t>(atoms.tag[i])] =
            static_cast<std::int32_t>(i);
    for (std::size_t i = 0; i < atoms.nlocal(); ++i)
        tagMap_[static_cast<std::size_t>(atoms.tag[i])] =
            static_cast<std::int32_t>(i);
}

void
Topology::buildExclusions()
{
    // Every excluded pair in both directions, as (tag, partner).
    std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
    pairs.reserve(2 * (bonds.size() + 3 * angles.size()));
    const auto add = [&](std::int64_t a, std::int64_t b) {
        pairs.emplace_back(a, b);
        pairs.emplace_back(b, a);
    };
    for (const Bond &bond : bonds)
        add(bond.tagA, bond.tagB);
    for (const Angle &angle : angles) {
        add(angle.tagA, angle.tagB);
        add(angle.tagB, angle.tagC);
        add(angle.tagA, angle.tagC);
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    exclusionPairs_ = static_cast<std::size_t>(
        std::count_if(pairs.begin(), pairs.end(),
                      [](const auto &p) { return p.first <= p.second; }));

    specialKeys_.clear();
    specialOffsets_.assign(1, 0);
    specialPartners_.clear();
    specialPartners_.reserve(pairs.size());
    for (const auto &[tag, partner] : pairs) {
        if (specialKeys_.empty() || specialKeys_.back() != tag) {
            specialKeys_.push_back(tag);
            specialOffsets_.push_back(specialOffsets_.back());
        }
        specialPartners_.push_back(partner);
        ++specialOffsets_.back();
    }
}

void
Topology::copyExclusions(const Topology &other)
{
    specialKeys_ = other.specialKeys_;
    specialOffsets_ = other.specialOffsets_;
    specialPartners_ = other.specialPartners_;
    exclusionPairs_ = other.exclusionPairs_;
}

std::span<const std::int64_t>
Topology::specialPartners(std::int64_t tag) const
{
    const auto it =
        std::lower_bound(specialKeys_.begin(), specialKeys_.end(), tag);
    if (it == specialKeys_.end() || *it != tag)
        return {};
    const std::size_t k =
        static_cast<std::size_t>(it - specialKeys_.begin());
    return {specialPartners_.data() + specialOffsets_[k],
            specialPartners_.data() + specialOffsets_[k + 1]};
}

bool
Topology::excluded(std::int64_t tagA, std::int64_t tagB) const
{
    const std::span<const std::int64_t> partners = specialPartners(tagA);
    return std::binary_search(partners.begin(), partners.end(), tagB);
}

} // namespace mdbench
