#include "md/atoms.h"

#include "util/error.h"
#include "util/thread_pool.h"

namespace mdbench {

namespace {

/** Ghosts per slice of the bulk ghost fill. */
constexpr std::size_t kGhostGrain = 2048;

} // namespace

void
AtomStore::reserve(std::size_t n)
{
    x.reserve(n);
    v.reserve(n);
    f.reserve(n);
    omega.reserve(n);
    torque.reserve(n);
    q.reserve(n);
    type.reserve(n);
    tag.reserve(n);
    molecule.reserve(n);
    ghostOf.reserve(n);
}

std::size_t
AtomStore::addAtom(std::int64_t atom_tag, int atom_type, const Vec3 &pos)
{
    ensure(nghost() == 0, "cannot add owned atoms while ghosts exist");
    ensure(npad_ == 0, "cannot add owned atoms while the pad slot exists");
    x.push_back(pos);
    v.push_back({});
    f.push_back({});
    omega.push_back({});
    torque.push_back({});
    q.push_back(0.0);
    type.push_back(atom_type);
    tag.push_back(atom_tag);
    molecule.push_back(0);
    ghostOf.push_back(-1);
    return nlocal_++;
}

void
AtomStore::clearGhosts()
{
    x.resize(nlocal_);
    v.resize(nlocal_);
    f.resize(nlocal_);
    omega.resize(nlocal_);
    torque.resize(nlocal_);
    q.resize(nlocal_);
    type.resize(nlocal_);
    tag.resize(nlocal_);
    molecule.resize(nlocal_);
    ghostOf.resize(nlocal_);
    npad_ = 0;
}

std::size_t
AtomStore::ensurePadAtom(const Vec3 &pos)
{
    if (npad_ == 1) {
        x[nall()] = pos;
        return nall();
    }
    x.push_back(pos);
    v.push_back({});
    f.push_back({});
    omega.push_back({});
    torque.push_back({});
    q.push_back(0.0);
    type.push_back(1);
    tag.push_back(-1);
    molecule.push_back(0);
    ghostOf.push_back(-1);
    npad_ = 1;
    return nall();
}

std::size_t
AtomStore::addGhost(std::size_t src, const Vec3 &shift)
{
    ensure(src < nall(), "ghost source out of range");
    ensure(npad_ == 0, "cannot add ghosts while the pad slot exists");
    x.push_back(x[src] + shift);
    v.push_back(v[src]);
    f.push_back({});
    omega.push_back(omega[src]);
    torque.push_back({});
    q.push_back(q[src]);
    type.push_back(type[src]);
    tag.push_back(tag[src]);
    molecule.push_back(molecule[src]);
    // Chase ghost-of-ghost chains back to the owner.
    const std::int32_t owner =
        ghostOf[src] >= 0 ? ghostOf[src] : static_cast<std::int32_t>(src);
    ghostOf.push_back(owner);
    return x.size() - 1;
}

std::size_t
AtomStore::addGhosts(std::span<const std::uint32_t> src,
                     std::span<const std::array<std::int8_t, 3>> image,
                     const Vec3 &period)
{
    ensure(src.size() == image.size(), "ghost sources and images differ");
    ensure(npad_ == 0, "cannot add ghosts while the pad slot exists");
    const std::size_t first = x.size();
    const std::size_t n = first + src.size();
    x.resize(n);
    v.resize(n);
    f.resize(n);
    omega.resize(n);
    torque.resize(n);
    q.resize(n);
    type.resize(n);
    tag.resize(n);
    molecule.resize(n);
    ghostOf.resize(n);
    ThreadPool::global().parallelFor(
        0, src.size(), kGhostGrain,
        [&](std::size_t begin, std::size_t end, int) {
            for (std::size_t k = begin; k < end; ++k) {
                const std::size_t from = src[k];
                const std::size_t g = first + k;
                if (from >= first)
                    panic("ghost source out of range");
                const Vec3 shift{image[k][0] * period.x,
                                 image[k][1] * period.y,
                                 image[k][2] * period.z};
                x[g] = x[from] + shift;
                v[g] = v[from];
                omega[g] = omega[from];
                q[g] = q[from];
                type[g] = type[from];
                tag[g] = tag[from];
                molecule[g] = molecule[from];
                ghostOf[g] = ghostOf[from] >= 0
                                 ? ghostOf[from]
                                 : static_cast<std::int32_t>(from);
            }
        });
    return first;
}

std::size_t
AtomStore::addGhostFrom(const AtomStore &src, std::size_t i,
                        const Vec3 &shift)
{
    ensure(i < src.nall(), "ghost source out of range");
    ensure(npad_ == 0, "cannot add ghosts while the pad slot exists");
    x.push_back(src.x[i] + shift);
    v.push_back(src.v[i]);
    f.push_back({});
    omega.push_back(src.omega[i]);
    torque.push_back({});
    q.push_back(src.q[i]);
    type.push_back(src.type[i]);
    tag.push_back(src.tag[i]);
    molecule.push_back(src.molecule[i]);
    ghostOf.push_back(-1);
    return x.size() - 1;
}

void
AtomStore::removeAtom(std::size_t i)
{
    ensure(nghost() == 0, "cannot remove owned atoms while ghosts exist");
    ensure(npad_ == 0, "cannot remove owned atoms while the pad slot exists");
    ensure(i < nlocal_, "removeAtom index out of range");
    const std::size_t last = nlocal_ - 1;
    x[i] = x[last];
    v[i] = v[last];
    f[i] = f[last];
    omega[i] = omega[last];
    torque[i] = torque[last];
    q[i] = q[last];
    type[i] = type[last];
    tag[i] = tag[last];
    molecule[i] = molecule[last];
    ghostOf[i] = ghostOf[last];
    x.pop_back();
    v.pop_back();
    f.pop_back();
    omega.pop_back();
    torque.pop_back();
    q.pop_back();
    type.pop_back();
    tag.pop_back();
    molecule.pop_back();
    ghostOf.pop_back();
    --nlocal_;
}

namespace {

/** arr[k] = arr[oldOf[k]] for all k, via a gather into @p scratch. */
template <typename T>
void
gatherInto(std::vector<T> &arr, const std::vector<std::uint32_t> &oldOf,
           std::vector<T> &scratch)
{
    scratch.resize(arr.size());
    for (std::size_t k = 0; k < oldOf.size(); ++k)
        scratch[k] = arr[oldOf[k]];
    arr.swap(scratch);
}

} // namespace

void
AtomStore::applyPermutation(const std::vector<std::uint32_t> &oldOf)
{
    ensure(nghost() == 0, "cannot reorder owned atoms while ghosts exist");
    // The sentinel pad slot is invisible to permutations by contract:
    // sorts run in the post-exchange window where clearGhosts() already
    // dropped it, so a pad here means a caller reordered atoms while a
    // packed neighbor list still held live sentinel gathers.
    ensure(npad_ == 0, "cannot reorder owned atoms while the pad slot exists");
    ensure(oldOf.size() == nlocal_,
           "permutation size does not match nlocal");
    // Verify bijectivity: each old index must appear exactly once. The
    // check is O(n) like the gathers below, and sorts are rare (every
    // N neighbor rebuilds), so it stays on unconditionally.
    std::vector<bool> seen(nlocal_, false);
    for (const std::uint32_t old : oldOf) {
        ensure(old < nlocal_ && !seen[old],
               "applyPermutation: not a permutation of [0, nlocal)");
        seen[old] = true;
    }

    std::vector<Vec3> vecScratch;
    gatherInto(x, oldOf, vecScratch);
    gatherInto(v, oldOf, vecScratch);
    gatherInto(f, oldOf, vecScratch);
    gatherInto(omega, oldOf, vecScratch);
    gatherInto(torque, oldOf, vecScratch);
    std::vector<double> dblScratch;
    gatherInto(q, oldOf, dblScratch);
    std::vector<int> intScratch;
    gatherInto(type, oldOf, intScratch);
    std::vector<std::int64_t> i64Scratch;
    gatherInto(tag, oldOf, i64Scratch);
    gatherInto(molecule, oldOf, i64Scratch);
    std::vector<std::int32_t> i32Scratch;
    gatherInto(ghostOf, oldOf, i32Scratch);
}

void
AtomStore::zeroForces()
{
    for (auto &fi : f)
        fi = {};
    for (auto &ti : torque)
        ti = {};
}

void
AtomStore::setNumTypes(int n)
{
    require(n >= 1, "need at least one atom type");
    if (typeParams.size() < static_cast<std::size_t>(n) + 1)
        typeParams.resize(static_cast<std::size_t>(n) + 1);
}

} // namespace mdbench
