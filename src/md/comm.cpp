#include "md/comm.h"

#include <algorithm>
#include <array>

#include "md/simulation.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace mdbench {

void
SerialComm::exchange(Simulation &sim)
{
    TraceScope trace("comm", "exchange");
    counterAdd(Counter::CommExchanges);
    AtomStore &atoms = sim.atoms;
    atoms.clearGhosts();
    owner_.clear();
    image_.clear();
    for (std::size_t i = 0; i < atoms.nlocal(); ++i)
        atoms.x[i] = sim.box.wrap(atoms.x[i]);
}

void
SerialComm::borders(Simulation &sim)
{
    TraceScope trace("comm", "borders");
    AtomStore &atoms = sim.atoms;
    const Box &box = sim.box;
    const double cut = sim.commCutoff();
    ghostCutoff_ = cut;
    const Vec3 len = box.lengths();
    require((!box.periodic(0) || len.x > 2.0 * cut) &&
                (!box.periodic(1) || len.y > 2.0 * cut) &&
                (!box.periodic(2) || len.z > 2.0 * cut),
            "box too small for the communication cutoff (needs > 2x)");

    atoms.clearGhosts();

    // Calls emit(code) for each periodic image of an atom at @p pos that
    // falls within the ghost shell of the primary box, in the serial
    // order: per axis the image code runs 0, then +1 (the atom near the
    // low face appears beyond the high face, shifted by +L), then -1,
    // x outermost; the all-zero code (the atom itself) is skipped.
    const auto forEachImage = [&](const Vec3 &pos, auto &&emit) {
        std::int8_t codes[3][3];
        int counts[3];
        const double loDist[3] = {pos.x - box.lo().x, pos.y - box.lo().y,
                                  pos.z - box.lo().z};
        const double hiDist[3] = {box.hi().x - pos.x, box.hi().y - pos.y,
                                  box.hi().z - pos.z};
        for (int axis = 0; axis < 3; ++axis) {
            counts[axis] = 0;
            codes[axis][counts[axis]++] = 0;
            if (box.periodic(axis)) {
                if (loDist[axis] < cut)
                    codes[axis][counts[axis]++] = 1;  // shift +L
                if (hiDist[axis] < cut)
                    codes[axis][counts[axis]++] = -1; // shift -L
            }
        }
        for (int a = 0; a < counts[0]; ++a) {
            for (int b = 0; b < counts[1]; ++b) {
                for (int c = 0; c < counts[2]; ++c) {
                    if (codes[0][a] || codes[1][b] || codes[2][c])
                        emit(Image{codes[0][a], codes[1][b], codes[2][c]});
                }
            }
        }
    };

    // Each slice of the owned atoms counts its ghosts, then writes them
    // from its prefix offset: the slices land in order, so the ghosts
    // come out in the serial order (by owner, then image) at any
    // slicing.
    const std::size_t nlocal = atoms.nlocal();
    const SliceRange slices(
        0, nlocal,
        std::max<std::size_t>(1024,
                              (nlocal + kBorderSlices - 1) / kBorderSlices));
    ThreadPool &pool = ThreadPool::global();
    std::array<std::size_t, kBorderSlices + 1> sliceStart{};
    pool.run(slices, [&](std::size_t begin, std::size_t end, int s) {
        std::size_t count = 0;
        for (std::size_t i = begin; i < end; ++i)
            forEachImage(atoms.x[i], [&](const Image &) { ++count; });
        sliceStart[static_cast<std::size_t>(s) + 1] = count;
    });
    for (int s = 0; s < slices.count(); ++s)
        sliceStart[s + 1] += sliceStart[s];
    owner_.resize(sliceStart[static_cast<std::size_t>(slices.count())]);
    image_.resize(owner_.size());
    pool.run(slices, [&](std::size_t begin, std::size_t end, int s) {
        std::size_t g = sliceStart[static_cast<std::size_t>(s)];
        for (std::size_t i = begin; i < end; ++i) {
            forEachImage(atoms.x[i], [&](const Image &image) {
                owner_[g] = static_cast<std::uint32_t>(i);
                image_[g] = image;
                ++g;
            });
        }
    });
    atoms.addGhosts(owner_, image_, len);
    counterAdd(Counter::CommGhostAtoms, owner_.size());
}

void
SerialComm::forwardPositions(Simulation &sim)
{
    TraceScope trace("comm", "forward_positions");
    AtomStore &atoms = sim.atoms;
    const Vec3 len = sim.box.lengths();
    const std::size_t nlocal = atoms.nlocal();
    ensure(atoms.nghost() == owner_.size(), "ghost bookkeeping out of sync");
    for (std::size_t g = 0; g < owner_.size(); ++g) {
        const Image &image = image_[g];
        const Vec3 shift{image[0] * len.x, image[1] * len.y,
                         image[2] * len.z};
        atoms.x[nlocal + g] = atoms.x[owner_[g]] + shift;
        atoms.v[nlocal + g] = atoms.v[owner_[g]];
    }
}

void
SerialComm::reverseForces(Simulation &sim)
{
    TraceScope trace("comm", "reverse_forces");
    AtomStore &atoms = sim.atoms;
    const std::size_t nlocal = atoms.nlocal();
    for (std::size_t g = 0; g < owner_.size(); ++g) {
        atoms.f[owner_[g]] += atoms.f[nlocal + g];
        atoms.torque[owner_[g]] += atoms.torque[nlocal + g];
        atoms.f[nlocal + g] = {};
        atoms.torque[nlocal + g] = {};
    }
}

void
SerialComm::forwardScalar(Simulation &sim, std::vector<double> &values)
{
    const std::size_t nlocal = sim.atoms.nlocal();
    ensure(values.size() >= nlocal + owner_.size(),
           "scalar array smaller than atom count");
    for (std::size_t g = 0; g < owner_.size(); ++g)
        values[nlocal + g] = values[owner_[g]];
}

void
SerialComm::reverseScalar(Simulation &sim, std::vector<double> &values)
{
    const std::size_t nlocal = sim.atoms.nlocal();
    ensure(values.size() >= nlocal + owner_.size(),
           "scalar array smaller than atom count");
    for (std::size_t g = 0; g < owner_.size(); ++g) {
        values[owner_[g]] += values[nlocal + g];
        values[nlocal + g] = 0.0;
    }
}

} // namespace mdbench
