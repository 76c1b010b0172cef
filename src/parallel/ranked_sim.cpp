#include "parallel/ranked_sim.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <unordered_map>

#include "obs/counters.h"
#include "obs/task_scope.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mdbench {

namespace {
// Approximate wire sizes per atom for the three exchange kinds.
constexpr std::size_t kBytesPositionVelocity = 6 * sizeof(double);
constexpr std::size_t kBytesForce = 3 * sizeof(double);
constexpr std::size_t kBytesMigrate = 14 * sizeof(double);
} // namespace

// ---------------------------------------------------------------- RankComm

RankComm::RankComm(RankedSimulation &parent, int rank)
    : parent_(parent), rank_(rank)
{}

void
RankComm::exchange(Simulation &)
{
    // Migration is orchestrated centrally by RankedSimulation; a direct
    // call happens only through Simulation::reneighbor, which the ranked
    // driver never uses.
    panic("RankComm::exchange must go through RankedSimulation");
}

void
RankComm::borders(Simulation &)
{
    panic("RankComm::borders must go through RankedSimulation");
}

void
RankComm::copyHalo(Simulation &sim)
{
    const Vec3 len = parent_.globalBox_.lengths();
    AtomStore &atoms = sim.atoms;
    const std::size_t nlocal = atoms.nlocal();
    ensure(atoms.nghost() == ghosts_.size(), "ghost bookkeeping out of sync");
    // Owners' positions are stable while any rank copies: every caller
    // runs in a phase whose ranks read owned x/v/omega but never write
    // them (integration happens in a previous phase).
    for (std::size_t g = 0; g < ghosts_.size(); ++g) {
        const GhostRecord &rec = ghosts_[g];
        const AtomStore &src = parent_.rank(rec.srcRank).atoms;
        const Vec3 shift{rec.image[0] * len.x, rec.image[1] * len.y,
                         rec.image[2] * len.z};
        atoms.x[nlocal + g] = src.x[rec.srcIndex] + shift;
        if (haloVelocities_) {
            atoms.v[nlocal + g] = src.v[rec.srcIndex];
            atoms.omega[nlocal + g] = src.omega[rec.srcIndex];
        }
    }
}

void
RankComm::forwardPositions(Simulation &sim)
{
    copyHalo(sim);
    parent_.chargeComm(rank_, MpiFunction::Send,
                       ghosts_.size() * perGhostBytes(), 6);
}

void
RankComm::reverseForces(Simulation &sim)
{
    // Owner-side pull: fold every ghost copy of our owned atoms home
    // and zero the holder's slot. Each ghost slot has exactly one
    // owner, so concurrent ranks write disjoint memory; incoming_ is
    // ordered (holderRank, ghostSlot) ascending, fixing the fold order
    // at any schedule.
    AtomStore &atoms = sim.atoms;
    std::size_t sentBytes = 0;
    for (const PullRecord &rec : incoming_) {
        AtomStore &holder = parent_.rank(rec.holderRank).atoms;
        const std::size_t slot = holder.nlocal() + rec.ghostSlot;
        Vec3 &force = holder.f[slot];
        Vec3 &torque = holder.torque[slot];
        if (force.x == 0.0 && force.y == 0.0 && force.z == 0.0 &&
            torque.x == 0.0 && torque.y == 0.0 && torque.z == 0.0) {
            continue;
        }
        atoms.f[rec.ownedIndex] += force;
        atoms.torque[rec.ownedIndex] += torque;
        force = {};
        torque = {};
        sentBytes += kBytesForce;
    }
    parent_.chargeComm(rank_, MpiFunction::Sendrecv, sentBytes, 6);
}

void
RankComm::forwardScalar(Simulation &, std::vector<double> &)
{
    fatal("per-atom scalar communication (EAM) is not supported in "
          "decomposed native runs; use a serial run or the perf model");
}

void
RankComm::reverseScalar(Simulation &, std::vector<double> &)
{
    fatal("per-atom scalar communication (EAM) is not supported in "
          "decomposed native runs; use a serial run or the perf model");
}

// -------------------------------------------------------- RankedSimulation

RankExecution
RankedSimulation::defaultExecution()
{
    if (const char *env = std::getenv("MDBENCH_RANK_EXEC")) {
        const std::string value(env);
        if (value == "seq" || value == "sequential")
            return RankExecution::Sequential;
    }
    return RankExecution::Concurrent;
}

bool
RankedSimulation::defaultCommOverlap()
{
    if (const char *env = std::getenv("MDBENCH_COMM_OVERLAP"))
        return env[0] == '1' || env[0] == 'y' || env[0] == 'Y' ||
               env[0] == 't' || env[0] == 'T';
    return false;
}

RankedSimulation::RankedSimulation(
    Simulation &global, int nranks,
    const std::function<void(Simulation &)> &configureRank,
    MpiMachineModel machine)
    : globalBox_(global.box), globalTopology_(global.topology),
      decomp_(nranks, global.box), machine_(machine), mpiStats_(nranks),
      clocks_(nranks, 0.0), postClock_(nranks, 0.0), rebuildVote_(nranks, 0),
      outBytes_(nranks, 0), destCount_(nranks, 0)
{
    require(nranks >= 1, "need at least one rank");
    require(global.topology.shakeClusters.empty(),
            "SHAKE clusters are not supported in decomposed native runs");
    require(!global.kspace,
            "k-space solvers are not supported in decomposed native runs");

    globalTopology_.buildExclusions();

    // Create the per-rank simulations and scatter the atoms.
    sims_.reserve(nranks);
    comms_.reserve(nranks);
    for (int r = 0; r < nranks; ++r) {
        auto sim = std::make_unique<Simulation>();
        sim->box = globalBox_;
        sim->units = global.units;
        sim->dt = global.dt;
        sim->thermoEvery = 0;
        sim->atoms.typeParams = global.atoms.typeParams;
        auto comm = std::make_unique<RankComm>(*this, r);
        comms_.push_back(comm.get());
        sim->comm = std::move(comm);
        sims_.push_back(std::move(sim));
    }

    for (std::size_t i = 0; i < global.atoms.nlocal(); ++i) {
        const Vec3 wrapped = globalBox_.wrap(global.atoms.x[i]);
        const int owner = decomp_.ownerOf(wrapped);
        AtomStore &dst = sims_[owner]->atoms;
        const std::size_t idx =
            dst.addAtom(global.atoms.tag[i], global.atoms.type[i], wrapped);
        dst.v[idx] = global.atoms.v[i];
        dst.omega[idx] = global.atoms.omega[i];
        dst.q[idx] = global.atoms.q[i];
        dst.molecule[idx] = global.atoms.molecule[i];
    }

    for (auto &sim : sims_) {
        configureRank(*sim);
        // Every rank checks pair exclusions against the global topology.
        sim->topology.copyExclusions(globalTopology_);
    }
    assignTopology();
}

void
RankedSimulation::chargeCommTime(int rank, MpiFunction fn, double seconds,
                                 std::size_t bytes, int messages)
{
    ensure(seconds >= 0.0, "negative modeled comm time");
    if (messages > 0)
        counterAdd(Counter::MpiMessages,
                   static_cast<std::uint64_t>(messages));
    if (bytes > 0) {
        counterAdd(Counter::MpiModeledBytes, bytes);
        commBytes_.fetch_add(bytes, std::memory_order_relaxed);
    }
    if (traceEnabled())
        traceInstant("mpi", mpiFunctionName(fn));
    // Per-rank rows only: safe from concurrent rank contexts because
    // each touches its own stats row, clock, and task timer.
    mpiStats_.add(rank, fn, seconds);
    clocks_[rank] += seconds;
    // Also visible in the Table 1 breakdown as "Comm".
    sims_[rank]->timer.add(Task::Comm, seconds);
}

void
RankedSimulation::chargeComm(int rank, MpiFunction fn, std::size_t bytes,
                             int messages)
{
    chargeCommTime(rank, fn,
                   messages * machine_.latency +
                       static_cast<double>(bytes) / machine_.bandwidth,
                   bytes, messages);
}

void
RankedSimulation::synchronizeClocks(MpiFunction blockedIn)
{
    // Charge the skew to the MPI function the fast ranks actually block
    // in at this synchronization point (MPI_Allreduce at the rebuild
    // vote, MPI_Wait at the reverse exchange), not a generic catch-all.
    const double maxClock = *std::max_element(clocks_.begin(), clocks_.end());
    ensure(maxClock >= lastSyncClock_,
           "per-rank virtual clocks must be monotone across sync points");
    lastSyncClock_ = maxClock;
    for (int r = 0; r < nranks(); ++r) {
        const double wait = maxClock - clocks_[r];
        if (wait > 0.0) {
            mpiStats_.add(r, blockedIn, wait);
            clocks_[r] = maxClock;
        }
    }
}

void
RankedSimulation::forRanks(const std::function<void(int)> &fn)
{
    if (exec_ == RankExecution::Concurrent && nranks() > 1) {
        // One pool region per phase: the region boundary is the
        // barrier standing in for a blocking collective. Rank contexts
        // run their own kernels inline (nested parallelFor calls
        // execute on the calling thread), so per-rank arithmetic is
        // identical to the sequential schedule by the slice-determinism
        // contract.
        ThreadPool::global().parallelFor(
            0, static_cast<std::size_t>(nranks()), 1,
            [&](std::size_t begin, std::size_t end, int) {
                for (std::size_t r = begin; r < end; ++r)
                    fn(static_cast<int>(r));
            });
    } else {
        for (int r = 0; r < nranks(); ++r)
            fn(r);
    }
}

void
RankedSimulation::rankIntegrate(int r)
{
    Simulation &sim = *sims_[r];
    WallTimer wall;
    ++sim.step;
    sim.integrateInitial();
    rebuildVote_[r] = sim.needsReneighbor() ? 1 : 0;
    clocks_[r] += wall.seconds();
}

void
RankedSimulation::rankPostHalo(int r)
{
    // Post the nonblocking halo for the next force phase: receives
    // first, then sends (latency only — the wire time is charged where
    // it is exposed, at the receivers' Waitall). The post clock is what
    // receivers read to decide how much of the transfer their interior
    // compute hid.
    const RankComm &comm = *comms_[r];
    if (comm.sourceCount_ > 0)
        chargeCommTime(r, MpiFunction::Irecv,
                       comm.sourceCount_ * machine_.latency, 0,
                       comm.sourceCount_);
    if (destCount_[r] > 0) {
        chargeCommTime(r, MpiFunction::Isend,
                       destCount_[r] * machine_.latency, 0, destCount_[r]);
        counterAdd(Counter::CommBytesInflight, outBytes_[r]);
    }
    postClock_[r] = clocks_[r];
}

void
RankedSimulation::completeHaloRecv(int r)
{
    const RankComm &comm = *comms_[r];
    double arrival = 0.0;
    for (int s : comm.sourceRanks_) {
        arrival = std::max(arrival,
                           postClock_[s] +
                               machine_.sendTime(comm.bytesFromSource_[s]));
    }
    const double wait = std::max(0.0, arrival - clocks_[r]);
    chargeCommTime(r, MpiFunction::Waitall, wait,
                   comm.ghosts_.size() * comm.perGhostBytes(), 0);
}

void
RankedSimulation::rankForwardBlocking(int r)
{
    TaskScope scope(sims_[r]->timer, Task::Comm);
    comms_[r]->forwardPositions(*sims_[r]);
}

void
RankedSimulation::rankBuildNeighbors(int r)
{
    Simulation &sim = *sims_[r];
    WallTimer wall;
    TaskScope scope(sim.timer, Task::Neigh);
    sim.neighbor.build(sim);
    clocks_[r] += wall.seconds();
}

void
RankedSimulation::rankForces(int r, bool haloInFlight)
{
    TraceScope trace("parallel", "rank_step");
    Simulation &sim = *sims_[r];
    {
        WallTimer wall;
        sim.zeroForceAccumulators();
        sim.computePairInterior();
        clocks_[r] += wall.seconds();
    }
    if (haloInFlight) {
        completeHaloRecv(r);
        TaskScope scope(sim.timer, Task::Comm);
        comms_[r]->copyHalo(sim);
    }
    WallTimer wall;
    sim.computeBoundaryForces();
    clocks_[r] += wall.seconds();
}

void
RankedSimulation::rankReverse(int r)
{
    sims_[r]->reverseForceComm();
}

void
RankedSimulation::rankFinal(int r)
{
    Simulation &sim = *sims_[r];
    WallTimer wall;
    sim.integrateFinal();
    sim.maybeSampleThermo();
    clocks_[r] += wall.seconds();
}

void
RankedSimulation::migrateAtoms()
{
    // Drop ghosts everywhere, wrap positions, then move strays.
    for (auto &sim : sims_)
        sim->atoms.clearGhosts();
    for (auto &comm : comms_) {
        comm->ghosts_.clear();
        comm->incoming_.clear();
    }

    struct Move
    {
        int from;
        int to;
        std::size_t index;
    };
    std::vector<Move> moves;
    for (int r = 0; r < nranks(); ++r) {
        AtomStore &atoms = sims_[r]->atoms;
        for (std::size_t i = 0; i < atoms.nlocal(); ++i) {
            atoms.x[i] = globalBox_.wrap(atoms.x[i]);
            const int owner = decomp_.ownerOf(atoms.x[i]);
            if (owner != r)
                moves.push_back({r, owner, i});
        }
    }

    // Apply removals in descending index order per rank so that the
    // swap-removal does not invalidate pending indices.
    std::sort(moves.begin(), moves.end(), [](const Move &a, const Move &b) {
        return a.from == b.from ? a.index > b.index : a.from < b.from;
    });
    for (const Move &move : moves) {
        AtomStore &src = sims_[move.from]->atoms;
        AtomStore &dst = sims_[move.to]->atoms;
        const std::size_t i = move.index;
        const std::size_t idx = dst.addAtom(src.tag[i], src.type[i],
                                            src.x[i]);
        dst.v[idx] = src.v[i];
        dst.omega[idx] = src.omega[i];
        dst.q[idx] = src.q[i];
        dst.molecule[idx] = src.molecule[i];
        src.removeAtom(i);
        chargeComm(move.from, MpiFunction::Sendrecv, kBytesMigrate, 1);
        chargeComm(move.to, MpiFunction::Sendrecv, kBytesMigrate, 1);
    }
}

void
RankedSimulation::sortAtoms()
{
    // Safe only in this window: migrateAtoms() just dropped every ghost
    // and every cross-rank ghost record, so no store holds indices into
    // another rank's (about to be reordered) owned range.
    for (int r = 0; r < nranks(); ++r) {
        WallTimer wall;
        sims_[r]->maybeSortAtoms();
        clocks_[r] += wall.seconds();
    }
}

void
RankedSimulation::rebuildGhosts()
{
    for (int r = 0; r < nranks(); ++r) {
        sims_[r]->atoms.clearGhosts();
        comms_[r]->ghosts_.clear();
    }

    const Vec3 len = globalBox_.lengths();
    const auto &grid = decomp_.grid();
    const Vec3 cellSpan{len.x / grid[0], len.y / grid[1], len.z / grid[2]};

    for (int s = 0; s < nranks(); ++s) {
        const AtomStore &src = sims_[s]->atoms;
        const double cut = sims_[s]->commCutoff();
        for (std::size_t i = 0; i < src.nlocal(); ++i) {
            for (int sx = -1; sx <= 1; ++sx) {
                if (sx != 0 && !globalBox_.periodic(0))
                    continue;
                for (int sy = -1; sy <= 1; ++sy) {
                    if (sy != 0 && !globalBox_.periodic(1))
                        continue;
                    for (int sz = -1; sz <= 1; ++sz) {
                        if (sz != 0 && !globalBox_.periodic(2))
                            continue;
                        const Vec3 shift{sx * len.x, sy * len.y,
                                         sz * len.z};
                        const Vec3 pos = src.x[i] + shift;
                        // Candidate destination cells whose expanded
                        // subdomain [lo-cut, hi+cut) contains pos.
                        const int cxLo = static_cast<int>(std::floor(
                            (pos.x - cut - globalBox_.lo().x) / cellSpan.x));
                        const int cxHi = static_cast<int>(std::floor(
                            (pos.x + cut - globalBox_.lo().x) / cellSpan.x));
                        const int cyLo = static_cast<int>(std::floor(
                            (pos.y - cut - globalBox_.lo().y) / cellSpan.y));
                        const int cyHi = static_cast<int>(std::floor(
                            (pos.y + cut - globalBox_.lo().y) / cellSpan.y));
                        const int czLo = static_cast<int>(std::floor(
                            (pos.z - cut - globalBox_.lo().z) / cellSpan.z));
                        const int czHi = static_cast<int>(std::floor(
                            (pos.z + cut - globalBox_.lo().z) / cellSpan.z));
                        for (int cx = cxLo; cx <= cxHi; ++cx) {
                            if (cx < 0 || cx >= grid[0])
                                continue;
                            for (int cy = cyLo; cy <= cyHi; ++cy) {
                                if (cy < 0 || cy >= grid[1])
                                    continue;
                                for (int cz = czLo; cz <= czHi; ++cz) {
                                    if (cz < 0 || cz >= grid[2])
                                        continue;
                                    const int dst =
                                        decomp_.rankOf(cx, cy, cz);
                                    if (dst == s && !sx && !sy && !sz)
                                        continue;
                                    sims_[dst]->atoms.addGhostFrom(
                                        src, i, shift);
                                    comms_[dst]->ghosts_.push_back(
                                        {s, static_cast<std::uint32_t>(i),
                                         {static_cast<std::int8_t>(sx),
                                          static_cast<std::int8_t>(sy),
                                          static_cast<std::int8_t>(sz)}});
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Derive the reverse-exchange pull records and the per-(src, dst)
    // halo byte counts the nonblocking model charges. The (holder
    // ascending, slot ascending) build order fixes each owner's fold
    // order independently of the execution schedule.
    for (int r = 0; r < nranks(); ++r) {
        comms_[r]->incoming_.clear();
        comms_[r]->bytesFromSource_.assign(nranks(), 0);
        comms_[r]->sourceRanks_.clear();
        comms_[r]->sourceCount_ = 0;
        outBytes_[r] = 0;
        destCount_[r] = 0;
    }
    for (int h = 0; h < nranks(); ++h) {
        const auto &ghosts = comms_[h]->ghosts_;
        const std::size_t ghostBytes = comms_[h]->perGhostBytes();
        for (std::size_t g = 0; g < ghosts.size(); ++g) {
            const RankComm::GhostRecord &rec = ghosts[g];
            comms_[rec.srcRank]->incoming_.push_back(
                {h, static_cast<std::uint32_t>(g), rec.srcIndex});
            comms_[h]->bytesFromSource_[rec.srcRank] += ghostBytes;
        }
    }
    for (int r = 0; r < nranks(); ++r) {
        for (int s = 0; s < nranks(); ++s) {
            if (comms_[r]->bytesFromSource_[s] == 0)
                continue;
            comms_[r]->sourceRanks_.push_back(s);
            ++comms_[r]->sourceCount_;
            ++destCount_[s];
            outBytes_[s] += comms_[r]->bytesFromSource_[s];
        }
    }

    for (int r = 0; r < nranks(); ++r) {
        chargeComm(r, MpiFunction::Sendrecv,
                   comms_[r]->ghosts_.size() * kBytesPositionVelocity, 6);
        sims_[r]->topology.buildTagMap(sims_[r]->atoms);
    }
}

void
RankedSimulation::assignTopology()
{
    // Build tag -> owner-rank map, then hand each bond/angle to the rank
    // owning its first (bonds) / vertex (angles) atom.
    std::unordered_map<std::int64_t, int> ownerOfTag;
    for (int r = 0; r < nranks(); ++r) {
        const AtomStore &atoms = sims_[r]->atoms;
        for (std::size_t i = 0; i < atoms.nlocal(); ++i)
            ownerOfTag[atoms.tag[i]] = r;
    }
    for (auto &sim : sims_) {
        sim->topology.bonds.clear();
        sim->topology.angles.clear();
    }
    for (const Bond &bond : globalTopology_.bonds)
        sims_[ownerOfTag.at(bond.tagA)]->topology.bonds.push_back(bond);
    for (const Angle &angle : globalTopology_.angles)
        sims_[ownerOfTag.at(angle.tagB)]->topology.angles.push_back(angle);
}

void
RankedSimulation::setup()
{
    // MPI context creation: the cost the paper finds surprisingly large
    // and growing with the rank count (Section 5.1).
    for (int r = 0; r < nranks(); ++r) {
        const double init = machine_.initTime(nranks());
        mpiStats_.add(r, MpiFunction::Init, init);
        clocks_[r] += init;
    }

    migrateAtoms();
    sortAtoms();
    assignTopology();
    for (int r = 0; r < nranks(); ++r) {
        Simulation *sim = sims_[r].get();
        if (sim->pair) {
            sim->neighbor.cutoff =
                std::max(sim->neighbor.cutoff, sim->pair->cutoff());
            sim->neighbor.full =
                sim->neighbor.full || sim->pair->needsFullList();
            sim->pair->setup(*sim);
        }
        // Half-list ranks always run the split interior/boundary
        // arithmetic so the overlap knob changes scheduling only, never
        // results. Full lists (granular history) stay unsplit: their
        // boundary pass simply covers everything after the halo lands.
        sim->neighbor.splitGhostPairs =
            sim->pair != nullptr && !sim->neighbor.full;
        // Per-step halos carry velocities only for styles that read
        // them; everything else gets the x-only fast path.
        comms_[r]->haloVelocities_ =
            !sim->pair || sim->pair->needsGhostVelocities();
    }
    rebuildGhosts();
    for (int r = 0; r < nranks(); ++r) {
        Simulation &sim = *sims_[r];
        WallTimer wall;
        {
            TaskScope scope(sim.timer, Task::Neigh);
            sim.neighbor.build(sim);
        }
        sim.zeroForceAccumulators();
        clocks_[r] += wall.seconds();
    }
    // Same phase discipline as run(): no rank may zero its accumulators
    // after another rank's pull already consumed its ghost slots.
    for (int r = 0; r < nranks(); ++r) {
        WallTimer wall;
        sims_[r]->computeLocalForces();
        clocks_[r] += wall.seconds();
    }
    for (int r = 0; r < nranks(); ++r) {
        Simulation &sim = *sims_[r];
        WallTimer wall;
        sim.reverseForceComm();
        for (auto &fix : sim.fixes) {
            TaskScope scope(sim.timer, Task::Modify);
            fix->setup(sim);
        }
        clocks_[r] += wall.seconds();
    }
    synchronizeClocks(MpiFunction::Wait);
    setupDone_ = true;
}

void
RankedSimulation::run(long nsteps)
{
    ensure(setupDone_, "RankedSimulation::run before setup()");
    if (nsteps <= 0)
        return;

    // Step k+1's first integration half (and, with overlap, its halo
    // posts) ride in step k's tail phase; the first step's run here.
    forRanks([&](int r) {
        rankIntegrate(r);
        if (overlap_)
            rankPostHalo(r);
    });

    for (long stepIdx = 0; stepIdx < nsteps; ++stepIdx) {
        // The rebuild decision is collective (an Allreduce in LAMMPS):
        // every rank pays the modeled reduction, and the step skew up
        // to this point materializes as time inside MPI_Allreduce.
        bool rebuild = false;
        for (int r = 0; r < nranks(); ++r)
            rebuild = rebuild || rebuildVote_[r] != 0;
        const double allreduce =
            machine_.allreduceTime(sizeof(int), nranks());
        for (int r = 0; r < nranks(); ++r) {
            mpiStats_.add(r, MpiFunction::Allreduce, allreduce);
            clocks_[r] += allreduce;
        }
        synchronizeClocks(MpiFunction::Allreduce);

        if (rebuild) {
            // Reneighbor: serial orchestration (migration mutates every
            // store), then a per-rank build phase. Any halo posted for
            // this step addressed the old ghost pattern and is simply
            // not consumed — real codes reneighbor exactly when the
            // pattern changes.
            migrateAtoms();
            sortAtoms();
            assignTopology();
            rebuildGhosts();
            forRanks([&](int r) { rankBuildNeighbors(r); });
        } else if (!overlap_) {
            // Blocking halo exchange in its own phase: every rank's
            // forward completes before any force work starts.
            forRanks([&](int r) { rankForwardBlocking(r); });
        } else {
            counterAdd(Counter::CommOverlapSteps);
        }

        const bool haloInFlight = overlap_ && !rebuild;
        forRanks([&](int r) { rankForces(r, haloInFlight); });

        // The reverse exchange is a blocking neighbor-wise barrier:
        // ranks that finished computing early block in MPI_Wait for the
        // slowest rank's forces.
        synchronizeClocks(MpiFunction::Wait);

        const bool last = stepIdx + 1 == nsteps;
        if (overlap_) {
            // Nonblocking tail: reverse, final half, and the next
            // step's integrate + halo posts fuse into one phase — the
            // pull-based reverse completes each rank's own forces
            // independently of its neighbors' progress.
            forRanks([&](int r) {
                rankReverse(r);
                rankFinal(r);
                if (!last) {
                    rankIntegrate(r);
                    rankPostHalo(r);
                }
            });
        } else {
            // Blocking semantics: each exchange phase is a barrier.
            forRanks([&](int r) { rankReverse(r); });
            forRanks([&](int r) { rankFinal(r); });
            if (!last)
                forRanks([&](int r) { rankIntegrate(r); });
        }
    }
}

double
RankedSimulation::virtualTime() const
{
    return *std::max_element(clocks_.begin(), clocks_.end());
}

TaskTimer
RankedSimulation::aggregateTaskTimer() const
{
    TaskTimer total;
    for (const auto &sim : sims_)
        total.merge(sim->timer);
    return total;
}

std::size_t
RankedSimulation::totalAtoms() const
{
    std::size_t count = 0;
    for (const auto &sim : sims_)
        count += sim->atoms.nlocal();
    return count;
}

void
RankedSimulation::gather(Simulation &out) const
{
    struct Entry
    {
        std::int64_t tag;
        int type;
        Vec3 x;
        Vec3 v;
        double q;
    };
    std::vector<Entry> entries;
    for (const auto &sim : sims_) {
        const AtomStore &atoms = sim->atoms;
        for (std::size_t i = 0; i < atoms.nlocal(); ++i)
            entries.push_back({atoms.tag[i], atoms.type[i], atoms.x[i],
                               atoms.v[i], atoms.q[i]});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) { return a.tag < b.tag; });
    out.box = globalBox_;
    out.atoms = AtomStore{};
    out.atoms.typeParams = sims_[0]->atoms.typeParams;
    for (const Entry &entry : entries) {
        const std::size_t idx =
            out.atoms.addAtom(entry.tag, entry.type, entry.x);
        out.atoms.v[idx] = entry.v;
        out.atoms.q[idx] = entry.q;
    }
}

} // namespace mdbench
