/**
 * @file
 * Reusable scheduling workspace.
 *
 * A register-constrained pipeline run issues many scheduleAt(ii) probes
 * against the same scheduler object (the spill driver's II searches,
 * best-of-all's binary search), and the batch driver reuses one
 * scheduler per worker thread across all its jobs. SchedWorkspace holds
 * every sizable scratch structure those probes need — the MRT, the
 * ASAP/height priority buffers, the ordering and eviction buffers — so
 * a probe clears them (assign / reset, which recycle capacity) instead
 * of reallocating them. Scratch carries no semantic information across
 * probes.
 *
 * Two single-slot caches do, each keyed by the structural (graph,
 * machine) fingerprints through a GraphMachineKey (trusted in release
 * builds, verified structurally on every reuse in debug builds):
 *  - IMS's RecurrenceCache, the cyclic-SCC decomposition its
 *    recurrence check reuses across same-loop II probes;
 *  - HRMS's HrmsPlan, everything its pre-ordering and recurrence check
 *    read that does not depend on II.
 * Both hold only what their key determines, so schedules stay
 * bit-identical to a freshly constructed scheduler's.
 */

#ifndef SWP_SCHED_WORKSPACE_HH
#define SWP_SCHED_WORKSPACE_HH

#include <vector>

#include "ir/ddg.hh"
#include "sched/fingerprint.hh"
#include "sched/groups.hh"
#include "sched/mii.hh"
#include "sched/mrt.hh"
#include "sched/sched_util.hh"
#include "support/bitmatrix.hh"

namespace swp
{

/** Adjacency lists whose per-row storage survives reset(). */
struct ScratchAdj
{
    std::vector<std::vector<int>> rows;

    void
    reset(int n)
    {
        if (int(rows.size()) < n)
            rows.resize(std::size_t(n));
        for (int i = 0; i < n; ++i)
            rows[std::size_t(i)].clear();
    }

    std::vector<int> &operator[](int i) { return rows[std::size_t(i)]; }
    const std::vector<int> &
    operator[](int i) const
    {
        return rows[std::size_t(i)];
    }
};

/**
 * HRMS's per-graph plan: the complex groups, the condensed group graph
 * and the ranked recurrences. None of it depends on II, so the first
 * probe of a (graph, machine) pair builds it and the probes that
 * follow (an II search, best-of-all's binary search) reuse it. The
 * II-dependent rest — priorities, the cone ordering, placement — is
 * computed per probe.
 */
struct HrmsPlan
{
    /** The (graph, machine) pair the content below was built for. */
    GraphMachineKey key;
    GroupSet groups;

    /** @name Condensed group graph (no self-edges) */
    /// @{
    /** Deduplicated successor lists: over all edges / zero-distance
        edges only. */
    ScratchAdj succ, succ0;
    /** Bit-row adjacency, so the absorb loops test readiness
        word-parallel instead of scanning lists; succMask / pred0Mask
        also deduplicate succ / succ0 while they are built. */
    BitMatrix predMask, succMask, pred0Mask;
    /** Transitive reachability over succ. */
    BitMatrix reach;
    /** Zero-distance reachability over succ0; built only when there
        are at least two recurrences to order. */
    BitMatrix reach0;
    std::vector<int> dfsStack;
    /// @}

    /** Cyclic components of the condensed graph (group indices), in
        the order the pre-ordering places them: most critical first,
        constrained to zero-distance reachability. */
    std::vector<std::vector<int>> recurrences;
    /** Largest recurrence criticality: ii < recMii has a positive
        cycle through two or more groups. */
    int recMii = 1;
};

/** Per-scheduler scratch buffers; cleared, not reallocated, per probe. */
struct SchedWorkspace
{
    /** @name Shared by both schedulers */
    /// @{
    Mrt mrt;
    NodePriorities prio;
    /** Anchor-relative group ASAP / height. */
    std::vector<long> gAsap, gHeight;
    /// @}

    /** @name HRMS */
    /// @{
    HrmsPlan hrms;
    std::vector<int> order;
    BitRow orderedMask, setMask;
    /** Groups reachable from the ordered set / the current recurrence:
        OR-ed reach rows, grown as groups are appended. */
    BitRow fromOrdered, fromSet;
    /** Absorb-set members not yet appended to the order. */
    BitRow remainMask;
    /// @}

    /** @name IMS */
    /// @{
    /** Complex-group partition, rebuilt per probe on recycled storage. */
    GroupSet groups;
    /** Cyclic-SCC decomposition, reused across same-loop II probes. */
    RecurrenceCache recurrences;
    std::vector<char> placed;
    std::vector<long> lastTime;
    std::vector<NodeId> blockers;
    std::vector<int> evict;
    /// @}
};

} // namespace swp

#endif // SWP_SCHED_WORKSPACE_HH
