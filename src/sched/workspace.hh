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
 * One single-slot cache does: the SchedPlan of the (graph, machine)
 * pair last probed, everything both schedulers' recurrence check and
 * HRMS's pre-ordering read that does not depend on II. It is keyed by
 * the structural fingerprints through a GraphMachineKey (trusted in
 * release builds, verified structurally on every reuse in debug
 * builds) and holds only what its key determines, so schedules stay
 * bit-identical to a freshly constructed scheduler's.
 */

#ifndef SWP_SCHED_WORKSPACE_HH
#define SWP_SCHED_WORKSPACE_HH

#include <vector>

#include "ir/ddg.hh"
#include "sched/mrt.hh"
#include "sched/sched_plan.hh"
#include "sched/sched_util.hh"
#include "support/bitmatrix.hh"

namespace swp
{

/** Per-scheduler scratch buffers; cleared, not reallocated, per probe. */
struct SchedWorkspace
{
    /** @name Shared by both schedulers */
    /// @{
    /** The per-graph plan, reused across probes of one pair. */
    SchedPlan plan;
    Mrt mrt;
    GroupPriorities prio;
    /// @}

    /** @name HRMS */
    /// @{
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
    std::vector<char> placed;
    std::vector<long> lastTime;
    std::vector<NodeId> blockers;
    std::vector<int> evict;
    /// @}
};

} // namespace swp

#endif // SWP_SCHED_WORKSPACE_HH
