/**
 * @file
 * The per-graph scheduling plan both modulo schedulers share.
 *
 * Everything a probe reads that does not depend on II — the complex
 * groups, the condensed group graph, the ranked recurrences and their
 * RecMII — is built once per (graph, machine) pair and reused by the
 * probes that follow (an II search, best-of-all's binary search). Both
 * HRMS and IMS take their groups and their recurrence check from it;
 * the condensed graph and the ranked recurrences feed HRMS's
 * pre-ordering.
 */

#ifndef SWP_SCHED_SCHED_PLAN_HH
#define SWP_SCHED_SCHED_PLAN_HH

#include <vector>

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "sched/fingerprint.hh"
#include "sched/groups.hh"
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
 * The II-independent plan of one (graph, machine) pair: the complex
 * groups, the condensed group graph and the ranked recurrences. The
 * II-dependent rest — priorities, HRMS's cone ordering, placement — is
 * computed per probe.
 */
struct SchedPlan
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

/**
 * The plan of (g, m), held in `slot`: rebuilt only when the slot holds
 * another pair's plan (verified structurally in debug builds).
 */
const SchedPlan &planFor(const Ddg &g, const Machine &m, SchedPlan &slot);

/**
 * The recurrence check of a probe, shared by both schedulers. Every
 * dependence cycle lies inside one group or inside one recurrence of
 * the plan. A cycle through two or more groups fits once
 * ii >= plan.recMii; a cycle inside one group (a self-loop included)
 * is checked edge by edge by groupsInternallyFeasible, which also
 * rejects groups whose fixed offsets cannot meet their internal edges.
 */
bool iiFitsPlan(const Ddg &g, const Machine &m, const SchedPlan &plan,
                int ii);

} // namespace swp

#endif // SWP_SCHED_SCHED_PLAN_HH
