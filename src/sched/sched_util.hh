/**
 * @file
 * Helpers shared by the modulo scheduling algorithms: group priorities
 * at a given II and the complex-group feasibility check.
 */

#ifndef SWP_SCHED_SCHED_UTIL_HH
#define SWP_SCHED_SCHED_UTIL_HH

#include <limits>
#include <vector>

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "sched/groups.hh"

namespace swp
{

constexpr long schedNegInf = std::numeric_limits<long>::min() / 4;
constexpr long schedPosInf = std::numeric_limits<long>::max() / 4;

/**
 * Anchor-relative priorities of the complex groups at one II, shared
 * by both schedulers. Node ASAP and height are longest paths with edge
 * weight latency(src) - II * distance (Bellman-Ford-style relaxation;
 * only meaningful when II >= RecMII, i.e. with no positive cycles). A
 * group's ASAP is the latest member ASAP minus the member's offset, its
 * height the tallest member height plus the member's offset.
 */
struct GroupPriorities
{
    /** Per group index. */
    std::vector<long> asap;
    std::vector<long> height;

    /** Recompute for (g, m, groups, ii); the buffers are reused. */
    void compute(const Ddg &g, const Machine &m, const GroupSet &groups,
                 int ii);

  private:
    /** Per-node longest paths. */
    std::vector<long> nodeAsap_, nodeHeight_;
};

/**
 * Check dependence constraints between members of the same complex
 * group, whose relative offsets are fixed: every internal edge must be
 * satisfiable at this II, and fused edges must sit at their exact
 * offset. Self-loops count as group-internal edges with gap 0, so a
 * self-recurrence needing more than II cycles fails here. Together
 * with II >= the RecMII of every cyclic component of the condensed
 * group graph this is the full recurrence check: every dependence
 * cycle lies inside one group or inside one such component.
 */
bool groupsInternallyFeasible(const Ddg &g, const Machine &m,
                              const GroupSet &groups, int ii);

} // namespace swp

#endif // SWP_SCHED_SCHED_UTIL_HH
