#include "sched/sched_plan.hh"

#include <algorithm>
#include <utility>

#include "ir/graph_algo.hh"
#include "sched/mii.hh"
#include "sched/sched_util.hh"
#include "support/diag.hh"

namespace swp
{

namespace
{

/** Recurrence components (group indices) with their criticality. */
using RankedRecurrences = std::vector<std::pair<int, std::vector<int>>>;

/**
 * Stable-topologically reorder recurrence components along
 * zero-distance reachability, keeping criticality order among unrelated
 * components: if comp A has a zero-distance path into comp B, A must be
 * placed first. Otherwise a member of A with a placed zero-distance
 * successor in B faces a fixed gap that no II can widen (carried edges
 * gain slack with II; zero-distance ones never do). Always makes
 * progress: a zero-distance cycle between distinct components would be
 * a zero-distance cycle in the graph, which verifyDdg forbids.
 */
void
orderCompsByZeroDistance(RankedRecurrences &comps, const BitMatrix &reach0)
{
    auto reaches0 = [&](const std::vector<int> &from,
                        const std::vector<int> &to) {
        for (const int a : from) {
            for (const int b : to) {
                if (reach0.test(a, b))
                    return true;
            }
        }
        return false;
    };

    RankedRecurrences ordered;
    std::vector<bool> taken(comps.size(), false);
    for (std::size_t step = 0; step < comps.size(); ++step) {
        int pick = -1;
        for (std::size_t i = 0; i < comps.size() && pick < 0; ++i) {
            if (taken[i])
                continue;
            bool ready = true;
            for (std::size_t j = 0; j < comps.size(); ++j) {
                if (j == i || taken[j])
                    continue;
                if (reaches0(comps[j].second, comps[i].second)) {
                    ready = false;
                    break;
                }
            }
            if (ready)
                pick = int(i);
        }
        SWP_ASSERT(pick >= 0, "zero-distance cycle between recurrences");
        taken[std::size_t(pick)] = true;
        ordered.push_back(std::move(comps[std::size_t(pick)]));
    }
    comps = std::move(ordered);
}

/**
 * Build the plan of (g, m): complex groups, the condensed group graph
 * with its deduplicated adjacency (duplicate (a, b) pairs are filtered
 * by the bit-row mirrors instead of a list scan) and word-packed
 * reachability, and the recurrences ranked for placement.
 */
void
buildPlan(const Ddg &g, const Machine &m, SchedPlan &plan)
{
    GroupSet &groups = plan.groups;
    groups.reset(g, m);
    const int n = groups.numGroups();

    plan.succ.reset(n);
    plan.succ0.reset(n);
    plan.predMask.reset(n, n);
    plan.succMask.reset(n, n);
    plan.pred0Mask.reset(n, n);
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        const int a = groups.groupOf(edge.src);
        const int b = groups.groupOf(edge.dst);
        if (a == b)
            continue;
        if (!plan.succMask.test(a, b)) {
            plan.succMask.set(a, b);
            plan.predMask.set(b, a);
            plan.succ[a].push_back(b);
        }
        if (edge.distance == 0 && !plan.pred0Mask.test(b, a)) {
            plan.pred0Mask.set(b, a);
            plan.succ0[a].push_back(b);
        }
    }
    transitiveClosure(plan.succ.rows, n, plan.reach, plan.dfsStack);

    // Recurrences, most critical (criticality = RecMII of the
    // component) first. The SCC decomposition is the shared graph-algo
    // Tarjan over the condensed adjacency; only recurrence components
    // are materialized as vectors.
    const AdjScc scc = stronglyConnectedComponents(plan.succ.rows, n);
    RankedRecurrences ranked;
    std::vector<NodeId> nodes;
    plan.recMii = 1;
    for (int c = 0; c < scc.numComps(); ++c) {
        if (!scc.cyclic(c))
            continue;
        const int *members = scc.compNodes(c);
        std::vector<int> comp(members, members + scc.compSize(c));
        nodes.clear();
        for (const int gi : comp) {
            const ComplexGroup &grp = groups.group(gi);
            nodes.insert(nodes.end(), grp.members.begin(),
                         grp.members.end());
        }
        const int crit = recMiiOfComponent(g, m, nodes);
        plan.recMii = std::max(plan.recMii, crit);
        ranked.emplace_back(crit, std::move(comp));
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         if (a.first != b.first)
                             return a.first > b.first;
                         return a.second.size() > b.second.size();
                     });
    if (ranked.size() >= 2) {
        transitiveClosure(plan.succ0.rows, n, plan.reach0, plan.dfsStack);
        orderCompsByZeroDistance(ranked, plan.reach0);
    }

    plan.recurrences.resize(ranked.size());
    for (std::size_t i = 0; i < ranked.size(); ++i)
        plan.recurrences[i] = std::move(ranked[i].second);
}

} // namespace

const SchedPlan &
planFor(const Ddg &g, const Machine &m, SchedPlan &slot)
{
    if (!slot.key.matches(g, m, "scheduling plan")) {
        slot.key.clear();
        buildPlan(g, m, slot);
        slot.key.bind(g, m);
    }
    return slot;
}

bool
iiFitsPlan(const Ddg &g, const Machine &m, const SchedPlan &plan, int ii)
{
    return ii >= plan.recMii &&
           groupsInternallyFeasible(g, m, plan.groups, ii);
}

} // namespace swp
