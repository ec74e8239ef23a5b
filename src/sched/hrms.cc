#include "sched/hrms.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "ir/graph_algo.hh"
#include "sched/groups.hh"
#include "sched/mii.hh"
#include "sched/mrt.hh"
#include "sched/sched_util.hh"
#include "support/bitmatrix.hh"
#include "support/diag.hh"

namespace swp
{

namespace
{

constexpr long negInf = schedNegInf;
constexpr long posInf = schedPosInf;

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
 * Build the II-independent plan of (g, m): complex groups, the condensed
 * group graph with its deduplicated adjacency (duplicate (a, b) pairs
 * are filtered by the bit-row mirrors instead of a list scan) and
 * word-packed reachability, and the recurrences ranked for placement.
 */
void
buildPlan(const Ddg &g, const Machine &m, HrmsPlan &plan)
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

/** The plan of (g, m), rebuilt only when the workspace holds another's. */
const HrmsPlan &
planFor(const Ddg &g, const Machine &m, HrmsPlan &plan)
{
    if (!plan.key.matches(g, m, "HRMS plan")) {
        plan.key.clear();
        buildPlan(g, m, plan);
        plan.key.bind(g, m);
    }
    return plan;
}

/**
 * The recurrence check of a probe. A dependence cycle through two or
 * more groups lies in one recurrence of the plan, so ii >= the plan's
 * RecMII fits it; a cycle inside one group (a self-loop included) is
 * checked edge by edge by groupsInternallyFeasible, which also rejects
 * groups whose fixed offsets cannot meet their internal edges.
 */
bool
iiFitsPlan(const Ddg &g, const Machine &m, const HrmsPlan &plan, int ii)
{
    return ii >= plan.recMii &&
           groupsInternallyFeasible(g, m, plan.groups, ii);
}

/**
 * Scheduling context shared by the ordering and placement phases of
 * one probe: the graph's plan (reused across probes) plus the
 * anchor-relative group priorities at this II. The priority buffers,
 * ordering masks and MRT live in the scheduler's SchedWorkspace and are
 * cleared, not reallocated, for each probe.
 */
struct HrmsContext
{
    const Ddg &g;
    const Machine &m;
    const int ii;
    SchedWorkspace &ws;
    const HrmsPlan &plan;
    const GroupSet &groups;  ///< plan.groups.
    const int n;             ///< Number of complex groups.

    HrmsContext(const Ddg &graph, const Machine &mach, int interval,
                SchedWorkspace &workspace, const HrmsPlan &p)
        : g(graph),
          m(mach),
          ii(interval),
          ws(workspace),
          plan(p),
          groups(p.groups),
          n(p.groups.numGroups())
    {
        ws.prio.compute(g, m, ii);
        ws.gAsap.assign(std::size_t(n), negInf);
        ws.gHeight.assign(std::size_t(n), negInf);
        for (NodeId v = 0; v < g.numNodes(); ++v) {
            const int gi = groups.groupOf(v);
            const long off = groups.offsetOf(v);
            ws.gAsap[std::size_t(gi)] =
                std::max(ws.gAsap[std::size_t(gi)],
                         ws.prio.asap[std::size_t(v)] - off);
            ws.gHeight[std::size_t(gi)] =
                std::max(ws.gHeight[std::size_t(gi)],
                         ws.prio.height[std::size_t(v)] + off);
        }
    }
};

/**
 * The pre-ordering phase: produce group indices in scheduling order.
 *
 * The scheduling phase relies on the HRMS invariant: when a group is
 * placed, its already-placed neighbours are only predecessors or only
 * successors (recurrence members excepted). Two placement "fronts"
 * meeting at an unordered node would leave it a window that no II can
 * satisfy, so the ordering must never create such junctions. We achieve
 * that by always absorbing whole *transitive cones* in one direction:
 *
 *  - recurrences first, most critical (highest RecMII) first, each
 *    preceded by the nodes on directed paths from the ordered set to it
 *    (topological order: they see only predecessors) and followed by
 *    the paths back (reverse topological: only successors); since
 *    distinct SCCs cannot have paths both ways, these sets are disjoint;
 *  - then, repeatedly: the full descendant cone of the ordered set in
 *    topological order, or the full ancestor cone in reverse topological
 *    order, or a fresh seed (the most critical remaining group).
 *
 * A node of a descendant cone cannot have an ordered successor (that
 * would make it simultaneously an ancestor, i.e. a node between two
 * ordered nodes, which the hole-absorption step has already taken), and
 * symmetrically for ancestor cones, so the invariant holds everywhere
 * outside recurrences.
 */
class Ordering
{
  public:
    explicit Ordering(HrmsContext &ctx)
        : ctx_(ctx), ws_(ctx.ws), plan_(ctx.plan)
    {
    }

    const std::vector<int> &
    run()
    {
        const int n = ctx_.n;
        ws_.orderedMask.reset(n);
        ws_.fromOrdered.reset(n);
        ws_.order.clear();
        ws_.order.reserve(std::size_t(n));

        // Recurrences first, in the plan's order: most critical first,
        // constrained to zero-distance reachability between them.
        for (const std::vector<int> &comp : plan_.recurrences) {
            // Membership and reach masks of this recurrence, for the
            // cone tests.
            ws_.setMask.reset(n);
            ws_.fromSet.reset(n);
            for (const int gi : comp) {
                ws_.setMask.set(gi);
                plan_.reach.orRowInto(gi, ws_.fromSet.words());
            }
            if (!ws_.order.empty()) {
                // Paths ordered-set -> recurrence: only-preds nodes.
                std::vector<int> forward, backward;
                for (int v = 0; v < n; ++v) {
                    if (ws_.orderedMask.test(v) || ws_.setMask.test(v))
                        continue;
                    if (reachesFromOrdered(v) && reachesIntoSet(v))
                        forward.push_back(v);
                    else if (reachableFromSet(v) && reachesToOrdered(v))
                        backward.push_back(v);
                }
                absorbTopological(forward);
                absorbReverseTopological(backward);
            }
            // The recurrence itself. Members are ordered topologically
            // over the *zero-distance* subgraph (acyclic inside any
            // legal SCC): a member's already-placed in-SCC successors
            // are then reachable only through carried edges, whose
            // slack grows with the II — so the [early, late] window of
            // a both-sided member always opens up at a feasible II.
            // Plain criticality order could trap a member between two
            // placed members at a fixed zero-distance gap that no II
            // can widen.
            absorbZeroDistanceTopological(comp);
        }

        // Everything else: cones around the ordered set.
        for (;;) {
            std::vector<int> holes, descendants, ancestors;
            int remaining = 0;
            for (int v = 0; v < n; ++v) {
                if (ws_.orderedMask.test(v))
                    continue;
                ++remaining;
                const bool below = reachesFromOrdered(v);
                const bool above = reachesToOrdered(v);
                if (below && above)
                    holes.push_back(v);
                else if (below)
                    descendants.push_back(v);
                else if (above)
                    ancestors.push_back(v);
            }
            if (remaining == 0)
                return ws_.order;
            if (!holes.empty()) {
                // Only possible through not-yet-ordered recurrence
                // remnants; order them feasibly (producers first).
                absorbTopological(holes);
            } else if (!descendants.empty()) {
                absorbTopological(descendants);
            } else if (!ancestors.empty()) {
                absorbReverseTopological(ancestors);
            } else {
                // Disconnected from everything ordered: seed with the
                // most critical group (longest chain through it).
                int best = -1;
                for (int v = 0; v < n; ++v) {
                    if (ws_.orderedMask.test(v))
                        continue;
                    if (best < 0 ||
                        ws_.gAsap[std::size_t(v)] +
                                ws_.gHeight[std::size_t(v)] >
                            ws_.gAsap[std::size_t(best)] +
                                ws_.gHeight[std::size_t(best)]) {
                        best = v;
                    }
                }
                append(best);
            }
        }
    }

  private:
    /** Some ordered group reaches v. */
    bool
    reachesFromOrdered(int v) const
    {
        return ws_.fromOrdered.test(v);
    }

    /** v reaches some ordered group (word-parallel row test). */
    bool
    reachesToOrdered(int v) const
    {
        return plan_.reach.intersects(v, ws_.orderedMask.words());
    }

    /** Some member of the current recurrence (setMask) reaches v. */
    bool
    reachableFromSet(int v) const
    {
        return ws_.fromSet.test(v);
    }

    /** v reaches some member of the current recurrence (setMask). */
    bool
    reachesIntoSet(int v) const
    {
        return plan_.reach.intersects(v, ws_.setMask.words());
    }

    void
    append(int v)
    {
        ws_.orderedMask.set(v);
        plan_.reach.orRowInto(v, ws_.fromOrdered.words());
        ws_.order.push_back(v);
    }

    /** Critical groups first: ascending ASAP, descending height. */
    void
    sortByCriticality(std::vector<int> &set) const
    {
        std::stable_sort(set.begin(), set.end(), [&](int a, int b) {
            if (ws_.gAsap[std::size_t(a)] != ws_.gAsap[std::size_t(b)])
                return ws_.gAsap[std::size_t(a)] <
                       ws_.gAsap[std::size_t(b)];
            return ws_.gHeight[std::size_t(a)] >
                   ws_.gHeight[std::size_t(b)];
        });
    }

    /**
     * Append a recurrence component in topological order of its
     * internal zero-distance edges; ties by criticality.
     *
     * Readiness ("no unplaced in-set predecessor") is one word-parallel
     * intersection of the candidate's predecessor bit row with the
     * remaining-members mask. The condensed adjacency holds no
     * self-edges (group-internal edges are skipped when it is built),
     * so a member's own remaining bit can never veto it.
     */
    void
    absorbZeroDistanceTopological(std::vector<int> set)
    {
        sortByCriticality(set);
        ws_.remainMask.reset(ctx_.n);
        for (const int v : set)
            ws_.remainMask.set(v);
        for (std::size_t placed = 0; placed < set.size(); ++placed) {
            int pick = -1;
            for (const int v : set) {
                if (!ws_.remainMask.test(v))
                    continue;
                if (!plan_.pred0Mask.intersects(v, ws_.remainMask.words())) {
                    pick = v;
                    break;
                }
            }
            SWP_ASSERT(pick >= 0,
                       "zero-distance cycle inside a recurrence");
            ws_.remainMask.clear(pick);
            append(pick);
        }
    }

    /**
     * Append the whole set in topological order of its internal edges
     * (producers first); ties by criticality. Cycles inside the set
     * (unprocessed recurrence remnants) are broken by criticality.
     */
    void
    absorbTopological(std::vector<int> set)
    {
        sortByCriticality(set);
        ws_.remainMask.reset(ctx_.n);
        for (const int v : set)
            ws_.remainMask.set(v);
        for (std::size_t placed = 0; placed < set.size(); ++placed) {
            int pick = -1;
            for (const int v : set) {
                if (!ws_.remainMask.test(v))
                    continue;
                if (!plan_.predMask.intersects(v, ws_.remainMask.words())) {
                    pick = v;
                    break;
                }
            }
            if (pick < 0) {
                // Cycle: take the most critical remaining node.
                for (const int v : set) {
                    if (ws_.remainMask.test(v)) {
                        pick = v;
                        break;
                    }
                }
            }
            ws_.remainMask.clear(pick);
            append(pick);
        }
    }

    /**
     * Append the whole set in reverse topological order (consumers
     * first), so each member sees only successors when placed.
     */
    void
    absorbReverseTopological(std::vector<int> set)
    {
        // Latest groups first: descending ASAP, ascending height.
        std::stable_sort(set.begin(), set.end(), [&](int a, int b) {
            if (ws_.gAsap[std::size_t(a)] != ws_.gAsap[std::size_t(b)])
                return ws_.gAsap[std::size_t(a)] >
                       ws_.gAsap[std::size_t(b)];
            return ws_.gHeight[std::size_t(a)] <
                   ws_.gHeight[std::size_t(b)];
        });
        ws_.remainMask.reset(ctx_.n);
        for (const int v : set)
            ws_.remainMask.set(v);
        for (std::size_t placed = 0; placed < set.size(); ++placed) {
            int pick = -1;
            for (const int v : set) {
                if (!ws_.remainMask.test(v))
                    continue;
                if (!plan_.succMask.intersects(v, ws_.remainMask.words())) {
                    pick = v;
                    break;
                }
            }
            if (pick < 0) {
                for (const int v : set) {
                    if (ws_.remainMask.test(v)) {
                        pick = v;
                        break;
                    }
                }
            }
            ws_.remainMask.clear(pick);
            append(pick);
        }
    }

    HrmsContext &ctx_;
    SchedWorkspace &ws_;
    const HrmsPlan &plan_;
};

/** The placement phase. */
std::optional<Schedule>
place(HrmsContext &ctx, const std::vector<int> &order)
{
    Schedule sched(ctx.ii, ctx.g.numNodes());
    Mrt &mrt = ctx.ws.mrt;
    mrt.reset(ctx.m, ctx.ii);

    for (const int gi : order) {
        const ComplexGroup &grp = ctx.groups.group(gi);

        long early = negInf;
        long late = posInf;
        bool hasPred = false;
        bool hasSucc = false;
        for (std::size_t i = 0; i < grp.members.size(); ++i) {
            const NodeId v = grp.members[i];
            const long off = grp.offsets[i];
            for (EdgeId e : ctx.g.inEdgeIds(v)) {
                const Edge &edge = ctx.g.edge(e);
                if (!edge.alive ||
                    ctx.groups.groupOf(edge.src) == gi ||
                    !sched.scheduled(edge.src)) {
                    continue;
                }
                hasPred = true;
                const long bound = sched.time(edge.src) +
                                   ctx.m.latency(ctx.g.node(edge.src).op) -
                                   long(ctx.ii) * edge.distance - off;
                early = std::max(early, bound);
            }
            for (EdgeId e : ctx.g.outEdgeIds(v)) {
                const Edge &edge = ctx.g.edge(e);
                if (!edge.alive ||
                    ctx.groups.groupOf(edge.dst) == gi ||
                    !sched.scheduled(edge.dst)) {
                    continue;
                }
                hasSucc = true;
                const long bound = sched.time(edge.dst) -
                                   ctx.m.latency(ctx.g.node(v).op) +
                                   long(ctx.ii) * edge.distance - off;
                late = std::min(late, bound);
            }
        }

        bool placed = false;
        if (hasPred && !hasSucc) {
            for (long t = early; t < early + ctx.ii; ++t) {
                if (mrt.placeGroup(ctx.g, grp, int(t), sched)) {
                    placed = true;
                    break;
                }
            }
        } else if (hasSucc && !hasPred) {
            for (long t = late; t > late - ctx.ii; --t) {
                if (mrt.placeGroup(ctx.g, grp, int(t), sched)) {
                    placed = true;
                    break;
                }
            }
        } else if (hasPred && hasSucc) {
            const long hi = std::min(late, early + ctx.ii - 1);
            for (long t = early; t <= hi; ++t) {
                if (mrt.placeGroup(ctx.g, grp, int(t), sched)) {
                    placed = true;
                    break;
                }
            }
        } else {
            const long start = ctx.ws.gAsap[std::size_t(gi)];
            for (long t = start; t < start + ctx.ii; ++t) {
                if (mrt.placeGroup(ctx.g, grp, int(t), sched)) {
                    placed = true;
                    break;
                }
            }
        }
        if (!placed) {
            // Read-only debug toggle; nothing in the process calls
            // setenv, so the getenv race mt-unsafe guards against
            // cannot arise.
            if (std::getenv("SWP_HRMS_DEBUG")) {  // NOLINT(concurrency-mt-unsafe)
                int placedCount = 0;
                for (NodeId v = 0; v < ctx.g.numNodes(); ++v)
                    placedCount += sched.scheduled(v);
                std::fprintf(stderr,
                             "HRMS fail ii=%d group=%d (%s) early=%ld "
                             "late=%ld hasPred=%d hasSucc=%d placed=%d/%d"
                             " members=%zu\n",
                             ctx.ii, gi,
                             ctx.g.node(grp.members[0]).name.c_str(),
                             early, late, int(hasPred), int(hasSucc),
                             placedCount, ctx.g.numNodes(),
                             grp.members.size());
                for (std::size_t i = 0; i < grp.members.size(); ++i) {
                    std::fprintf(stderr, "  member %s off=%d op=%s\n",
                                 ctx.g.node(grp.members[i]).name.c_str(),
                                 grp.offsets[i],
                                 opcodeName(ctx.g.node(
                                     grp.members[i]).op));
                }
            }
            return std::nullopt;
        }
    }

    sched.normalize();
    return sched;
}

} // namespace

std::optional<Schedule>
HrmsScheduler::scheduleAt(const Ddg &g, const Machine &m, int ii)
{
    if (g.numNodes() == 0)
        return std::nullopt;
    const HrmsPlan &plan = planFor(g, m, ws_.hrms);
    if (!iiFitsPlan(g, m, plan, ii))
        return std::nullopt;

    HrmsContext ctx(g, m, ii, ws_, plan);
    Ordering ordering(ctx);
    const std::vector<int> &order = ordering.run();
    SWP_ASSERT(int(order.size()) == ctx.groups.numGroups(),
               "HRMS ordering lost groups");

    auto sched = place(ctx, order);
    if (!sched)
        return std::nullopt;

    std::string why;
    SWP_ASSERT(validateSchedule(g, m, *sched, &why),
               "HRMS produced an invalid schedule: ", why);
    return sched;
}

bool
HrmsScheduler::passesRecurrenceCheckForTest(const Ddg &g, const Machine &m,
                                            int ii)
{
    return iiFitsPlan(g, m, planFor(g, m, ws_.hrms), ii);
}

std::vector<int>
HrmsScheduler::orderingForTest(const Ddg &g, const Machine &m, int ii)
{
    HrmsContext ctx(g, m, ii, ws_, planFor(g, m, ws_.hrms));
    Ordering ordering(ctx);
    return ordering.run();
}

} // namespace swp
