#include "sched/hrms.hh"

#include <algorithm>

#include "sched/groups.hh"
#include "sched/mrt.hh"
#include "sched/sched_plan.hh"
#include "sched/sched_util.hh"
#include "support/bitmatrix.hh"
#include "support/diag.hh"

namespace swp
{

namespace
{

constexpr long negInf = schedNegInf;
constexpr long posInf = schedPosInf;

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
    const SchedPlan &plan;
    const GroupSet &groups;  ///< plan.groups.
    const int n;             ///< Number of complex groups.

    HrmsContext(const Ddg &graph, const Machine &mach, int interval,
                SchedWorkspace &workspace, const SchedPlan &p)
        : g(graph),
          m(mach),
          ii(interval),
          ws(workspace),
          plan(p),
          groups(p.groups),
          n(p.groups.numGroups())
    {
        ws.prio.compute(g, m, groups, ii);
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
        : ctx_(ctx), ws_(ctx.ws), plan_(ctx.plan), prio_(ctx.ws.prio)
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
                        prio_.asap[std::size_t(v)] +
                                prio_.height[std::size_t(v)] >
                            prio_.asap[std::size_t(best)] +
                                prio_.height[std::size_t(best)]) {
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
            if (prio_.asap[std::size_t(a)] != prio_.asap[std::size_t(b)])
                return prio_.asap[std::size_t(a)] <
                       prio_.asap[std::size_t(b)];
            return prio_.height[std::size_t(a)] >
                   prio_.height[std::size_t(b)];
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
            if (prio_.asap[std::size_t(a)] != prio_.asap[std::size_t(b)])
                return prio_.asap[std::size_t(a)] >
                       prio_.asap[std::size_t(b)];
            return prio_.height[std::size_t(a)] <
                   prio_.height[std::size_t(b)];
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
    const SchedPlan &plan_;
    const GroupPriorities &prio_;
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
            const long start = ctx.ws.prio.asap[std::size_t(gi)];
            for (long t = start; t < start + ctx.ii; ++t) {
                if (mrt.placeGroup(ctx.g, grp, int(t), sched)) {
                    placed = true;
                    break;
                }
            }
        }
        if (!placed)
            return std::nullopt;
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
    const SchedPlan &plan = planFor(g, m, ws_.plan);
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

std::vector<int>
HrmsScheduler::orderingForTest(const Ddg &g, const Machine &m, int ii)
{
    HrmsContext ctx(g, m, ii, ws_, planFor(g, m, ws_.plan));
    Ordering ordering(ctx);
    return ordering.run();
}

} // namespace swp
