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

/**
 * Scheduling context shared by the ordering and placement phases.
 *
 * All sizable state — the condensed group-graph adjacency, the
 * bit-packed reachability matrices (reach over all edges, its
 * transpose, and zero-distance-only reach0), the priority buffers and
 * the MRT — lives in the scheduler's SchedWorkspace and is cleared,
 * not reallocated, for each probe.
 */
struct HrmsContext
{
    const Ddg &g;
    const Machine &m;
    const int ii;
    SchedWorkspace &ws;
    GroupSet &groups;  ///< ws.groups, rebuilt for this probe.
    int n = 0;         ///< Number of complex groups.

    HrmsContext(const Ddg &graph, const Machine &mach, int interval,
                SchedWorkspace &workspace)
        : g(graph),
          m(mach),
          ii(interval),
          ws(workspace),
          groups(workspace.groups)
    {
        groups.reset(graph, mach);
        n = groups.numGroups();
        buildGroupGraph();

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

  private:
    /**
     * Build the condensed graph over complex groups: deduplicated
     * adjacency (duplicate (a, b) pairs are filtered by a bit matrix
     * instead of a linear scan), plus transitive reachability as
     * word-packed bit rows.
     */
    void
    buildGroupGraph()
    {
        ws.succ.reset(n);
        ws.pred.reset(n);
        ws.succ0.reset(n);
        ws.pred0.reset(n);
        ws.predMask.reset(n, n);
        ws.succMask.reset(n, n);
        ws.pred0Mask.reset(n, n);
        ws.edgeSeen.reset(n, n);
        ws.edgeSeen0.reset(n, n);
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            const Edge &edge = g.edge(e);
            if (!edge.alive)
                continue;
            const int a = groups.groupOf(edge.src);
            const int b = groups.groupOf(edge.dst);
            if (a == b)
                continue;
            if (!ws.edgeSeen.test(a, b)) {
                ws.edgeSeen.set(a, b);
                ws.succ[a].push_back(b);
                ws.pred[b].push_back(a);
                ws.succMask.set(a, b);
                ws.predMask.set(b, a);
            }
            if (edge.distance == 0 && !ws.edgeSeen0.test(a, b)) {
                ws.edgeSeen0.set(a, b);
                ws.pred0[b].push_back(a);
                ws.succ0[a].push_back(b);
                ws.pred0Mask.set(b, a);
            }
        }

        transitiveClosure(ws.succ.rows, n, ws.reach, ws.dfsStack);
        transitiveClosure(ws.succ0.rows, n, ws.reach0, ws.dfsStack);

        // Transpose of reach, for "is v reachable from any of set S"
        // queries (a column of reach is a row of the transpose).
        ws.reachT.reset(n, n);
        for (int s = 0; s < n; ++s) {
            const std::uint64_t *row = ws.reach.row(s);
            for (int w = 0; w < ws.reach.wordsPerRow(); ++w) {
                std::uint64_t bits = row[w];
                while (bits) {
                    const int v = w * 64 + countTrailingZeros(bits);
                    bits &= bits - 1;
                    ws.reachT.set(v, s);
                }
            }
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
    explicit Ordering(HrmsContext &ctx) : ctx_(ctx), ws_(ctx.ws) {}

    const std::vector<int> &
    run()
    {
        const int n = ctx_.n;
        ws_.orderedMask.reset(n);
        ws_.order.clear();
        ws_.order.reserve(std::size_t(n));

        // Recurrences first, most critical first (criticality = RecMII
        // of the component). The SCC decomposition is the shared
        // graph-algo Tarjan over the condensed adjacency; only
        // recurrence components are materialized as vectors.
        const AdjScc scc = stronglyConnectedComponents(ws_.succ.rows, n);
        std::vector<std::pair<long, std::vector<int>>> recurrences;
        for (int c = 0; c < scc.numComps(); ++c) {
            const int *members = scc.compNodes(c);
            if (!scc.cyclic(c))
                continue;
            std::vector<int> comp(members, members + scc.compSize(c));
            std::vector<NodeId> nodes;
            for (const int gi : comp) {
                const auto &grp = ctx_.groups.group(gi);
                nodes.insert(nodes.end(), grp.members.begin(),
                             grp.members.end());
            }
            const long crit = recMiiOfComponent(ctx_.g, ctx_.m, nodes);
            recurrences.emplace_back(crit, std::move(comp));
        }
        std::stable_sort(recurrences.begin(), recurrences.end(),
                         [](const auto &a, const auto &b) {
                             if (a.first != b.first)
                                 return a.first > b.first;
                             return a.second.size() > b.second.size();
                         });

        // Constrain the criticality order to the topological order of
        // zero-distance reachability between components: if comp A has
        // a zero-distance path into comp B, A must be placed first.
        // Otherwise a member of A with a placed zero-distance successor
        // in B faces a fixed gap that no II can widen (carried edges
        // gain slack with II; zero-distance ones never do).
        orderCompsByZeroDistance(recurrences);

        for (const auto &[crit, comp] : recurrences) {
            (void)crit;
            // Membership mask of this recurrence, for the cone tests.
            ws_.setMask.reset(n);
            for (const int gi : comp)
                ws_.setMask.set(gi);
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
    /** Some ordered group reaches v (a column of reach = a row of the
        transpose, intersected with the ordered mask — word-parallel). */
    bool
    reachesFromOrdered(int v) const
    {
        return ws_.reachT.intersects(v, ws_.orderedMask.words());
    }

    /** v reaches some ordered group. */
    bool
    reachesToOrdered(int v) const
    {
        return ws_.reach.intersects(v, ws_.orderedMask.words());
    }

    /** Some member of the current recurrence (setMask) reaches v. */
    bool
    reachableFromSet(int v) const
    {
        return ws_.reachT.intersects(v, ws_.setMask.words());
    }

    /** v reaches some member of the current recurrence (setMask). */
    bool
    reachesIntoSet(int v) const
    {
        return ws_.reach.intersects(v, ws_.setMask.words());
    }

    void
    append(int v)
    {
        ws_.orderedMask.set(v);
        ws_.order.push_back(v);
    }

    /**
     * Stable-topologically reorder recurrence components along
     * zero-distance reachability, keeping criticality order among
     * unrelated components. Always makes progress: a zero-distance
     * cycle between distinct components would be a zero-distance cycle
     * in the graph, which verifyDdg forbids.
     */
    void
    orderCompsByZeroDistance(
        std::vector<std::pair<long, std::vector<int>>> &comps) const
    {
        auto reaches0 = [&](const std::vector<int> &from,
                            const std::vector<int> &to) {
            for (const int a : from) {
                for (const int b : to) {
                    if (ws_.reach0.test(a, b))
                        return true;
                }
            }
            return false;
        };

        std::vector<std::pair<long, std::vector<int>>> ordered;
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
            SWP_ASSERT(pick >= 0,
                       "zero-distance cycle between recurrences");
            taken[std::size_t(pick)] = true;
            ordered.push_back(std::move(comps[std::size_t(pick)]));
        }
        comps = std::move(ordered);
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
                if (!ws_.pred0Mask.intersects(v, ws_.remainMask.words())) {
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
                if (!ws_.predMask.intersects(v, ws_.remainMask.words())) {
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
                if (!ws_.succMask.intersects(v, ws_.remainMask.words())) {
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
    if (!iiFeasibleForRecurrences(g, m, ii, ws_.recurrences))
        return std::nullopt;

    HrmsContext ctx(g, m, ii, ws_);
    if (!groupsInternallyFeasible(g, m, ctx.groups, ii))
        return std::nullopt;

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
    HrmsContext ctx(g, m, ii, ws_);
    Ordering ordering(ctx);
    return ordering.run();
}

} // namespace swp
