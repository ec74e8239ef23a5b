#include "sched/acyclic.hh"

#include <algorithm>
#include <vector>

#include "sched/groups.hh"
#include "support/bitmatrix.hh"
#include "support/diag.hh"

namespace swp
{

namespace
{

/** Reservation table over a linear (non-modulo) horizon. */
class LinearRt
{
  public:
    LinearRt(const Machine &m, int horizon) : m_(m), horizon_(horizon)
    {
        int maxUnits = 0;
        for (int cls = 0; cls < m.numClasses(); ++cls)
            maxUnits = std::max(maxUnits, m.unitsInClass(cls));
        busy_.reset(m.numClasses(), maxUnits * horizon);
    }

    /** Find a unit free at [t, t+occ) for op, or -1. */
    int
    findUnit(Opcode op, int t) const
    {
        const int cls = m_.classOf(op);
        const int units = m_.unitsInClass(cls);
        const int occ = m_.occupancy(op);
        if (t < 0 || t + occ > horizon_)
            return -1;
        for (int u = 0; u < units; ++u) {
            bool free = true;
            for (int c = 0; c < occ && free; ++c)
                free = !busy_.test(cls, idx(u, t + c));
            if (free)
                return u;
        }
        return -1;
    }

    void reserve(Opcode op, int t, int u) { mark(op, t, u, true); }

    /** Undo reserve(op, t, u). */
    void release(Opcode op, int t, int u) { mark(op, t, u, false); }

  private:
    void
    mark(Opcode op, int t, int u, bool busy)
    {
        const int cls = m_.classOf(op);
        const int occ = m_.occupancy(op);
        for (int c = 0; c < occ; ++c) {
            if (busy)
                busy_.set(cls, idx(u, t + c));
            else
                busy_.clear(cls, idx(u, t + c));
        }
    }

    int idx(int unit, int t) const { return unit * horizon_ + t; }

    const Machine &m_;
    int horizon_;
    /** One row per unit class; column idx(unit, t). */
    BitMatrix busy_;
};

} // namespace

Schedule
scheduleAcyclic(const Ddg &g, const Machine &m)
{
    const int n = g.numNodes();
    SWP_ASSERT(n > 0, "cannot schedule an empty loop");

    // Horizon: everything serialized, with slack for fused staggering.
    int horizon = 8;
    for (NodeId v = 0; v < n; ++v) {
        horizon += 2 * std::max(m.latency(g.node(v).op),
                                m.occupancy(g.node(v).op));
    }

    // Complex groups are placed atomically, so the list scheduling
    // works on groups, in a topological order of the intra-iteration
    // (distance 0) dependences between groups.
    const GroupSet groups(g, m);
    const int ng = groups.numGroups();

    std::vector<int> indeg(std::size_t(ng), 0);
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive || edge.distance != 0)
            continue;
        const int a = groups.groupOf(edge.src);
        const int b = groups.groupOf(edge.dst);
        if (a != b)
            ++indeg[std::size_t(b)];
    }
    std::vector<int> ready;
    for (int gi = 0; gi < ng; ++gi) {
        if (indeg[std::size_t(gi)] == 0)
            ready.push_back(gi);
    }

    LinearRt rt(m, horizon);
    std::vector<int> time(std::size_t(n), -1);
    std::vector<int> unit(std::size_t(n), -1);

    std::size_t cursor = 0;
    int scheduledGroups = 0;
    while (cursor < ready.size()) {
        const int gi = ready[cursor++];
        const ComplexGroup &grp = groups.group(gi);

        // Earliest anchor satisfying the distance-0 dependences from
        // outside the group.
        int earliest = 0;
        for (std::size_t i = 0; i < grp.members.size(); ++i) {
            const NodeId v = grp.members[i];
            for (EdgeId e : g.inEdges(v)) {
                const Edge &edge = g.edge(e);
                if (edge.distance != 0 ||
                    groups.groupOf(edge.src) == gi) {
                    continue;
                }
                const int bound = time[std::size_t(edge.src)] +
                                  m.latency(g.node(edge.src).op) -
                                  grp.offsets[i];
                earliest = std::max(earliest, bound);
            }
        }

        // First anchor where every member fits. Members may compete for
        // the same units, so each is reserved as it fits; on a failed
        // anchor the cells reserved so far, all free before, are
        // released again, which restores the table exactly.
        bool placed = false;
        for (int t0 = earliest; t0 < horizon && !placed; ++t0) {
            std::size_t fitted = 0;
            for (; fitted < grp.members.size(); ++fitted) {
                const NodeId v = grp.members[fitted];
                const Opcode op = g.node(v).op;
                const int t = t0 + grp.offsets[fitted];
                const int u = rt.findUnit(op, t);
                if (u < 0)
                    break;
                rt.reserve(op, t, u);
                time[std::size_t(v)] = t;
                unit[std::size_t(v)] = u;
            }
            placed = fitted == grp.members.size();
            for (std::size_t i = 0; !placed && i < fitted; ++i) {
                const NodeId v = grp.members[i];
                rt.release(g.node(v).op, time[std::size_t(v)],
                           unit[std::size_t(v)]);
            }
        }
        SWP_ASSERT(placed, "acyclic scheduler exceeded its horizon on ",
                   g.name());
        ++scheduledGroups;

        for (std::size_t i = 0; i < grp.members.size(); ++i) {
            for (EdgeId e : g.outEdges(grp.members[i])) {
                const Edge &edge = g.edge(e);
                if (edge.distance != 0)
                    continue;
                const int b = groups.groupOf(edge.dst);
                if (b != gi && --indeg[std::size_t(b)] == 0)
                    ready.push_back(b);
            }
        }
    }
    SWP_ASSERT(scheduledGroups == ng,
               "distance-0 cycle across groups in ", g.name());

    // II = makespan: results of iteration i are complete before
    // iteration i+1 issues anything, so every loop-carried dependence
    // and every resource constraint is satisfied with stage count 1.
    int makespan = 1;
    for (NodeId v = 0; v < n; ++v) {
        makespan = std::max(makespan,
                            time[std::size_t(v)] +
                                std::max(m.latency(g.node(v).op),
                                         m.occupancy(g.node(v).op)));
    }

    Schedule sched(makespan, n);
    for (NodeId v = 0; v < n; ++v)
        sched.set(v, time[std::size_t(v)], unit[std::size_t(v)]);

    std::string why;
    SWP_ASSERT(validateSchedule(g, m, sched, &why),
               "acyclic scheduler produced an invalid schedule: ", why);
    return sched;
}

} // namespace swp
