#include "sched/sched_util.hh"

#include <algorithm>

#include "sched/groups.hh"

namespace swp
{

void
GroupPriorities::compute(const Ddg &g, const Machine &m,
                         const GroupSet &groups, int ii)
{
    const int n = g.numNodes();
    nodeAsap_.assign(std::size_t(n), 0);
    nodeHeight_.assign(std::size_t(n), 0);
    for (int iter = 0; iter < n; ++iter) {
        bool changed = false;
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            const Edge &edge = g.edge(e);
            if (!edge.alive)
                continue;
            const long w = m.latency(g.node(edge.src).op) -
                           long(ii) * edge.distance;
            if (nodeAsap_[std::size_t(edge.src)] + w >
                nodeAsap_[std::size_t(edge.dst)]) {
                nodeAsap_[std::size_t(edge.dst)] =
                    nodeAsap_[std::size_t(edge.src)] + w;
                changed = true;
            }
            if (nodeHeight_[std::size_t(edge.dst)] + w >
                nodeHeight_[std::size_t(edge.src)]) {
                nodeHeight_[std::size_t(edge.src)] =
                    nodeHeight_[std::size_t(edge.dst)] + w;
                changed = true;
            }
        }
        if (!changed)
            break;
    }

    asap.assign(std::size_t(groups.numGroups()), schedNegInf);
    height.assign(std::size_t(groups.numGroups()), schedNegInf);
    for (NodeId v = 0; v < n; ++v) {
        const std::size_t gi = std::size_t(groups.groupOf(v));
        const long off = groups.offsetOf(v);
        asap[gi] = std::max(asap[gi], nodeAsap_[std::size_t(v)] - off);
        height[gi] =
            std::max(height[gi], nodeHeight_[std::size_t(v)] + off);
    }
}

bool
groupsInternallyFeasible(const Ddg &g, const Machine &m,
                         const GroupSet &groups, int ii)
{
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        if (groups.groupOf(edge.src) != groups.groupOf(edge.dst))
            continue;
        // A self-loop has gap 0, so this is its recurrence bound
        // ceil(lat / distance) <= II.
        const int lat = m.latency(g.node(edge.src).op);
        const int gap =
            groups.offsetOf(edge.dst) - groups.offsetOf(edge.src);
        if (gap < lat - ii * edge.distance)
            return false;
        if (edge.nonSpillable && gap != fusedDelayOf(g, m, edge))
            return false;
    }
    return true;
}

} // namespace swp
