#include "recurrence_reference.hh"

#include <vector>

namespace recurrence_ref
{

using namespace swp;

bool
iiFeasibleForRecurrences(const Ddg &g, const Machine &m, int ii)
{
    // Longest-path relaxation from a virtual source joined to every
    // node with weight 0: still changing after n sweeps means a
    // positive cycle.
    const int n = g.numNodes();
    std::vector<long> dist(std::size_t(n), 0);
    for (int iter = 0; iter < n; ++iter) {
        bool changed = false;
        for (EdgeId e = 0; e < g.numEdges(); ++e) {
            const Edge &edge = g.edge(e);
            if (!edge.alive)
                continue;
            const long w =
                m.latency(g.node(edge.src).op) - long(ii) * edge.distance;
            if (dist[std::size_t(edge.src)] + w >
                dist[std::size_t(edge.dst)]) {
                dist[std::size_t(edge.dst)] =
                    dist[std::size_t(edge.src)] + w;
                changed = true;
            }
        }
        if (!changed)
            return true;
    }
    return false;
}

int
recMii(const Ddg &g, const Machine &m)
{
    long hi = 1;
    for (NodeId n = 0; n < g.numNodes(); ++n)
        hi += m.latency(g.node(n).op);
    if (iiFeasibleForRecurrences(g, m, 1))
        return 1;
    long lo = 1;  // infeasible
    while (lo + 1 < hi) {
        const long mid = lo + (hi - lo) / 2;
        if (iiFeasibleForRecurrences(g, m, int(mid)))
            hi = mid;
        else
            lo = mid;
    }
    return int(hi);
}

} // namespace recurrence_ref
