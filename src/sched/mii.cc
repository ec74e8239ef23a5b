#include "sched/mii.hh"

#include <algorithm>
#include <vector>

#include "ir/graph_algo.hh"
#include "support/diag.hh"

namespace swp
{

int
resMii(const Ddg &g, const Machine &m)
{
    // Total unit occupancy per class.
    std::vector<long> occupancy(std::size_t(m.numClasses()), 0);
    int maxSingleOccupancy = 1;
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        const Opcode op = g.node(n).op;
        occupancy[std::size_t(m.classOf(op))] += m.occupancy(op);
        // A non-pipelined op re-needs its unit after II cycles, so the
        // pattern only fits if II >= occupancy.
        maxSingleOccupancy = std::max(maxSingleOccupancy, m.occupancy(op));
    }

    long bound = 1;
    for (int cls = 0; cls < m.numClasses(); ++cls) {
        const long units = m.unitsInClass(cls);
        if (occupancy[std::size_t(cls)] == 0)
            continue;
        SWP_ASSERT(units > 0, "ops of class ", m.className(cls),
                   " but machine has no such unit");
        bound = std::max(bound,
                         (occupancy[std::size_t(cls)] + units - 1) / units);
    }
    return int(std::max<long>(bound, maxSingleOccupancy));
}

namespace
{

/**
 * One cyclic region (an SCC with a cycle, or an explicit node subset)
 * with its internal live edges renumbered to local indices: the whole
 * RecMII computation for the region touches only these edges, so one
 * Bellman-Ford sweep costs O(region) instead of O(graph).
 */
struct CyclicRegion
{
    struct LocalEdge
    {
        int src = 0;
        int dst = 0;
        long latency = 0;
        long distance = 0;
    };

    int numNodes = 0;
    std::vector<LocalEdge> edges;
    /** Sum of member latencies: RecMII of the region is below this, so
        latencySum + 1 is always a feasible II for it. */
    long latencySum = 0;
};

/**
 * Bellman-Ford positive-cycle detection restricted to one region, with
 * edge weight latency - II * distance (longest-path relaxation from a
 * virtual source connected to every member with weight 0). A positive
 * cycle exists iff some dependence cycle of the region needs more than
 * II cycles per iteration.
 */
bool
hasPositiveCycle(const CyclicRegion &r, long ii, std::vector<long> &dist)
{
    dist.assign(std::size_t(r.numNodes), 0);
    for (int iter = 0; iter < r.numNodes; ++iter) {
        bool changed = false;
        for (const CyclicRegion::LocalEdge &e : r.edges) {
            const long w = e.latency - ii * e.distance;
            if (dist[std::size_t(e.src)] + w > dist[std::size_t(e.dst)]) {
                dist[std::size_t(e.dst)] = dist[std::size_t(e.src)] + w;
                changed = true;
            }
        }
        if (!changed)
            return false;
    }
    return true;
}

/**
 * Smallest II at which the region admits no positive cycle, given that
 * `lo` does admit one (binary search; `lo` is infeasible throughout).
 */
long
searchRegionRecMii(const CyclicRegion &r, long lo, std::vector<long> &dist)
{
    long hi = r.latencySum + 1;
    while (lo + 1 < hi) {
        const long mid = lo + (hi - lo) / 2;
        if (hasPositiveCycle(r, mid, dist))
            lo = mid;
        else
            hi = mid;
    }
    return hi;
}

/**
 * Decompose the graph into its cyclic SCCs over live edges. Every
 * dependence cycle lies inside exactly one of the returned regions, so
 * RecMII questions decompose into per-region questions.
 */
std::vector<CyclicRegion>
cyclicRegions(const Ddg &g, const Machine &m)
{
    const AdjScc scc = stronglyConnectedComponents(liveSuccessors(g));

    std::vector<int> regionOf(std::size_t(scc.numComps()), -1);
    std::vector<int> localId(std::size_t(g.numNodes()), -1);
    std::vector<CyclicRegion> regions;
    for (int c = 0; c < scc.numComps(); ++c) {
        if (!scc.cyclic(c))
            continue;
        regionOf[std::size_t(c)] = int(regions.size());
        regions.emplace_back();
        CyclicRegion &r = regions.back();
        const int *members = scc.compNodes(c);
        for (int i = 0; i < scc.compSize(c); ++i) {
            const int v = members[i];
            localId[std::size_t(v)] = r.numNodes++;
            r.latencySum += m.latency(g.node(v).op);
        }
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        const int c = scc.compOf[std::size_t(edge.src)];
        if (c != scc.compOf[std::size_t(edge.dst)] ||
            regionOf[std::size_t(c)] < 0) {
            continue;
        }
        regions[std::size_t(regionOf[std::size_t(c)])].edges.push_back(
            {localId[std::size_t(edge.src)], localId[std::size_t(edge.dst)],
             m.latency(g.node(edge.src).op), long(edge.distance)});
    }
    return regions;
}

/** One region over an explicit node subset (its internal live edges). */
CyclicRegion
subsetRegion(const Ddg &g, const Machine &m,
             const std::vector<NodeId> &nodes)
{
    std::vector<int> localId(std::size_t(g.numNodes()), -1);
    CyclicRegion r;
    for (const NodeId v : nodes) {
        if (localId[std::size_t(v)] >= 0)
            continue;
        localId[std::size_t(v)] = r.numNodes++;
        r.latencySum += m.latency(g.node(v).op);
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive || localId[std::size_t(edge.src)] < 0 ||
            localId[std::size_t(edge.dst)] < 0) {
            continue;
        }
        r.edges.push_back(
            {localId[std::size_t(edge.src)], localId[std::size_t(edge.dst)],
             m.latency(g.node(edge.src).op), long(edge.distance)});
    }
    return r;
}

} // namespace

int
recMii(const Ddg &g, const Machine &m)
{
    // RecMII = max over cyclic SCCs of the component's RecMII. Each
    // component binary-searches independently over component-local
    // edges, and a component whose cycles already fit the best bound so
    // far is dismissed with a single feasibility check (early exit)
    // instead of a full search.
    std::vector<long> dist;
    long best = 1;
    for (const CyclicRegion &r : cyclicRegions(g, m)) {
        if (!hasPositiveCycle(r, best, dist))
            continue;
        best = searchRegionRecMii(r, best, dist);
    }
    return int(best);
}

int
recMiiOfComponent(const Ddg &g, const Machine &m,
                  const std::vector<NodeId> &nodes)
{
    const CyclicRegion r = subsetRegion(g, m, nodes);
    std::vector<long> dist;
    if (!hasPositiveCycle(r, 1, dist))
        return 1;
    return int(searchRegionRecMii(r, 1, dist));
}

int
mii(const Ddg &g, const Machine &m)
{
    return std::max(resMii(g, m), recMii(g, m));
}

} // namespace swp
