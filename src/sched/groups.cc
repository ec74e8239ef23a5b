#include "sched/groups.hh"

#include <algorithm>

#include "support/diag.hh"

namespace swp
{

int
fusedDelayOf(const Ddg &g, const Machine &m, const Edge &edge)
{
    return edge.fusedDelay > 0 ? edge.fusedDelay
                               : m.latency(g.node(edge.src).op);
}

void
GroupSet::reset(const Ddg &g, const Machine &m)
{
    const int n = g.numNodes();
    groupOf_.assign(std::size_t(n), -1);
    offsetOf_.assign(std::size_t(n), 0);

    // Union-find over fused edges.
    parent_.resize(std::size_t(n));
    for (int i = 0; i < n; ++i)
        parent_[std::size_t(i)] = i;
    auto find = [&](int x) {
        while (parent_[std::size_t(x)] != x) {
            parent_[std::size_t(x)] =
                parent_[std::size_t(parent_[std::size_t(x)])];
            x = parent_[std::size_t(x)];
        }
        return x;
    };

    fused_.clear();
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.alive && edge.nonSpillable) {
            fused_.push_back(e);
            const int a = find(edge.src);
            const int b = find(edge.dst);
            if (a != b)
                parent_[std::size_t(a)] = b;
        }
    }

    // Gather members per root; recycled group slots keep the capacity
    // of their member/offset vectors.
    rootGroup_.assign(std::size_t(n), -1);
    numGroups_ = 0;
    for (NodeId v = 0; v < n; ++v) {
        const int r = find(v);
        if (rootGroup_[std::size_t(r)] < 0) {
            rootGroup_[std::size_t(r)] = numGroups_;
            if (numGroups_ == int(groups_.size()))
                groups_.emplace_back();
            groups_[std::size_t(numGroups_)].members.clear();
            groups_[std::size_t(numGroups_)].offsets.clear();
            ++numGroups_;
        }
        const int gi = rootGroup_[std::size_t(r)];
        groupOf_[std::size_t(v)] = gi;
        groups_[std::size_t(gi)].members.push_back(v);
    }

    // Fused edges per endpoint, so the offset BFS below visits each
    // fused edge once from either side: linear in the fused edges.
    fusedBegin_.assign(std::size_t(n) + 1, 0);
    for (const EdgeId e : fused_) {
        ++fusedBegin_[std::size_t(g.edge(e).src) + 1];
        ++fusedBegin_[std::size_t(g.edge(e).dst) + 1];
    }
    for (int v = 0; v < n; ++v)
        fusedBegin_[std::size_t(v) + 1] += fusedBegin_[std::size_t(v)];
    fusedFill_.assign(fusedBegin_.begin(), fusedBegin_.end() - 1);
    fusedAdj_.resize(2 * fused_.size());
    for (const EdgeId e : fused_) {
        fusedAdj_[std::size_t(fusedFill_[std::size_t(g.edge(e).src)]++)] = e;
        fusedAdj_[std::size_t(fusedFill_[std::size_t(g.edge(e).dst)]++)] = e;
    }

    // Solve offsets inside each group by propagating fused-edge
    // constraints offset(dst) = offset(src) + latency(src).
    known_.assign(std::size_t(n), 0);
    auto &known = known_;
    for (int gii = 0; gii < numGroups_; ++gii) {
        ComplexGroup &grp = groups_[std::size_t(gii)];
        if (grp.members.size() == 1) {
            grp.offsets.assign(1, 0);
            known[std::size_t(grp.members[0])] = true;
            continue;
        }
        // BFS from the first member.
        offsetOf_[std::size_t(grp.members[0])] = 0;
        known[std::size_t(grp.members[0])] = true;
        frontier_.assign(1, grp.members[0]);
        while (!frontier_.empty()) {
            next_.clear();
            for (const NodeId v : frontier_) {
                for (int i = fusedBegin_[std::size_t(v)];
                     i < fusedBegin_[std::size_t(v) + 1]; ++i) {
                    const Edge &edge = g.edge(fusedAdj_[std::size_t(i)]);
                    const int lat = fusedDelayOf(g, m, edge);
                    // The edge's other endpoint and the offset it implies.
                    const bool forward = edge.src == v;
                    const NodeId w = forward ? edge.dst : edge.src;
                    const int off =
                        offsetOf_[std::size_t(v)] + (forward ? lat : -lat);
                    if (!known[std::size_t(w)]) {
                        known[std::size_t(w)] = true;
                        offsetOf_[std::size_t(w)] = off;
                        next_.push_back(w);
                    } else {
                        SWP_ASSERT(offsetOf_[std::size_t(w)] == off,
                                   "inconsistent fused offsets at node ",
                                   g.node(w).name);
                    }
                }
            }
            std::swap(frontier_, next_);
        }

        // Normalize: smallest offset becomes 0; sort members by offset.
        int lo = INT32_MAX;
        for (NodeId v : grp.members) {
            SWP_ASSERT(known[std::size_t(v)],
                       "fused group member unreached: ", g.node(v).name);
            lo = std::min(lo, offsetOf_[std::size_t(v)]);
        }
        for (NodeId v : grp.members)
            offsetOf_[std::size_t(v)] -= lo;
        std::sort(grp.members.begin(), grp.members.end(),
                  [&](NodeId a, NodeId b) {
                      if (offsetOf_[std::size_t(a)] !=
                          offsetOf_[std::size_t(b)]) {
                          return offsetOf_[std::size_t(a)] <
                                 offsetOf_[std::size_t(b)];
                      }
                      return a < b;
                  });
        grp.offsets.clear();
        for (NodeId v : grp.members)
            grp.offsets.push_back(offsetOf_[std::size_t(v)]);
    }
}

} // namespace swp
