#include "ir/graph_algo.hh"

#include <algorithm>

#include "support/diag.hh"

namespace swp
{

AdjScc
stronglyConnectedComponents(const std::vector<std::vector<int>> &succ,
                            int numNodes)
{
    const int n = numNodes < 0 ? int(succ.size()) : numNodes;
    SWP_ASSERT(std::size_t(n) <= succ.size(),
               "SCC over more nodes than adjacency rows");
    AdjScc result;
    result.compOf.assign(std::size_t(n), -1);
    result.nodes.reserve(std::size_t(n));
    result.compBegin.push_back(0);
    std::vector<int> index(std::size_t(n), -1);
    std::vector<int> lowlink(std::size_t(n), 0);
    std::vector<bool> onStack(std::size_t(n), false);
    std::vector<bool> selfLoop(std::size_t(n), false);
    std::vector<int> stack;
    int nextIndex = 0;

    // Explicit DFS stack of (node, next-successor-cursor) to avoid deep
    // recursion on long dependence chains.
    struct Frame { int n; std::size_t i; };
    std::vector<Frame> frames;
    for (int root = 0; root < n; ++root) {
        if (index[std::size_t(root)] >= 0)
            continue;
        frames.push_back({root, 0});
        index[std::size_t(root)] = lowlink[std::size_t(root)] =
            nextIndex++;
        stack.push_back(root);
        onStack[std::size_t(root)] = true;

        while (!frames.empty()) {
            Frame &f = frames.back();
            const std::vector<int> &succs = succ[std::size_t(f.n)];
            if (f.i < succs.size()) {
                const int w = succs[f.i++];
                if (w == f.n)
                    selfLoop[std::size_t(w)] = true;
                if (index[std::size_t(w)] < 0) {
                    index[std::size_t(w)] = lowlink[std::size_t(w)] =
                        nextIndex++;
                    stack.push_back(w);
                    onStack[std::size_t(w)] = true;
                    frames.push_back({w, 0});
                } else if (onStack[std::size_t(w)]) {
                    lowlink[std::size_t(f.n)] = std::min(
                        lowlink[std::size_t(f.n)], index[std::size_t(w)]);
                }
            } else {
                const int v = f.n;
                frames.pop_back();
                if (!frames.empty()) {
                    const int parent = frames.back().n;
                    lowlink[std::size_t(parent)] = std::min(
                        lowlink[std::size_t(parent)],
                        lowlink[std::size_t(v)]);
                }
                if (lowlink[std::size_t(v)] == index[std::size_t(v)]) {
                    const int comp = int(result.compBegin.size()) - 1;
                    int w;
                    do {
                        w = stack.back();
                        stack.pop_back();
                        onStack[std::size_t(w)] = false;
                        result.compOf[std::size_t(w)] = comp;
                        result.nodes.push_back(w);
                    } while (w != v);
                    result.compBegin.push_back(int(result.nodes.size()));
                    result.cyclicFlag.push_back(
                        result.compSize(comp) > 1 ||
                        selfLoop[std::size_t(v)]);
                }
            }
        }
    }
    return result;
}

std::vector<std::vector<int>>
liveSuccessors(const Ddg &g)
{
    // Size every row first, so the fill below never reallocates.
    std::vector<int> degree(std::size_t(g.numNodes()), 0);
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.alive)
            ++degree[std::size_t(edge.src)];
    }
    std::vector<std::vector<int>> succ(std::size_t(g.numNodes()));
    for (NodeId v = 0; v < g.numNodes(); ++v)
        succ[std::size_t(v)].reserve(std::size_t(degree[std::size_t(v)]));
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.alive)
            succ[std::size_t(edge.src)].push_back(edge.dst);
    }
    return succ;
}

void
transitiveClosure(const std::vector<std::vector<int>> &succ, int n,
                  BitMatrix &out, std::vector<int> &stack)
{
    SWP_ASSERT(n >= 0 && std::size_t(n) <= succ.size(),
               "closure over more nodes than adjacency rows");
    out.reset(n, n);
    for (int s = 0; s < n; ++s) {
        stack.clear();
        stack.push_back(s);
        while (!stack.empty()) {
            const int u = stack.back();
            stack.pop_back();
            for (const int v : succ[std::size_t(u)]) {
                if (!out.test(s, v)) {
                    out.set(s, v);
                    stack.push_back(v);
                }
            }
        }
    }
}

BitMatrix
reachability(const Ddg &g)
{
    BitMatrix reach;
    std::vector<int> stack;
    transitiveClosure(liveSuccessors(g), g.numNodes(), reach, stack);
    return reach;
}

std::vector<NodeId>
topologicalOrderIntraIteration(const Ddg &g)
{
    const int n = g.numNodes();
    std::vector<int> indeg(std::size_t(n), 0);
    for (NodeId u = 0; u < n; ++u) {
        for (EdgeId e : g.outEdges(u)) {
            if (g.edge(e).distance == 0)
                ++indeg[std::size_t(g.edge(e).dst)];
        }
    }
    std::vector<NodeId> ready;
    for (NodeId u = 0; u < n; ++u) {
        if (indeg[std::size_t(u)] == 0)
            ready.push_back(u);
    }
    std::vector<NodeId> order;
    order.reserve(std::size_t(n));
    for (std::size_t i = 0; i < ready.size(); ++i) {
        const NodeId u = ready[i];
        order.push_back(u);
        for (EdgeId e : g.outEdges(u)) {
            if (g.edge(e).distance != 0)
                continue;
            const NodeId v = g.edge(e).dst;
            if (--indeg[std::size_t(v)] == 0)
                ready.push_back(v);
        }
    }
    if (int(order.size()) != n) {
        SWP_FATAL("loop '", g.name(),
                  "' has a zero-distance dependence cycle");
    }
    return order;
}

} // namespace swp
