/**
 * @file
 * Graph structure over the DDG and over plain adjacency lists: strongly
 * connected components, transitive closure, and the intra-iteration
 * topological order. This is the one place that computes which nodes
 * reach which; RecMII, the HRMS pre-ordering and the suite generator
 * all read it from here.
 */

#ifndef SWP_IR_GRAPH_ALGO_HH
#define SWP_IR_GRAPH_ALGO_HH

#include <vector>

#include "ir/ddg.hh"
#include "support/bitmatrix.hh"

namespace swp
{

/**
 * Strongly connected components of a plain adjacency list (successor
 * lists; parallel edges and self-loops allowed). This is the one Tarjan
 * implementation in the library — RecMII's cyclic regions and the
 * schedulers' condensed group graphs all decompose through it.
 */
struct AdjScc
{
    /** Component index per node, in reverse topological discovery order:
        an edge between distinct components a -> b has compOf[b] <
        compOf[a]. */
    std::vector<int> compOf;
    /** All nodes grouped by component (flat storage: Tarjan emits each
        component contiguously, so no per-component vector is needed). */
    std::vector<int> nodes;
    /** Offsets into nodes; component c is [compBegin[c], compBegin[c+1]). */
    std::vector<int> compBegin;
    /** Per component: some cycle runs through it (more than one node, or
        a self-loop). */
    std::vector<char> cyclicFlag;

    int numComps() const { return int(compBegin.size()) - 1; }
    int compSize(int c) const
    {
        return compBegin[std::size_t(c) + 1] - compBegin[std::size_t(c)];
    }
    const int *compNodes(int c) const
    {
        return nodes.data() + compBegin[std::size_t(c)];
    }
    /** True if component c is a recurrence (a cycle runs through it). */
    bool cyclic(int c) const { return cyclicFlag[std::size_t(c)] != 0; }
};

/**
 * Iterative Tarjan over an adjacency list. numNodes < 0 means all of
 * succ; a smaller count restricts the run to the first numNodes rows
 * (reusable workspace adjacency may keep spare rows beyond the graph).
 */
AdjScc stronglyConnectedComponents(const std::vector<std::vector<int>> &succ,
                                   int numNodes = -1);

/** Successor lists of the DDG over live edges, in edge-id order. */
std::vector<std::vector<int>> liveSuccessors(const Ddg &g);

/**
 * Transitive closure of the first n rows of succ into out (n x n):
 * out(s, v) = some non-empty path leads from s to v, so s reaches itself
 * only when it lies on a cycle. One DFS per source over word-packed
 * rows; `stack` is caller-owned scratch, so a workspace that closes a
 * graph per probe reuses both buffers.
 */
void transitiveClosure(const std::vector<std::vector<int>> &succ, int n,
                       BitMatrix &out, std::vector<int> &stack);

/** Reachability over live edges: test(u, v) = u reaches v. */
BitMatrix reachability(const Ddg &g);

/**
 * Topological order of the loop-independent subgraph: only edges with
 * distance zero are honoured. Single-iteration semantics require this
 * order to exist; verifyDdg() checks it.
 */
std::vector<NodeId> topologicalOrderIntraIteration(const Ddg &g);

} // namespace swp

#endif // SWP_IR_GRAPH_ALGO_HH
