/**
 * @file
 * Tests for the DDG representation, builder, graph algorithms and the
 * structural verifier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ir/builder.hh"
#include "ir/graph_algo.hh"
#include "ir/verify.hh"
#include "support/diag.hh"
#include "support/rng.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

TEST(Ddg, BuildsPaperExampleShape)
{
    const Ddg g = buildPaperExampleLoop();
    EXPECT_EQ(g.numNodes(), 4);
    EXPECT_EQ(g.numEdges(), 4);
    EXPECT_EQ(g.numInvariants(), 1);
    EXPECT_EQ(g.numMemOps(), 2);

    // Ld has two uses, one of them loop carried at distance 3.
    const auto uses = g.valueUses(0);
    ASSERT_EQ(uses.size(), 2u);
    int carried = 0;
    for (EdgeId e : uses)
        carried += g.edge(e).distance;
    EXPECT_EQ(carried, 3);
}

TEST(Ddg, KillEdgeHidesItEverywhere)
{
    DdgBuilder b("kill");
    const NodeId ld = b.load();
    const NodeId st = b.store();
    const EdgeId e = b.flow(ld, st);
    Ddg g = b.take();

    EXPECT_EQ(g.outEdges(ld).size(), 1u);
    g.killEdge(e);
    EXPECT_TRUE(g.outEdges(ld).empty());
    EXPECT_TRUE(g.inEdges(st).empty());
    EXPECT_EQ(g.numValueUses(ld), 0);
}

TEST(Ddg, CopyIsSharedUntilMutation)
{
    const Ddg a = buildPaperExampleLoop();
    Ddg b = a;
    EXPECT_TRUE(b.sharesStorageWith(a));

    // Const queries never detach.
    EXPECT_EQ(b.numNodes(), a.numNodes());
    EXPECT_EQ(b.outEdges(0).size(), a.outEdges(0).size());
    EXPECT_EQ(b.dump(), a.dump());
    EXPECT_TRUE(b.sharesStorageWith(a));

    // The first mutation detaches the copy.
    b.node(0).name = "renamed";
    EXPECT_FALSE(b.sharesStorageWith(a));
    EXPECT_NE(a.node(0).name, "renamed");
}

TEST(Ddg, MutatingADetachedCopyNeverPerturbsTheOriginal)
{
    const Ddg a = buildPaperExampleLoop();
    const std::string before = a.dump();

    Ddg b = a;
    const NodeId extra = b.addNode(Opcode::Add, "extra");
    b.addEdge(0, extra, DepKind::RegFlow, 1);
    b.killEdge(0);
    b.invariant(0).spilled = true;
    b.setName("mutant");

    EXPECT_EQ(a.dump(), before) << "original aliased by a detached copy";
    EXPECT_NE(b.dump(), before);
    EXPECT_EQ(a.numNodes() + 1, b.numNodes());

    // References into the original's storage survive the copy's whole
    // mutation history.
    const Node &n0 = a.node(0);
    EXPECT_EQ(n0.op, buildPaperExampleLoop().node(0).op);
}

TEST(Ddg, MutatingTheOriginalLeavesTheCopyIntact)
{
    Ddg a = buildPaperExampleLoop();
    const Ddg b = a;
    const std::string before = b.dump();

    a.killEdge(0);
    a.addNode(Opcode::Mul);

    EXPECT_FALSE(b.sharesStorageWith(a));
    EXPECT_EQ(b.dump(), before) << "copy aliased by the mutated source";
}

TEST(Ddg, MovedFromGraphIsValidAndEmpty)
{
    Ddg a = buildPaperExampleLoop();
    const Ddg b = std::move(a);
    EXPECT_EQ(a.numNodes(), 0);
    EXPECT_EQ(a.numEdges(), 0);
    EXPECT_EQ(a.numInvariants(), 0);
    EXPECT_GT(b.numNodes(), 0);

    // A moved-from graph is reusable.
    a.addNode(Opcode::Add);
    EXPECT_EQ(a.numNodes(), 1);

    Ddg c("c");
    c = std::move(a);
    EXPECT_EQ(c.numNodes(), 1);
    EXPECT_EQ(a.numNodes(), 0);
}

TEST(Ddg, UniquelyOwnedGraphMutatesInPlace)
{
    Ddg g = buildPaperExampleLoop();
    {
        const Ddg copy = g;
        EXPECT_TRUE(copy.sharesStorageWith(g));
    }
    // The only other handle is gone: mutation must not clone. Observe
    // via a self-copy taken before the write — after the scope above,
    // use_count is back to one, so the write happens in place and a
    // fresh copy shares again.
    g.node(0).name = "inplace";
    const Ddg after = g;
    EXPECT_TRUE(after.sharesStorageWith(g));
    EXPECT_EQ(after.node(0).name, "inplace");
}

TEST(Ddg, RegFlowFromStoreIsRejected)
{
    DdgBuilder b("bad");
    const NodeId st = b.store();
    const NodeId add = b.add();
    EXPECT_THROW(b.graph().addEdge(st, add, DepKind::RegFlow),
                 PanicError);
}

TEST(Ddg, InvariantBookkeeping)
{
    DdgBuilder b("inv");
    const NodeId m1 = b.mul();
    const NodeId m2 = b.mul();
    const InvId a = b.invariant("a", {m1, m2});
    const Ddg &g = b.graph();
    EXPECT_EQ(g.invariant(a).consumers.size(), 2u);
    EXPECT_EQ(g.node(m1).invariantUses.size(), 1u);
    EXPECT_EQ(g.numLiveInvariants(), 1);
}

TEST(GraphAlgo, SccFindsRecurrence)
{
    DdgBuilder b("rec");
    const NodeId a = b.add("a");
    const NodeId c = b.add("c");
    const NodeId d = b.add("d");
    b.flow(a, c);
    b.flow(c, d);
    b.flow(d, a, 1);  // Closes the cycle with distance 1.
    const Ddg g = b.take();

    const AdjScc scc = stronglyConnectedComponents(liveSuccessors(g));
    EXPECT_EQ(scc.numComps(), 1);
    EXPECT_TRUE(scc.cyclic(0));
}

TEST(GraphAlgo, SelfEdgeIsARecurrence)
{
    DdgBuilder b("self");
    const NodeId a = b.add("a");
    const NodeId c = b.add("c");
    b.flow(a, a, 2);
    b.flow(a, c);
    const Ddg g = b.take();
    const AdjScc scc = stronglyConnectedComponents(liveSuccessors(g));
    ASSERT_EQ(scc.numComps(), 2);
    EXPECT_TRUE(scc.cyclic(scc.compOf[std::size_t(a)]));
    EXPECT_FALSE(scc.cyclic(scc.compOf[std::size_t(c)]));
}

/** Live successor lists read through Ddg::outEdges — kept apart from
    liveSuccessors() so the checks below do not trust it. */
std::vector<std::vector<int>>
refSuccessors(const Ddg &g)
{
    std::vector<std::vector<int>> succ(std::size_t(g.numNodes()));
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        for (EdgeId e : g.outEdges(u))
            succ[std::size_t(u)].push_back(g.edge(e).dst);
    }
    return succ;
}

/** Test-local reachability by DFS over the first n rows of succ (u
    itself only when on a cycle) — the reference the SCC and closure
    properties are checked against. */
std::vector<std::vector<bool>>
refReachability(const std::vector<std::vector<int>> &succ, int n)
{
    std::vector<std::vector<bool>> reach(
        std::size_t(n), std::vector<bool>(std::size_t(n), false));
    for (int s = 0; s < n; ++s) {
        std::vector<int> stack = {s};
        while (!stack.empty()) {
            const int u = stack.back();
            stack.pop_back();
            for (const int v : succ[std::size_t(u)]) {
                if (!reach[std::size_t(s)][std::size_t(v)]) {
                    reach[std::size_t(s)][std::size_t(v)] = true;
                    stack.push_back(v);
                }
            }
        }
    }
    return reach;
}

/**
 * The SCC properties against a reference reachability: the result is a
 * partition (every node in exactly one component, matching compOf),
 * components are exactly the mutual-reachability classes (so they are
 * maximal), cyclic(c) holds iff a member reaches itself, and the
 * emission order is reverse topological.
 */
void
checkSccProperties(const AdjScc &scc,
                   const std::vector<std::vector<int>> &succ, int n,
                   const std::vector<std::vector<bool>> &reach)
{
    ASSERT_EQ(int(scc.compOf.size()), n);
    ASSERT_EQ(int(scc.cyclicFlag.size()), scc.numComps());

    // Partition: each node appears exactly once, where compOf says.
    std::vector<int> seen(std::size_t(n), 0);
    for (int c = 0; c < scc.numComps(); ++c) {
        ASSERT_GT(scc.compSize(c), 0);
        for (int i = 0; i < scc.compSize(c); ++i) {
            const int v = scc.compNodes(c)[i];
            ++seen[std::size_t(v)];
            ASSERT_EQ(scc.compOf[std::size_t(v)], c);
        }
    }
    for (int v = 0; v < n; ++v)
        ASSERT_EQ(seen[std::size_t(v)], 1) << "node " << v;

    // Components = mutual reachability classes (maximality: two
    // mutually reachable nodes are never split across components).
    for (int u = 0; u < n; ++u) {
        for (int v = 0; v < n; ++v) {
            const bool sameComp =
                scc.compOf[std::size_t(u)] == scc.compOf[std::size_t(v)];
            const bool mutual =
                u == v || (reach[std::size_t(u)][std::size_t(v)] &&
                           reach[std::size_t(v)][std::size_t(u)]);
            ASSERT_EQ(sameComp, mutual) << "nodes " << u << ", " << v;
        }
    }

    // cyclic(c) == some member lies on a cycle.
    for (int c = 0; c < scc.numComps(); ++c) {
        const int v = scc.compNodes(c)[0];
        ASSERT_EQ(scc.cyclic(c), bool(reach[std::size_t(v)][std::size_t(v)]))
            << "component " << c;
    }

    // Reverse topological emission: an edge between distinct
    // components points to the lower component index.
    for (int u = 0; u < n; ++u) {
        for (const int v : succ[std::size_t(u)]) {
            const int cs = scc.compOf[std::size_t(u)];
            const int cd = scc.compOf[std::size_t(v)];
            if (cs != cd) {
                ASSERT_LT(cd, cs);
            }
        }
    }
}

TEST(GraphAlgo, SccPartitionIsAPermutationAndComponentsAreMaximal)
{
    // Property test over the pinned-seed generated suite, with the DDG
    // adjacency and reachability both checked against the references.
    SuiteParams params;
    params.numLoops = 40;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    for (const SuiteLoop &loop : suite) {
        SCOPED_TRACE(loop.graph.name());
        const Ddg &g = loop.graph;
        const int n = g.numNodes();
        const std::vector<std::vector<int>> succ = liveSuccessors(g);
        // Same successor multiset per node (row order is not promised).
        std::vector<std::vector<int>> sorted = succ;
        std::vector<std::vector<int>> expected = refSuccessors(g);
        for (NodeId u = 0; u < n; ++u) {
            std::sort(sorted[std::size_t(u)].begin(),
                      sorted[std::size_t(u)].end());
            std::sort(expected[std::size_t(u)].begin(),
                      expected[std::size_t(u)].end());
        }
        ASSERT_EQ(sorted, expected);
        const auto reach = refReachability(succ, n);
        checkSccProperties(stronglyConnectedComponents(succ), succ, n,
                           reach);

        const BitMatrix closure = reachability(g);
        ASSERT_EQ(closure.rows(), n);
        ASSERT_EQ(closure.cols(), n);
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                ASSERT_EQ(closure.test(u, v),
                          bool(reach[std::size_t(u)][std::size_t(v)]))
                    << u << " -> " << v;
            }
        }
    }
}

TEST(GraphAlgo, ClosureAndSccMatchReferenceOnRandomAdjacency)
{
    // Seeded random adjacency lists with self-loops, parallel edges and
    // spare rows beyond n (as reused workspace adjacency keeps): the
    // word-packed closure must equal the reference DFS bit for bit, and
    // the SCC cyclic flags must equal the closure's diagonal. Sizes
    // cross the 64-column word boundary, and the closure buffers are
    // reused across graphs, as a scheduling workspace reuses them.
    Rng rng(0x5eedC105u);
    BitMatrix closure;
    std::vector<int> stack;
    for (int trial = 0; trial < 300; ++trial) {
        const int n = rng.range(0, 150);
        const int spare = rng.range(0, 3);
        std::vector<std::vector<int>> succ(std::size_t(n + spare));
        for (int u = 0; u < n + spare; ++u) {
            const int degree = rng.range(0, 3);
            for (int k = 0; k < degree; ++k) {
                int v = rng.range(0, n + spare - 1);
                if (u < n) {
                    // Rows inside the graph point inside it; self-loops
                    // and repeated successors are drawn on purpose.
                    v = rng.chance(0.1) ? u : v % n;
                }
                succ[std::size_t(u)].push_back(v);
                if (rng.chance(0.15))
                    succ[std::size_t(u)].push_back(v);
            }
        }
        SCOPED_TRACE("trial " + std::to_string(trial) + ", n " +
                     std::to_string(n));
        const auto reach = refReachability(succ, n);

        transitiveClosure(succ, n, closure, stack);
        ASSERT_EQ(closure.rows(), n);
        ASSERT_EQ(closure.cols(), n);
        for (int u = 0; u < n; ++u) {
            for (int v = 0; v < n; ++v) {
                ASSERT_EQ(closure.test(u, v),
                          bool(reach[std::size_t(u)][std::size_t(v)]))
                    << u << " -> " << v;
            }
        }

        const AdjScc scc = stronglyConnectedComponents(succ, n);
        checkSccProperties(scc, succ, n, reach);
        for (int c = 0; c < scc.numComps(); ++c) {
            for (int i = 0; i < scc.compSize(c); ++i) {
                const int v = scc.compNodes(c)[i];
                ASSERT_EQ(scc.cyclic(c), closure.test(v, v)) << "node " << v;
            }
        }
    }
}

TEST(GraphAlgo, TopologicalOrderRespectsDag)
{
    const Ddg g = buildPaperExampleLoop();
    const auto order = topologicalOrderIntraIteration(g);
    ASSERT_EQ(order.size(), 4u);
    std::vector<int> pos(4);
    for (int i = 0; i < 4; ++i)
        pos[std::size_t(order[std::size_t(i)])] = i;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        if (g.edge(e).distance == 0) {
            EXPECT_LT(pos[std::size_t(g.edge(e).src)],
                      pos[std::size_t(g.edge(e).dst)]);
        }
    }
}

TEST(GraphAlgo, ZeroDistanceCycleIsFatal)
{
    DdgBuilder b("cycle");
    const NodeId a = b.add("a");
    const NodeId c = b.add("c");
    b.flow(a, c);
    b.flow(c, a);  // Distance 0 cycle: not executable.
    const Ddg g = b.take();
    EXPECT_THROW(topologicalOrderIntraIteration(g), FatalError);
    std::string why;
    EXPECT_FALSE(verifyDdg(g, &why));
    EXPECT_NE(why.find("cycle"), std::string::npos);
}

TEST(GraphAlgo, ReachabilityThroughSccAndBeyond)
{
    //  a -> b <-> c -> d   (b,c recurrence)
    DdgBuilder bld("reach");
    const NodeId a = bld.add("a");
    const NodeId b = bld.add("b");
    const NodeId c = bld.add("c");
    const NodeId d = bld.add("d");
    bld.flow(a, b);
    bld.flow(b, c);
    bld.flow(c, b, 1);
    bld.flow(c, d);
    const Ddg g = bld.take();

    const BitMatrix reach = reachability(g);
    EXPECT_TRUE(reach.test(a, d));
    EXPECT_TRUE(reach.test(a, b));
    EXPECT_TRUE(reach.test(b, b));  // Via the cycle.
    EXPECT_TRUE(reach.test(c, c));
    EXPECT_FALSE(reach.test(a, a));
    EXPECT_FALSE(reach.test(d, a));
}

TEST(Verify, AcceptsPaperExample)
{
    std::string why;
    EXPECT_TRUE(verifyDdg(buildPaperExampleLoop(), &why)) << why;
}

TEST(Verify, RejectsFusedEdgeWithDistance)
{
    DdgBuilder b("fused");
    const NodeId ld = b.load();
    const NodeId add = b.add();
    Ddg g = b.take();
    g.addEdge(ld, add, DepKind::RegFlow, 1, /*non_spillable=*/true);
    std::string why;
    EXPECT_FALSE(verifyDdg(g, &why));
}

TEST(Verify, RejectsSpillLoadWithoutRef)
{
    DdgBuilder b("sl");
    Ddg g = b.take();
    const NodeId l =
        g.addNode(Opcode::Load, "Ls", NodeOrigin::SpillLoad);
    (void)l;
    std::string why;
    EXPECT_FALSE(verifyDdg(g, &why));
    EXPECT_NE(why.find("SpillRef"), std::string::npos);
}

TEST(Opcode, RoundTripNames)
{
    for (int i = 0; i < numOpcodes; ++i) {
        Opcode op = Opcode::Nop;
        EXPECT_TRUE(parseOpcode(opcodeName(Opcode(i)), op));
        EXPECT_EQ(op, Opcode(i));
    }
    Opcode untouched = Opcode::Div;
    EXPECT_FALSE(parseOpcode("bogus", untouched));
    EXPECT_EQ(untouched, Opcode::Div);
}

TEST(Opcode, FuClassesMatchPaperMachine)
{
    EXPECT_EQ(fuClassOf(Opcode::Load), FuClass::Mem);
    EXPECT_EQ(fuClassOf(Opcode::Store), FuClass::Mem);
    EXPECT_EQ(fuClassOf(Opcode::Add), FuClass::Adder);
    EXPECT_EQ(fuClassOf(Opcode::Mul), FuClass::Mult);
    EXPECT_EQ(fuClassOf(Opcode::Div), FuClass::DivSqrt);
    EXPECT_EQ(fuClassOf(Opcode::Sqrt), FuClass::DivSqrt);
    EXPECT_TRUE(producesValue(Opcode::Load));
    EXPECT_FALSE(producesValue(Opcode::Store));
    EXPECT_FALSE(producesValue(Opcode::Nop));
}

} // namespace
} // namespace swp
