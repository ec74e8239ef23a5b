/**
 * @file
 * Complex-group construction tests (Section 4.3 fusion), including a
 * differential test of the offset solve against the frontier-scan
 * implementation it replaced, over every spill-round graph.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <numeric>
#include <vector>

#include "ir/builder.hh"
#include "machine/machine.hh"
#include "sched/groups.hh"
#include "spill_rounds.hh"
#include "support/diag.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

/** Groups as the reference solve computes them. */
struct ReferenceGroups
{
    std::vector<int> groupOf;
    std::vector<int> offsetOf;
    std::vector<std::vector<NodeId>> members;
};

/**
 * Reference partition: the original GroupSet::reset, whose offset BFS
 * rescans every fused edge for every frontier node (quadratic in the
 * group size). Kept test-only to pin the linear per-node solve.
 */
ReferenceGroups
referenceGroups(const Ddg &g, const Machine &m)
{
    const int n = g.numNodes();
    ReferenceGroups ref;
    ref.groupOf.assign(std::size_t(n), -1);
    ref.offsetOf.assign(std::size_t(n), 0);

    std::vector<int> parent(static_cast<std::size_t>(n));
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](int x) {
        while (parent[std::size_t(x)] != x)
            x = parent[std::size_t(x)];
        return x;
    };
    std::vector<EdgeId> fused;
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (edge.alive && edge.nonSpillable) {
            fused.push_back(e);
            const int a = find(edge.src);
            const int b = find(edge.dst);
            if (a != b)
                parent[std::size_t(a)] = b;
        }
    }

    std::vector<int> rootGroup(std::size_t(n), -1);
    for (NodeId v = 0; v < n; ++v) {
        const int r = find(v);
        if (rootGroup[std::size_t(r)] < 0) {
            rootGroup[std::size_t(r)] = int(ref.members.size());
            ref.members.emplace_back();
        }
        ref.groupOf[std::size_t(v)] = rootGroup[std::size_t(r)];
        ref.members[std::size_t(rootGroup[std::size_t(r)])].push_back(v);
    }

    std::vector<char> known(std::size_t(n), 0);
    for (std::vector<NodeId> &members : ref.members) {
        if (members.size() == 1)
            continue;
        known[std::size_t(members[0])] = 1;
        std::vector<NodeId> frontier{members[0]};
        while (!frontier.empty()) {
            std::vector<NodeId> next;
            for (const EdgeId e : fused) {
                const Edge &edge = g.edge(e);
                const int lat = fusedDelayOf(g, m, edge);
                for (const NodeId v : frontier) {
                    if (edge.src == v && !known[std::size_t(edge.dst)]) {
                        known[std::size_t(edge.dst)] = 1;
                        ref.offsetOf[std::size_t(edge.dst)] =
                            ref.offsetOf[std::size_t(v)] + lat;
                        next.push_back(edge.dst);
                    } else if (edge.dst == v &&
                               !known[std::size_t(edge.src)]) {
                        known[std::size_t(edge.src)] = 1;
                        ref.offsetOf[std::size_t(edge.src)] =
                            ref.offsetOf[std::size_t(v)] - lat;
                        next.push_back(edge.src);
                    }
                }
            }
            frontier = std::move(next);
        }
        int lo = INT_MAX;
        for (const NodeId v : members)
            lo = std::min(lo, ref.offsetOf[std::size_t(v)]);
        for (const NodeId v : members)
            ref.offsetOf[std::size_t(v)] -= lo;
        std::sort(members.begin(), members.end(), [&](NodeId a, NodeId b) {
            if (ref.offsetOf[std::size_t(a)] != ref.offsetOf[std::size_t(b)])
                return ref.offsetOf[std::size_t(a)] <
                       ref.offsetOf[std::size_t(b)];
            return a < b;
        });
    }
    return ref;
}

/** True (with a gtest failure naming the first difference) if the
    recycled GroupSet matches the reference partition of g. */
void
expectMatchesReference(const GroupSet &groups, const Ddg &g,
                       const Machine &m)
{
    const ReferenceGroups ref = referenceGroups(g, m);
    ASSERT_EQ(groups.numGroups(), int(ref.members.size())) << g.name();
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        ASSERT_EQ(groups.groupOf(v), ref.groupOf[std::size_t(v)])
            << g.name() << " node " << v;
        ASSERT_EQ(groups.offsetOf(v), ref.offsetOf[std::size_t(v)])
            << g.name() << " node " << v;
    }
    for (int gi = 0; gi < groups.numGroups(); ++gi) {
        const ComplexGroup &grp = groups.group(gi);
        ASSERT_EQ(grp.members, ref.members[std::size_t(gi)])
            << g.name() << " group " << gi;
        for (std::size_t i = 0; i < grp.members.size(); ++i) {
            ASSERT_EQ(grp.offsets[i],
                      ref.offsetOf[std::size_t(grp.members[i])]);
        }
    }
}

TEST(Groups, AllSingletonsWithoutFusedEdges)
{
    const Ddg g = buildPaperExampleLoop();
    const GroupSet groups(g, Machine::p2l4());
    EXPECT_EQ(groups.numGroups(), g.numNodes());
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        EXPECT_TRUE(groups.group(groups.groupOf(n)).singleton());
        EXPECT_EQ(groups.offsetOf(n), 0);
    }
}

TEST(Groups, PairOffsetsEqualProducerLatency)
{
    DdgBuilder b("pair");
    const NodeId ld = b.load("Ls");
    const NodeId mul = b.mul("*");
    const NodeId st = b.store("st");
    b.graph().addEdge(ld, mul, DepKind::RegFlow, 0, true);
    b.flow(mul, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    const GroupSet groups(g, m);
    EXPECT_EQ(groups.numGroups(), 2);
    const int gi = groups.groupOf(ld);
    ASSERT_EQ(gi, groups.groupOf(mul));
    EXPECT_EQ(groups.offsetOf(ld), 0);
    EXPECT_EQ(groups.offsetOf(mul), m.latency(Opcode::Load));
}

TEST(Groups, ChainsMergeTransitively)
{
    // producer -> spill store, spill load -> consumer, and the consumer
    // itself fused to another store: one group of four.
    DdgBuilder b("chain");
    const NodeId a = b.add("a");
    const NodeId ss = b.store("Ss");
    const NodeId ls = b.load("Ls");
    const NodeId c = b.mul("c");
    const NodeId ss2 = b.store("Ss2");
    b.graph().addEdge(a, ss, DepKind::RegFlow, 0, true);
    b.graph().addEdge(ls, c, DepKind::RegFlow, 0, true);
    b.graph().addEdge(c, ss2, DepKind::RegFlow, 0, true);
    b.graph().addEdge(a, c, DepKind::RegFlow, 0, false);
    b.mem(ss, ls, 1);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    const GroupSet groups(g, m);
    // {a, ss} and {ls, c, ss2}.
    EXPECT_EQ(groups.groupOf(a), groups.groupOf(ss));
    EXPECT_EQ(groups.groupOf(ls), groups.groupOf(c));
    EXPECT_EQ(groups.groupOf(c), groups.groupOf(ss2));
    EXPECT_NE(groups.groupOf(a), groups.groupOf(ls));

    EXPECT_EQ(groups.offsetOf(ss), m.latency(Opcode::Add));
    EXPECT_EQ(groups.offsetOf(c), m.latency(Opcode::Load));
    EXPECT_EQ(groups.offsetOf(ss2),
              m.latency(Opcode::Load) + m.latency(Opcode::Mul));
}

TEST(Groups, MembersSortedByOffset)
{
    DdgBuilder b("sorted");
    const NodeId ld = b.load();
    const NodeId a1 = b.add();
    const NodeId st = b.store();
    b.graph().addEdge(ld, a1, DepKind::RegFlow, 0, true);
    b.graph().addEdge(a1, st, DepKind::RegFlow, 0, true);
    const Ddg g = b.take();
    const GroupSet groups(g, Machine::p2l4());

    const ComplexGroup &grp = groups.group(groups.groupOf(ld));
    ASSERT_EQ(grp.members.size(), 3u);
    EXPECT_EQ(grp.members[0], ld);
    EXPECT_EQ(grp.members[1], a1);
    EXPECT_EQ(grp.members[2], st);
    EXPECT_EQ(grp.offsets[0], 0);
    EXPECT_LT(grp.offsets[0], grp.offsets[1]);
    EXPECT_LT(grp.offsets[1], grp.offsets[2]);
}

TEST(Groups, InconsistentFusedOffsetsPanic)
{
    // Two fused paths from a to c imply different offsets for c.
    DdgBuilder b("inconsistent");
    const NodeId a = b.load("a");
    const NodeId mid = b.add("mid");
    const NodeId c = b.store("c");
    b.graph().addEdge(a, mid, DepKind::RegFlow, 0, true);
    b.graph().addEdge(mid, c, DepKind::RegFlow, 0, true);
    b.graph().addEdge(a, c, DepKind::RegFlow, 0, true);
    const Ddg g = b.take();
    GroupSet groups;
    EXPECT_THROW(groups.reset(g, Machine::p2l4()), PanicError);
}

TEST(Groups, OffsetsMatchFrontierScanOnEverySpillRoundGraph)
{
    // Every graph the paper's baseline spill run schedules on the
    // pinned suite, fused and unfused, through one recycled GroupSet
    // (so stale scratch from a larger graph would show), plus the
    // pinned loops on the other presets.
    const Machine m = Machine::p2l4();
    GroupSet groups;
    int fusedGroups = 0;
    for (const bool fuse : {true, false}) {
        const int visited = forEachSpillRoundGraph(
            m, fuse, [&](const Ddg &g) {
                groups.reset(g, m);
                for (int gi = 0; gi < groups.numGroups(); ++gi)
                    fusedGroups += !groups.group(gi).singleton();
                expectMatchesReference(groups, g, m);
            });
        EXPECT_GT(visited, 1258);
    }
    // The fused run must actually exercise multi-member groups.
    EXPECT_GT(fusedGroups, 1000);

    const Machine others[] = {Machine::p1l4(), Machine::p2l6(),
                              Machine::universal("u4", 4, 2)};
    for (const SuiteLoop &loop : generateSuite(SuiteParams{})) {
        for (const Machine &other : others) {
            groups.reset(loop.graph, other);
            expectMatchesReference(groups, loop.graph, other);
        }
    }
}

} // namespace
} // namespace swp
