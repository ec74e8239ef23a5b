/**
 * @file
 * Iterative Modulo Scheduling tests: correctness, backtracking under
 * resource pressure, recurrences and complex groups.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ir/builder.hh"
#include "machine/machine.hh"
#include "sched/ims.hh"
#include "sched/mii.hh"
#include "sched/schedule.hh"
#include "spill_rounds.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

TEST(Ims, SchedulesPaperExampleAtMii)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    ImsScheduler ims;
    const auto s = ims.scheduleAt(g, m, 1);
    ASSERT_TRUE(s.has_value());
    std::string why;
    EXPECT_TRUE(validateSchedule(g, m, *s, &why)) << why;
}

TEST(Ims, FailsBelowRecMii)
{
    DdgBuilder b("rec");
    const NodeId a = b.add("a");
    b.flow(a, a, 1);
    const NodeId st = b.store();
    b.flow(a, st);
    const Ddg g = b.take();
    ImsScheduler ims;
    EXPECT_FALSE(ims.scheduleAt(g, Machine::p2l4(), 3).has_value());
    EXPECT_TRUE(ims.scheduleAt(g, Machine::p2l4(), 4).has_value());
}

TEST(Ims, SaturatedResourcesForceEvictionButConverge)
{
    // 12 independent mem streams on one mem unit: heavy competition at
    // the exact ResMII.
    DdgBuilder b("sat");
    for (int i = 0; i < 6; ++i) {
        const NodeId ld = b.load();
        const NodeId st = b.store();
        b.flow(ld, st);
    }
    const Ddg g = b.take();
    const Machine m = Machine::p1l4();
    ASSERT_EQ(mii(g, m), 12);

    ImsScheduler ims;
    const auto s = ims.scheduleAt(g, m, 12);
    ASSERT_TRUE(s.has_value());
    std::string why;
    EXPECT_TRUE(validateSchedule(g, m, *s, &why)) << why;
}

TEST(Ims, HandlesFusedGroupsAtExactOffsets)
{
    DdgBuilder b("fused");
    const NodeId ld = b.load("Ls");
    const NodeId mul = b.mul("*");
    const NodeId st = b.store("st");
    b.graph().addEdge(ld, mul, DepKind::RegFlow, 0, true);
    b.flow(mul, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    ImsScheduler ims;
    const auto s = ims.scheduleAt(g, m, 2);
    ASSERT_TRUE(s.has_value());
    EXPECT_EQ(s->time(mul) - s->time(ld), m.latency(Opcode::Load));
}

TEST(Ims, NonPipelinedDivideRespected)
{
    DdgBuilder b("dv");
    const NodeId ld = b.load();
    const NodeId dv = b.div();
    const NodeId st = b.store();
    b.flow(ld, dv);
    b.flow(dv, st);
    const Ddg g = b.take();
    ImsScheduler ims;
    EXPECT_FALSE(ims.scheduleAt(g, Machine::p2l4(), 16).has_value());
    EXPECT_TRUE(ims.scheduleAt(g, Machine::p2l4(), 17).has_value());
}

TEST(Ims, MixedRecurrenceAndResourcePressure)
{
    DdgBuilder b("mix");
    const NodeId acc = b.add("acc");
    b.flow(acc, acc, 1);
    std::vector<NodeId> lds;
    for (int i = 0; i < 4; ++i) {
        const NodeId ld = b.load();
        lds.push_back(ld);
        const NodeId mul = b.mul();
        b.flow(ld, mul);
        const NodeId st = b.store();
        b.flow(mul, st);
    }
    b.flow(lds[0], acc);
    const NodeId st = b.store();
    b.flow(acc, st);
    const Ddg g = b.take();
    const Machine m = Machine::p1l4();

    ImsScheduler ims;
    const int lower = mii(g, m);
    const auto s = ims.scheduleAt(g, m, lower);
    ASSERT_TRUE(s.has_value());
    std::string why;
    EXPECT_TRUE(validateSchedule(g, m, *s, &why)) << why;
}

/** Probe `reused` and a fresh scheduler at ii; both must agree. */
void
expectReusedMatchesFresh(ImsScheduler &reused, const Ddg &g,
                         const Machine &m, int ii)
{
    ImsScheduler fresh;
    const auto a = reused.scheduleAt(g, m, ii);
    const auto b = fresh.scheduleAt(g, m, ii);
    ASSERT_EQ(a.has_value(), b.has_value())
        << g.name() << " on " << m.name() << " ii=" << ii;
    if (!a)
        return;
    for (NodeId v = 0; v < g.numNodes(); ++v) {
        ASSERT_EQ(a->time(v), b->time(v)) << g.name() << " ii=" << ii;
        ASSERT_EQ(a->unit(v), b->unit(v)) << g.name() << " ii=" << ii;
    }
}

TEST(Ims, ReusedSchedulerMatchesFreshSchedulerAcrossLoops)
{
    // Same workspace-reuse regression as the HRMS twin: one scheduler
    // object fed interleaved loops/machines/IIs must match a fresh
    // scheduler on every probe — stale workspace state or a plan kept
    // for the wrong graph would diverge here.
    SuiteParams params;
    params.numLoops = 10;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    const Machine machines[] = {Machine::p1l4(), Machine::p2l4()};
    ImsScheduler reused;
    for (const SuiteLoop &loop : suite) {
        for (const Machine &m : machines) {
            const int lower = mii(loop.graph, m);
            for (int ii = std::max(1, lower - 1); ii < lower + 3; ++ii)
                expectReusedMatchesFresh(reused, loop.graph, m, ii);
        }
    }

    // Spill rounds: each round's graph differs from the last by a few
    // spill operations and fused edges, so a plan reused across rounds
    // would show. Each graph is probed first on a machine with other
    // latencies (so other fused offsets and recurrence bounds), then on
    // the spill run's machine: the first of those probes must rebuild
    // the plan, the later ones reuse it.
    const Machine m = Machine::p2l4();
    const Machine other = Machine::p2l6();
    forEachSpillRoundGraph(
        m, true,
        [&](const Ddg &g) {
            const int lower = mii(g, m);
            expectReusedMatchesFresh(reused, g, other, mii(g, other));
            for (int ii = std::max(1, lower - 1); ii < lower + 3; ++ii)
                expectReusedMatchesFresh(reused, g, m, ii);
        },
        300);
}

} // namespace
} // namespace swp
