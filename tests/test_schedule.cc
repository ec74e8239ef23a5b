/**
 * @file
 * Schedule container and validator tests, including a differential
 * test of the validator against the map-based original it replaced
 * (kept test-only in schedule_reference.cc).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ir/builder.hh"
#include "machine/machine.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/acyclic.hh"
#include "sched/schedule.hh"
#include "schedule_reference.hh"
#include "verify/mutate.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

TEST(Schedule, FloorMathHandlesNegatives)
{
    EXPECT_EQ(Schedule::floorMod(-1, 4), 3);
    EXPECT_EQ(Schedule::floorMod(-4, 4), 0);
    EXPECT_EQ(Schedule::floorMod(5, 4), 1);
    EXPECT_EQ(Schedule::floorDiv(-1, 4), -1);
    EXPECT_EQ(Schedule::floorDiv(-4, 4), -1);
    EXPECT_EQ(Schedule::floorDiv(7, 4), 1);
}

TEST(Schedule, RowsStagesAndNormalization)
{
    Schedule s(3, 2);
    s.set(0, -2, 0);
    s.set(1, 4, 0);
    EXPECT_TRUE(s.complete());
    EXPECT_EQ(s.row(0), 1);
    EXPECT_EQ(s.stage(0), -1);
    EXPECT_EQ(s.minTime(), -2);
    EXPECT_EQ(s.maxTime(), 4);
    EXPECT_EQ(s.stageCount(), 3);  // Stages -1..1.
    s.normalize();
    EXPECT_EQ(s.time(0), 0);
    EXPECT_EQ(s.time(1), 6);
    EXPECT_EQ(s.stageCount(), 3);
}

TEST(Schedule, ClearMakesIncomplete)
{
    Schedule s(2, 1);
    EXPECT_FALSE(s.complete());
    s.set(0, 5, 1);
    EXPECT_TRUE(s.complete());
    s.clear(0);
    EXPECT_FALSE(s.scheduled(0));
}

TEST(ValidateSchedule, AcceptsThePaperSchedule)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    Schedule s(1, 4);
    s.set(0, 0, 0);
    s.set(1, 2, 1);
    s.set(2, 4, 2);
    s.set(3, 6, 3);
    std::string why;
    EXPECT_TRUE(validateSchedule(g, m, s, &why)) << why;
}

TEST(ValidateSchedule, CatchesDependenceViolation)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    Schedule s(1, 4);
    s.set(0, 0, 0);
    s.set(1, 1, 1);  // '*' issued 1 cycle after Ld: latency is 2.
    s.set(2, 4, 2);
    s.set(3, 6, 3);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_NE(why.find("dependence"), std::string::npos);
}

TEST(ValidateSchedule, CatchesResourceConflict)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    Schedule s(1, 4);
    s.set(0, 0, 0);
    s.set(1, 2, 0);  // Same unit, same (single) row as everything.
    s.set(2, 4, 0);
    s.set(3, 6, 3);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_NE(why.find("conflict"), std::string::npos);
}

TEST(ValidateSchedule, CatchesCarriedDependenceViolation)
{
    DdgBuilder b("carried");
    const NodeId a = b.add("a");
    b.flow(a, a, 1);
    const NodeId st = b.store("st");
    b.flow(a, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();  // add latency 4.

    Schedule s(3, 2);  // II=3 < RecMII=4: the self dep must fail.
    s.set(a, 0, 0);
    s.set(st, 4, 0);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
}

TEST(ValidateSchedule, CatchesFusedOffsetViolation)
{
    DdgBuilder b("fused");
    const NodeId ld = b.load("ld");
    const NodeId add = b.add("add");
    const NodeId st = b.store("st");
    b.graph().addEdge(ld, add, DepKind::RegFlow, 0, true);
    b.flow(add, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(4, 3);
    s.set(ld, 0, 0);
    s.set(add, 3, 0);  // Must be exactly latency(ld)=2 after.
    s.set(st, 8, 1);   // Unit 1: row 0 of mem unit 0 is the load's.
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_NE(why.find("fused"), std::string::npos);

    s.set(add, 2, 0);
    EXPECT_TRUE(validateSchedule(g, m, s, &why)) << why;
}

TEST(ValidateSchedule, CatchesNonPipelinedSelfOverlap)
{
    DdgBuilder b("dv");
    const NodeId ld = b.load();
    const NodeId dv = b.div();
    const NodeId st = b.store();
    b.flow(ld, dv);
    b.flow(dv, st);
    const Ddg g = b.take();
    const Machine m = Machine::p2l4();

    Schedule s(10, 3);  // Divide occupancy 17 > II.
    s.set(ld, 0, 0);
    s.set(dv, 2, 0);
    s.set(st, 19, 0);
    std::string why;
    EXPECT_FALSE(validateSchedule(g, m, s, &why));
    EXPECT_NE(why.find("occupies"), std::string::npos);
}

/** Both validators agree on s: same verdict, same message. Returns
    the verdict. */
bool
expectSameVerdict(const Ddg &g, const Machine &m, const Schedule &s,
                  const std::string &what)
{
    std::string why = "unset";
    std::string refWhy = "unset";
    const bool ok = validateSchedule(g, m, s, &why);
    const bool refOk = schedule_ref::validateSchedule(g, m, s, &refWhy);
    EXPECT_EQ(ok, refOk) << what;
    EXPECT_EQ(why, refWhy) << what;
    return ok;
}

TEST(ValidateSchedule, FlatSlotsMatchMapReferenceOnSchedulesAndMutants)
{
    // Valid modulo schedules (spilled ones too, with fused edges) and
    // acyclic ones, plus single-site mutants of each: every cycle moved
    // by -2..2 and every unit changed, out-of-range ones included. The
    // flat validator must find the same first violation as the map.
    SuiteParams params;  // Pinned default seed.
    params.numLoops = 80;
    const std::vector<SuiteLoop> suite = generateSuite(params);
    PipelinerOptions opts;
    opts.registers = 16;

    long checked = 0;
    long rejected = 0;
    for (const Machine &m :
         {Machine::p1l4(), Machine::p2l4(), Machine::p2l6()}) {
        for (const SuiteLoop &loop : suite) {
            const PipelineResult r =
                pipelineLoop(loop.graph, m, Strategy::Spill, opts);
            const Ddg &g = r.graph();
            for (const Schedule &s : {r.sched, scheduleAcyclic(g, m)}) {
                const std::string where =
                    g.name() + " on " + m.name() + " at II " +
                    std::to_string(s.ii());
                EXPECT_TRUE(expectSameVerdict(g, m, s, where));
                for (NodeId n = 0; n < g.numNodes(); ++n) {
                    for (int dt = -2; dt <= 2; ++dt) {
                        if (dt == 0)
                            continue;
                        const Schedule mutant =
                            withCycle(s, n, s.time(n) + dt);
                        rejected += !expectSameVerdict(
                            g, m, mutant,
                            where + " node " + std::to_string(n) +
                                " moved by " + std::to_string(dt));
                        ++checked;
                    }
                    const int units =
                        m.unitsInClass(m.classOf(g.node(n).op));
                    for (int u = -1; u <= units; ++u) {
                        if (u == s.unit(n))
                            continue;
                        rejected += !expectSameVerdict(
                            g, m, withUnit(s, n, u),
                            where + " node " + std::to_string(n) +
                                " on unit " + std::to_string(u));
                        ++checked;
                    }
                }
            }
        }
    }
    // The mutants exercise every failure kind, not only acceptance.
    EXPECT_GT(rejected, checked / 4);
    EXPECT_LT(rejected, checked);
}

TEST(FormatSchedule, MentionsKernelAndCycles)
{
    const Ddg g = buildPaperExampleLoop();
    const Machine m = Machine::universal("fig2", 4, 2);
    Schedule s(2, 4);
    s.set(0, 0, 0);
    s.set(1, 2, 1);
    s.set(2, 4, 2);
    s.set(3, 6, 3);
    const std::string text = formatSchedule(g, m, s);
    EXPECT_NE(text.find("II=2"), std::string::npos);
    EXPECT_NE(text.find("kernel"), std::string::npos);
    EXPECT_NE(text.find("Ld"), std::string::npos);
}

} // namespace
} // namespace swp
