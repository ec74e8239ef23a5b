/**
 * @file
 * Rotating register allocation tests: the circular-packing conflict
 * model, fit strategies, minimum-register search and the MaxLive bound,
 * the conflict oracle's rejection of malformed results, and a
 * differential test of the bitmap allocator against the arc-list
 * reference in rotalloc_reference.cc, the budget-bounded entry point
 * against the exact one, and the resumable register scan and the
 * allocation memo built on it against fresh allocations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <optional>
#include <string>

#include "ir/builder.hh"
#include "machine/machine.hh"
#include "pipeliner/pipeliner.hh"
#include "regalloc/alloc_memo.hh"
#include "regalloc/rotalloc.hh"
#include "rotalloc_reference.hh"
#include "sched/fingerprint.hh"
#include "sched/hrms.hh"
#include "sched/mii.hh"
#include "support/rng.hh"
#include "support/strutil.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

Schedule
paperFlatSchedule(int ii)
{
    Schedule s(ii, 4);
    s.set(0, 0, 0);
    s.set(1, 2, 1);
    s.set(2, 4, 2);
    s.set(3, 6, 3);
    return s;
}

TEST(RotAlloc, PaperExampleFitsInMaxLive)
{
    const Ddg g = buildPaperExampleLoop();
    for (int ii = 1; ii <= 3; ++ii) {
        const LifetimeInfo info = analyzeLifetimes(g, paperFlatSchedule(ii));
        const int regs = minRotatingRegs(info);
        EXPECT_GE(regs, info.maxLive) << "ii=" << ii;
        EXPECT_LE(regs, info.maxLive + 1) << "ii=" << ii;

        const RotAllocResult alloc = allocateRotating(info, regs);
        ASSERT_TRUE(alloc.ok);
        std::string why;
        EXPECT_TRUE(allocationConflictFree(info, alloc, &why)) << why;
    }
}

TEST(RotAlloc, FailsBelowMaxLive)
{
    const Ddg g = buildPaperExampleLoop();
    const LifetimeInfo info = analyzeLifetimes(g, paperFlatSchedule(1));
    ASSERT_EQ(info.maxLive, 11);
    EXPECT_FALSE(allocateRotating(info, 10).ok);
    EXPECT_TRUE(allocateRotating(info, 11).ok ||
                allocateRotating(info, 12).ok);
}

TEST(RotAlloc, EveryStrategyProducesConflictFreePacking)
{
    const Ddg g = buildPaperExampleLoop();
    const LifetimeInfo info = analyzeLifetimes(g, paperFlatSchedule(2));
    for (FitStrategy strat : {FitStrategy::EndFit, FitStrategy::FirstFit,
                              FitStrategy::BestFit}) {
        for (AllocOrder order : {AllocOrder::Adjacency,
                                 AllocOrder::DescendingLength}) {
            const int regs = minRotatingRegs(info, strat, order);
            ASSERT_LE(regs, info.maxLive + 2)
                << fitStrategyName(strat);
            const RotAllocResult alloc =
                allocateRotating(info, regs, strat, order);
            ASSERT_TRUE(alloc.ok) << fitStrategyName(strat);
            std::string why;
            EXPECT_TRUE(allocationConflictFree(info, alloc, &why))
                << fitStrategyName(strat) << ": " << why;
        }
    }
}

TEST(RotAlloc, LifetimeLongerThanWholeFileFails)
{
    DdgBuilder b("long");
    const NodeId ld = b.load();
    const NodeId add = b.add();
    b.flow(ld, add, 9);  // Lifetime ~ 9*II.
    const NodeId st = b.store();
    b.flow(add, st);
    const Ddg g = b.take();

    Schedule s(2, 3);
    s.set(ld, 0, 0);
    s.set(add, 2, 0);
    s.set(st, 6, 0);
    const LifetimeInfo info = analyzeLifetimes(g, s);
    ASSERT_GT(info.of(ld).length(), 2 * 8);
    EXPECT_FALSE(allocateRotating(info, 8).ok);
    EXPECT_TRUE(minRotatingRegs(info) >= 10);
}

TEST(RotAlloc, AllocationOutcomeAddsInvariants)
{
    const Ddg g = buildPaperExampleLoop();  // One invariant 'a'.
    const Schedule s = paperFlatSchedule(2);
    const AllocationOutcome out = allocateLoop(g, s, 32);
    EXPECT_TRUE(out.fits);
    EXPECT_EQ(out.invariants, 1);
    EXPECT_EQ(out.regsRequired, out.rotating + 1);
    EXPECT_GE(out.rotating, out.maxLive);

    const AllocationOutcome tight = allocateLoop(g, s, out.regsRequired);
    EXPECT_TRUE(tight.fits);
    const AllocationOutcome tooTight =
        allocateLoop(g, s, out.regsRequired - 1);
    EXPECT_FALSE(tooTight.fits);
}

TEST(RotAlloc, DeadAndZeroLengthValuesNeedNoRegister)
{
    DdgBuilder b("dead");
    const NodeId ld = b.load();
    const NodeId st = b.store();
    b.flow(ld, st);
    const NodeId deadLd = b.load("dead");
    (void)deadLd;
    const Ddg g = b.take();

    Schedule s(1, 3);
    s.set(0, 0, 0);
    s.set(1, 2, 1);
    s.set(2, 0, 1);
    const LifetimeInfo info = analyzeLifetimes(g, s);
    const RotAllocResult alloc =
        allocateRotating(info, minRotatingRegs(info));
    EXPECT_TRUE(alloc.ok);
    EXPECT_EQ(alloc.offset[std::size_t(deadLd)], -1);
    EXPECT_GE(alloc.offset[std::size_t(ld)], 0);
}

TEST(RotAlloc, EndFitTracksMaxLiveOnScheduledLoops)
{
    // Property: on real HRMS schedules, end-fit adjacency allocation
    // stays within MaxLive + 1 (the paper's [26] observation).
    const Machine m = Machine::p2l4();
    HrmsScheduler hrms;
    const Ddg g = buildPaperExampleLoop();
    for (int ii = mii(g, m); ii <= mii(g, m) + 8; ++ii) {
        const auto s = hrms.scheduleAt(g, m, ii);
        ASSERT_TRUE(s.has_value());
        const LifetimeInfo info = analyzeLifetimes(g, *s);
        const int regs = minRotatingRegs(info);
        EXPECT_LE(regs, info.maxLive + 1) << "ii=" << ii;
    }
}

TEST(RotAlloc, ConflictCheckRejectsUnallocatedResult)
{
    // allocateLoop leaves a default RotAllocResult (no offsets, zero
    // registers) when no register count up to its cap fits.
    const Ddg g = buildPaperExampleLoop();
    const LifetimeInfo info = analyzeLifetimes(g, paperFlatSchedule(2));
    std::string why;
    EXPECT_FALSE(allocationConflictFree(info, RotAllocResult{}, &why));
    EXPECT_NE(why.find("offsets"), std::string::npos) << why;
}

TEST(RotAlloc, ConflictCheckRejectsZeroRegistersForLiveValues)
{
    const Ddg g = buildPaperExampleLoop();
    const LifetimeInfo info = analyzeLifetimes(g, paperFlatSchedule(2));
    RotAllocResult alloc = allocateRotating(info, minRotatingRegs(info));
    ASSERT_TRUE(alloc.ok);
    std::string why;
    ASSERT_TRUE(allocationConflictFree(info, alloc, &why)) << why;

    alloc.registers = 0;
    EXPECT_FALSE(allocationConflictFree(info, alloc, &why));
    EXPECT_NE(why.find("live values"), std::string::npos) << why;
}

// ---- Differential: bitmap allocator vs the arc-list reference -------

constexpr FitStrategy kFits[] = {FitStrategy::EndFit,
                                 FitStrategy::FirstFit,
                                 FitStrategy::BestFit};
constexpr AllocOrder kOrders[] = {AllocOrder::Adjacency,
                                  AllocOrder::DescendingLength};

const char *
orderName(AllocOrder order)
{
    return order == AllocOrder::Adjacency ? "adjacency" : "by-length";
}

/** True if both allocators give the same result (ok, registers and
    every offset, failed packs included) at `regs` registers. */
bool
sameAllocation(const LifetimeInfo &info, int regs, FitStrategy fit,
               AllocOrder order, std::string *why)
{
    const RotAllocResult want =
        rotalloc_ref::allocateRotating(info, regs, fit, order);
    const RotAllocResult got = allocateRotating(info, regs, fit, order);
    if (got.ok == want.ok && got.registers == want.registers &&
        got.offset == want.offset) {
        return true;
    }
    std::size_t v = 0;
    while (v < got.offset.size() && v < want.offset.size() &&
           got.offset[v] == want.offset[v]) {
        ++v;
    }
    *why = strprintf("%s/%s at R=%d: ok %d (reference %d), first "
                     "offset mismatch at value %zu of %zu",
                     fitStrategyName(fit), orderName(order), regs,
                     int(got.ok), int(want.ok), v, want.offset.size());
    return false;
}

/** allocateLoop's register cap for a (representable) budget. */
int
regsCapFor(int budget, int maxLive)
{
    return std::max({budget * 4, maxLive + 64, 64});
}

/**
 * Random lifetime population: II 1..12 (1 in a quarter of the sets),
 * up to 16 values with negative and positive starts, some dead and
 * some zero-length. One set in eight gets a value longer than the whole
 * circle at `cap` registers, and one in four an understated MaxLive, so
 * the register scans run up to the cap and fail there.
 */
LifetimeInfo
randomLifetimes(Rng &rng, int cap)
{
    LifetimeInfo info;
    info.ii = rng.chance(0.25) ? 1 : rng.range(2, 12);
    const int ii = info.ii;
    const int numValues = rng.range(0, 16);
    for (int i = 0; i < numValues; ++i) {
        Lifetime lt;
        lt.producer = NodeId(i);
        const int kind = rng.range(0, 9);
        lt.live = kind != 0;
        lt.start = rng.range(-2 * ii, 4 * ii);
        lt.end = lt.start + (kind == 1 ? 0 : rng.range(1, 4 * ii));
        info.lifetimes.push_back(lt);
    }
    if (numValues > 0 && rng.chance(0.125)) {
        Lifetime &lt = info.lifetimes[std::size_t(rng.range(0,
                                                            numValues - 1))];
        lt.live = true;
        lt.end = lt.start + cap * ii + rng.range(1, ii);
    }

    info.pressure.assign(std::size_t(ii), 0);
    for (const Lifetime &lt : info.lifetimes) {
        if (!lt.live)
            continue;
        for (int c = lt.start; c < lt.end; ++c)
            ++info.pressure[std::size_t(Schedule::floorMod(c, ii))];
    }
    info.maxLive = *std::max_element(info.pressure.begin(),
                                     info.pressure.end());
    if (rng.chance(0.25))
        info.maxLive = rng.range(0, info.maxLive);
    return info;
}

TEST(RotAllocDifferential, RandomLifetimesMatchArcListReference)
{
    constexpr int kSets = 10000;
    constexpr int kCap = 64;
    Rng rng(0x5eed0a11c);
    for (int set = 0; set < kSets; ++set) {
        const LifetimeInfo info = randomLifetimes(rng, kCap);
        std::string why;
        for (const FitStrategy fit : kFits) {
            for (const AllocOrder order : kOrders) {
                const int want =
                    rotalloc_ref::minRotatingRegs(info, fit, order, kCap);
                ASSERT_EQ(minRotatingRegs(info, fit, order, kCap), want)
                    << "set " << set << " " << fitStrategyName(fit) << "/"
                    << orderName(order);
                // Zero and one register, the counts just below MaxLive
                // (failed packs) and every count up to the minimum.
                std::vector<int> counts = {0, 1};
                for (int r = std::max(2, info.maxLive - 2);
                     r <= std::min(want, kCap); ++r) {
                    counts.push_back(r);
                }
                for (const int r : counts) {
                    ASSERT_TRUE(sameAllocation(info, r, fit, order, &why))
                        << "set " << set << ": " << why;
                }
            }
        }
    }
}

TEST(RotAllocDifferential, PinnedSuiteIdealSchedulesMatchArcListReference)
{
    const Machine m = Machine::p2l4();
    const SuiteParams params;
    constexpr int kBudget = 32;
    for (int i = 0; i < params.numLoops; ++i) {
        const SuiteLoop loop = generateSuiteLoop(params, i);
        const PipelineResult ideal = pipelineIdeal(loop.graph, m);
        const LifetimeInfo info =
            analyzeLifetimes(ideal.graph(), ideal.sched);
        const int cap = regsCapFor(kBudget, info.maxLive);
        std::string why;
        for (const FitStrategy fit : kFits) {
            int bestRegs = INT_MAX;
            AllocOrder bestOrder = AllocOrder::Adjacency;
            for (const AllocOrder order : kOrders) {
                const int want =
                    rotalloc_ref::minRotatingRegs(info, fit, order, cap);
                ASSERT_EQ(minRotatingRegs(info, fit, order, cap), want)
                    << loop.graph.name() << " " << fitStrategyName(fit)
                    << "/" << orderName(order);
                for (int r = std::max(1, info.maxLive);
                     r <= std::min(want, cap); ++r) {
                    ASSERT_TRUE(sameAllocation(info, r, fit, order, &why))
                        << loop.graph.name() << ": " << why;
                }
                if (want < bestRegs) {
                    bestRegs = want;
                    bestOrder = order;
                }
            }

            // allocateLoop keeps the offsets of the winning order's pack.
            const AllocationOutcome out =
                allocateLoop(ideal.graph(), ideal.sched, kBudget, fit);
            ASSERT_EQ(out.rotating, bestRegs)
                << loop.graph.name() << " " << fitStrategyName(fit);
            ASSERT_LE(bestRegs, cap) << loop.graph.name();
            const RotAllocResult want = rotalloc_ref::allocateRotating(
                info, bestRegs, fit, bestOrder);
            EXPECT_EQ(out.rotAlloc.ok, want.ok) << loop.graph.name();
            EXPECT_EQ(out.rotAlloc.registers, want.registers)
                << loop.graph.name();
            ASSERT_EQ(out.rotAlloc.offset, want.offset)
                << loop.graph.name() << " " << fitStrategyName(fit);
        }
    }
}

// ---- Budget-bounded allocation vs the exact allocation ---------------

/** True if both outcomes agree on every field, offsets included. */
bool
sameOutcome(const AllocationOutcome &got, const AllocationOutcome &want,
            std::string *why)
{
    if (got.fits == want.fits && got.regsRequired == want.regsRequired &&
        got.rotating == want.rotating &&
        got.invariants == want.invariants && got.maxLive == want.maxLive &&
        got.rotAlloc.ok == want.rotAlloc.ok &&
        got.rotAlloc.registers == want.rotAlloc.registers &&
        got.rotAlloc.offset == want.rotAlloc.offset) {
        return true;
    }
    *why = strprintf("regs %d/%d rotating %d/%d (got/want), offsets %s",
                     got.regsRequired, want.regsRequired, got.rotating,
                     want.rotating,
                     got.rotAlloc.offset == want.rotAlloc.offset
                         ? "equal"
                         : "differ");
    return false;
}

/**
 * At every budget in [0, regsRequired + 2], allocateWithinBudget is
 * allocateLoop's outcome exactly when that fits, and nullopt otherwise.
 * Returns the number of budgets that fit.
 */
int
checkWithinBudget(const LifetimeInfo &info, FitStrategy fit,
                  const std::string &what)
{
    int fitting = 0;
    AllocationOutcome exact = allocateLoop(info, 0, fit);
    int exactCap = regsCapFor(0, info.maxLive);
    const int top = exact.regsRequired;
    std::string why;
    for (int budget = 0; budget <= top + 2; ++budget) {
        // allocateLoop depends on the budget only through the fits flag
        // and the register cap that bounds its scan. Once the scan
        // succeeds, a larger cap finds the same pack, so the exact
        // allocation is redone only while it fails and the cap grows.
        const int cap = regsCapFor(budget, info.maxLive);
        if (!exact.rotAlloc.ok && cap != exactCap) {
            exact = allocateLoop(info, budget, fit);
            exactCap = cap;
        }
        exact.fits = exact.regsRequired <= budget;
        const std::optional<AllocationOutcome> bounded =
            allocateWithinBudget(info, budget, fit);
        if (!exact.fits) {
            EXPECT_FALSE(bounded.has_value())
                << what << " " << fitStrategyName(fit) << " budget "
                << budget;
            continue;
        }
        ++fitting;
        if (!bounded) {
            ADD_FAILURE() << what << " " << fitStrategyName(fit)
                          << " budget " << budget << ": nullopt, but "
                          << exact.regsRequired << " registers fit";
            continue;
        }
        EXPECT_TRUE(sameOutcome(*bounded, exact, &why))
            << what << " " << fitStrategyName(fit) << " budget " << budget
            << ": " << why;
    }
    return fitting;
}

TEST(AllocWithinBudget, RandomLifetimesMatchExactAllocation)
{
    constexpr int kSets = 10000;
    constexpr int kCap = 64;
    Rng rng(0xb0d9e7);
    int fitting = 0;
    for (int set = 0; set < kSets; ++set) {
        LifetimeInfo info = randomLifetimes(rng, kCap);
        info.invariantCount = rng.range(0, 3);
        for (const FitStrategy fit : kFits) {
            fitting +=
                checkWithinBudget(info, fit, "set " + std::to_string(set));
            if (HasFailure())
                return;
        }
    }
    EXPECT_GT(fitting, 0);
}

TEST(AllocWithinBudget, PinnedSuiteIdealSchedulesMatchExactAllocation)
{
    const Machine m = Machine::p2l4();
    const SuiteParams params;
    for (int i = 0; i < params.numLoops; ++i) {
        const SuiteLoop loop = generateSuiteLoop(params, i);
        const PipelineResult ideal = pipelineIdeal(loop.graph, m);
        const LifetimeInfo info =
            analyzeLifetimes(ideal.graph(), ideal.sched);
        for (const FitStrategy fit : kFits) {
            EXPECT_GT(checkWithinBudget(info, fit, loop.graph.name()), 0);
            if (HasFailure())
                return;
        }
    }
}

TEST(AllocWithinBudget, NothingFitsBelowMaxLivePlusInvariants)
{
    const Ddg g = buildPaperExampleLoop();  // One invariant 'a'.
    const LifetimeInfo info = analyzeLifetimes(g, paperFlatSchedule(2));
    ASSERT_EQ(info.invariantCount, 1);
    const AllocationOutcome exact = allocateLoop(info, 32);
    ASSERT_TRUE(exact.fits);
    EXPECT_FALSE(
        allocateWithinBudget(info, info.totalRegisterBound() - 1,
                             FitStrategy::EndFit)
            .has_value());
    EXPECT_FALSE(allocateWithinBudget(info, exact.regsRequired - 1,
                                      FitStrategy::EndFit)
                     .has_value());
    const auto tight =
        allocateWithinBudget(info, exact.regsRequired, FitStrategy::EndFit);
    ASSERT_TRUE(tight.has_value());
    EXPECT_EQ(tight->regsRequired, exact.regsRequired);
    EXPECT_EQ(tight->rotAlloc.offset, exact.rotAlloc.offset);
}

// ---- Resumable register scan and the allocation memo -----------------

/** A fresh allocation for a request: exact, or bounded by the budget
    (nullopt when it does not fit), as the entry points return it. */
std::optional<AllocationOutcome>
freshAllocation(const LifetimeInfo &info, int budget, FitStrategy fit,
                bool exact)
{
    if (exact)
        return allocateLoop(info, budget, fit);
    return allocateWithinBudget(info, budget, fit);
}

TEST(RegisterScan, ResumedScansMatchFreshAllocationsInAnyRequestOrder)
{
    // One scan answers a random sequence of exact and bounded requests
    // over rising and falling budgets; each answer must equal a fresh
    // allocation of the same request, offsets included.
    constexpr int kCap = 64;
    Rng rng(0x5ca9);
    int resumed = 0;
    for (int set = 0; set < 3000; ++set) {
        LifetimeInfo info = randomLifetimes(rng, kCap);
        info.invariantCount = rng.range(0, 3);
        const FitStrategy fit = kFits[rng.range(0, 2)];
        const int top = allocateLoop(info, 0, fit).regsRequired;
        RegisterScan scan(info);
        for (int request = 0; request < 6; ++request) {
            const bool exact = rng.chance(0.3);
            const int budget = rng.range(0, std::min(top + 2, 4 * kCap));
            const int limit =
                exact ? INT_MAX : budget - info.invariantCount;
            const int bound = scan.bound(budget, limit);
            if (!scan.covers(bound)) {
                ++resumed;
                scan.extend(info, fit, bound);
            }
            ASSERT_TRUE(scan.covers(bound));
            const AllocationOutcome got = scan.outcome(budget, bound);
            const std::optional<AllocationOutcome> want =
                freshAllocation(info, budget, fit, exact);
            const std::string what = "set " + std::to_string(set) +
                                     " request " + std::to_string(request) +
                                     (exact ? " exact" : " bounded") +
                                     " budget " + std::to_string(budget);
            if (!want) {
                EXPECT_FALSE(got.fits) << what;
                continue;
            }
            std::string why;
            EXPECT_TRUE(sameOutcome(got, *want, &why)) << what << ": " << why;
            if (HasFailure())
                return;
        }
    }
    EXPECT_GT(resumed, 3000);
}

TEST(AllocationMemo, BoundedThenLargerThenExactMatchFreshAllocations)
{
    // The increase-II shape on real schedules: a bounded request below
    // the requirement, a larger bounded one that must resume the scan,
    // then the exact allocation, each equal to a fresh allocation.
    const Machine m = Machine::p2l4();
    SuiteParams params;
    params.numLoops = 300;
    AllocationMemo memo;
    long pairs = 0;
    for (int i = 0; i < params.numLoops; ++i) {
        const SuiteLoop loop = generateSuiteLoop(params, i);
        const PipelineResult ideal = pipelineIdeal(loop.graph, m);
        const Ddg &g = ideal.graph();
        const LifetimeInfo info = analyzeLifetimes(g, ideal.sched);
        for (const FitStrategy fit : kFits) {
            ++pairs;
            const AllocationOutcome exact = allocateLoop(info, 32, fit);
            const int need = exact.regsRequired;
            for (const int budget : {need - 1, need + 1}) {
                const auto got =
                    memo.allocateWithinBudget(g, ideal.sched, budget, fit);
                const auto want = allocateWithinBudget(info, budget, fit);
                ASSERT_EQ(got.has_value(), want.has_value())
                    << g.name() << " budget " << budget;
                std::string why;
                if (got) {
                    EXPECT_TRUE(sameOutcome(*got, *want, &why))
                        << g.name() << " budget " << budget << ": " << why;
                }
            }
            std::optional<LifetimeInfo> slot;
            const AllocationOutcome got =
                memo.allocateLoop(g, ideal.sched, 32, fit, &slot);
            EXPECT_FALSE(slot.has_value())
                << g.name() << ": the exact answer is already decided";
            std::string why;
            EXPECT_TRUE(sameOutcome(got, exact, &why)) << g.name() << ": "
                                                        << why;
            if (HasFailure())
                return;
        }
    }
    const AllocationMemo::Stats stats = memo.stats();
    EXPECT_EQ(stats.requests, 3 * pairs);
    EXPECT_EQ(stats.computes, pairs);
    EXPECT_EQ(stats.entries, pairs);
    // need - 1 scans up to need - 1 - invariants; need + 1 finds the
    // winner one R later, so every pair with room resumes once.
    EXPECT_GT(memo.resumes(), pairs / 2);
}

TEST(AllocationMemo, SpilledInvariantDoesNotShareAnEntry)
{
    // Spilling an invariant leaves the graph fingerprint unchanged (it
    // does not read invariants' spill state) but frees a register: the
    // memo key must tell the two graphs apart.
    const Ddg g = buildPaperExampleLoop();  // One invariant 'a'.
    Ddg spilled = g;
    spilled.invariant(0).spilled = true;
    ASSERT_EQ(graphFingerprint(g), graphFingerprint(spilled));
    ASSERT_EQ(spilled.numLiveInvariants(), g.numLiveInvariants() - 1);

    const Schedule s = paperFlatSchedule(2);
    AllocationMemo memo;
    std::string why;
    const Ddg *const requests[] = {&g, &spilled, &g, &spilled};
    for (const Ddg *graph : requests) {
        const AllocationOutcome got =
            memo.allocateLoop(*graph, s, 32, FitStrategy::EndFit);
        EXPECT_TRUE(sameOutcome(got, allocateLoop(*graph, s, 32), &why))
            << why;
        EXPECT_EQ(got.invariants, graph->numLiveInvariants());
    }
    EXPECT_EQ(memo.stats().entries, 2);
    EXPECT_EQ(memo.stats().requests, 4);
}

} // namespace
} // namespace swp
