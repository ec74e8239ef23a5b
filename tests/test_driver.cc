/**
 * @file
 * Batch driver tests: deterministic results at any thread count on the
 * pinned-seed suite — with the schedule memo on or off — the
 * single-flight MII/RecMII and schedule memos, the fork-join dispatch
 * over one shared claim cursor, and the parallel-for primitive.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "driver/suite_runner.hh"
#include "sched/fingerprint.hh"
#include "sched/mii.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

/** A small pinned-seed suite plus a mixed job grid over it. */
std::vector<SuiteLoop>
testSuite(int loops)
{
    SuiteParams params;  // Pinned default seed.
    params.numLoops = loops;
    return generateSuite(params);
}

std::vector<BatchJob>
mixedGrid(std::size_t loops)
{
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < loops; ++i) {
        BatchJob spill;
        spill.loop = int(i);
        spill.strategy = Strategy::Spill;
        spill.options.registers = 32;
        spill.options.multiSelect = true;
        spill.options.reuseLastIi = true;
        jobs.push_back(spill);

        BatchJob incr;
        incr.loop = int(i);
        incr.strategy = Strategy::IncreaseII;
        incr.options.registers = 32;
        jobs.push_back(incr);

        BatchJob ideal;
        ideal.loop = int(i);
        ideal.ideal = true;
        jobs.push_back(ideal);

        BatchJob best;
        best.loop = int(i);
        best.strategy = Strategy::BestOfAll;
        best.options.registers = 16;
        best.options.multiSelect = true;
        best.options.reuseLastIi = true;
        jobs.push_back(best);
    }
    return jobs;
}

/**
 * The paper's Table 1 / Figure 9 cross-product over an n-loop suite:
 * per loop, ideal plus {increase-II, spill, best-of-all} x {64, 32}
 * registers, with the Section 4.5 heuristics on for the spilling
 * strategies (the benchmark's grid-paper job list).
 */
std::vector<BatchJob>
gridPaperJobs(std::size_t loops)
{
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < loops; ++i) {
        BatchJob ideal;
        ideal.loop = int(i);
        ideal.ideal = true;
        jobs.push_back(ideal);
        for (const Strategy s : {Strategy::IncreaseII, Strategy::Spill,
                                 Strategy::BestOfAll}) {
            for (const int registers : {64, 32}) {
                BatchJob job;
                job.loop = int(i);
                job.strategy = s;
                job.options.registers = registers;
                job.options.multiSelect = s != Strategy::IncreaseII;
                job.options.reuseLastIi = s != Strategy::IncreaseII;
                jobs.push_back(job);
            }
        }
    }
    return jobs;
}

/**
 * Greedy list-scheduling model of the shared-cursor claim: whichever
 * worker frees up first (ties to the lower index) takes the next plan
 * position, and position k costs costs[order[k]]. A worker is busy from
 * time 0 until it retires, so its free time is its load. Returns each
 * worker's total busy time, so load-balance claims can be asserted
 * deterministically, without racing real threads.
 */
std::vector<double>
simulateWorkerLoads(const std::vector<double> &costs,
                    const std::vector<std::size_t> &order, int workers)
{
    std::vector<double> load(std::size_t(workers), 0.0);
    for (const std::size_t job : order)
        *std::min_element(load.begin(), load.end()) += costs[job];
    return load;
}

void
expectIdenticalResults(const PipelineResult &a, const PipelineResult &b,
                       std::size_t job)
{
    EXPECT_EQ(a.success, b.success) << "job " << job;
    EXPECT_EQ(a.usedFallback, b.usedFallback) << "job " << job;
    EXPECT_EQ(a.mii, b.mii) << "job " << job;
    EXPECT_EQ(a.rounds, b.rounds) << "job " << job;
    EXPECT_EQ(a.attempts, b.attempts) << "job " << job;
    EXPECT_EQ(a.spilledLifetimes, b.spilledLifetimes) << "job " << job;
    EXPECT_EQ(a.strategy, b.strategy) << "job " << job;
    EXPECT_EQ(a.ii(), b.ii()) << "job " << job;
    EXPECT_EQ(a.alloc.fits, b.alloc.fits) << "job " << job;
    EXPECT_EQ(a.alloc.regsRequired, b.alloc.regsRequired)
        << "job " << job;
    EXPECT_EQ(a.alloc.rotating, b.alloc.rotating) << "job " << job;
    EXPECT_EQ(a.alloc.invariants, b.alloc.invariants) << "job " << job;
    EXPECT_EQ(a.alloc.maxLive, b.alloc.maxLive) << "job " << job;
    EXPECT_EQ(a.alloc.rotAlloc.ok, b.alloc.rotAlloc.ok) << "job " << job;
    EXPECT_EQ(a.alloc.rotAlloc.registers, b.alloc.rotAlloc.registers)
        << "job " << job;
    EXPECT_EQ(a.alloc.rotAlloc.offset, b.alloc.rotAlloc.offset)
        << "job " << job;
    EXPECT_EQ(a.memOpsPerIteration(), b.memOpsPerIteration())
        << "job " << job;
    ASSERT_EQ(a.graph().numNodes(), b.graph().numNodes())
        << "job " << job;
    for (NodeId n = 0; n < a.graph().numNodes(); ++n) {
        EXPECT_EQ(a.sched.time(n), b.sched.time(n))
            << "job " << job << " node " << n;
        EXPECT_EQ(a.sched.unit(n), b.sched.unit(n))
            << "job " << job << " node " << n;
    }
}

TEST(SuiteRunner, ResultsIdenticalAtOneAndManyThreads)
{
    const std::vector<SuiteLoop> suite = testSuite(40);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner serial(1);
    SuiteRunner pooled(4);
    const auto a = serial.run(suite, m, jobs);
    const auto b = pooled.run(suite, m, jobs);

    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdenticalResults(a[i], b[i], i);

    // The harnesses' accumulated floating-point totals must also match
    // bit-for-bit: same values reduced in the same (index) order.
    double cyclesA = 0, cyclesB = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const long w = suite[std::size_t(jobs[i].loop)].iterations;
        cyclesA += double(a[i].ii()) * double(w);
        cyclesB += double(b[i].ii()) * double(w);
    }
    EXPECT_EQ(cyclesA, cyclesB);
}

TEST(SuiteRunner, RepeatedRunsAreIdentical)
{
    // The MII memo and scheduler reuse must not make a second pass over
    // the same grid diverge from the first.
    const std::vector<SuiteLoop> suite = testSuite(12);
    const Machine m = Machine::p1l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner runner(3);
    const auto first = runner.run(suite, m, jobs);
    const auto second = runner.run(suite, m, jobs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdenticalResults(first[i], second[i], i);
}

TEST(SuiteRunner, BoundsMatchDirectComputation)
{
    const std::vector<SuiteLoop> suite = testSuite(8);
    SuiteRunner runner(2);
    for (const Machine &m : {Machine::p1l4(), Machine::p2l6()}) {
        for (const SuiteLoop &loop : suite) {
            const SuiteRunner::LoopBounds b = runner.bounds(loop.graph, m);
            EXPECT_EQ(b.mii, mii(loop.graph, m)) << loop.graph.name();
            EXPECT_EQ(b.recMii, recMii(loop.graph, m))
                << loop.graph.name();
            // Second lookup hits the memo and must agree.
            const SuiteRunner::LoopBounds again =
                runner.bounds(loop.graph, m);
            EXPECT_EQ(again.mii, b.mii);
            EXPECT_EQ(again.recMii, b.recMii);
        }
    }
}

TEST(SuiteRunner, BoundsDistinguishSameNamedMachines)
{
    // The memo key must reflect the machine's configuration, not just
    // its (non-unique) name.
    const std::vector<SuiteLoop> suite = testSuite(1);
    const Ddg &g = suite[0].graph;
    const Machine wide = Machine::universal("m", 8, 2);
    const Machine narrow = Machine::universal("m", 1, 2);
    SuiteRunner runner(1);
    EXPECT_EQ(runner.bounds(g, wide).mii, mii(g, wide));
    EXPECT_EQ(runner.bounds(g, narrow).mii, mii(g, narrow));
    EXPECT_GT(runner.bounds(g, narrow).mii, runner.bounds(g, wide).mii);
}

TEST(SuiteRunner, ScheduleMemoOnOffAndThreadCountsAllAgree)
{
    // The schedule memo changes the work, never the answer: every
    // combination of memo on/off and 1/N threads yields bit-identical
    // results.
    const std::vector<SuiteLoop> suite = testSuite(16);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner memoSerial(1, true);
    SuiteRunner memoPooled(4, true);
    SuiteRunner plainSerial(1, false);
    SuiteRunner plainPooled(4, false);

    const auto a = memoSerial.run(suite, m, jobs);
    const auto b = memoPooled.run(suite, m, jobs);
    const auto c = plainSerial.run(suite, m, jobs);
    const auto d = plainPooled.run(suite, m, jobs);
    ASSERT_EQ(a.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectIdenticalResults(a[i], b[i], i);
        expectIdenticalResults(a[i], c[i], i);
        expectIdenticalResults(a[i], d[i], i);
    }

    // The memoized runners actually used the memo; the plain ones never
    // touched it.
    EXPECT_GT(memoSerial.memoStats().schedule.requests, 0);
    EXPECT_GT(memoPooled.memoStats().schedule.requests, 0);
    EXPECT_EQ(plainSerial.memoStats().schedule.requests, 0);
    EXPECT_EQ(plainPooled.memoStats().schedule.requests, 0);
}

TEST(SuiteRunner, ScheduleMemoEliminatesReworkAcrossBatches)
{
    // A second pass over the same grid must hit the memo on every
    // probe: zero new scheduler computations.
    const std::vector<SuiteLoop> suite = testSuite(10);
    const Machine m = Machine::p1l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner runner(3);
    const auto first = runner.run(suite, m, jobs);
    const auto statsAfterFirst = runner.memoStats();
    EXPECT_GT(statsAfterFirst.schedule.computes, 0);
    EXPECT_LT(statsAfterFirst.schedule.computes,
              statsAfterFirst.schedule.requests)
        << "the grid itself repeats probes (best-of-all, ideal/spill "
           "overlap) that the memo must serve from cache";

    const auto second = runner.run(suite, m, jobs);
    const auto statsAfterSecond = runner.memoStats();
    EXPECT_EQ(statsAfterSecond.schedule.computes,
              statsAfterFirst.schedule.computes)
        << "re-running an identical batch scheduled something again";
    EXPECT_GT(statsAfterSecond.schedule.requests,
              statsAfterFirst.schedule.requests);

    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdenticalResults(first[i], second[i], i);
}

TEST(SuiteRunner, MemosOnOffAgreeOnTheWholePinnedPaperGrid)
{
    // The allocation memo answers most of this grid's requests from
    // entries another strategy or budget created, so every result —
    // allocation offsets included — must match a memo-free run, at one
    // thread and at four.
    const std::vector<SuiteLoop> suite = testSuite(1258);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = gridPaperJobs(suite.size());
    ASSERT_EQ(jobs.size(), 8806u);

    SuiteRunner plain(1, false);
    const auto reference = plain.run(suite, m, jobs);
    EXPECT_EQ(plain.memoStats().allocation.requests, 0);
    for (const int threads : {1, 4}) {
        SuiteRunner memo(threads, true);
        const auto results = memo.run(suite, m, jobs);
        ASSERT_EQ(results.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i)
            expectIdenticalResults(reference[i], results[i], i);

        const SingleFlightStats alloc = memo.memoStats().allocation;
        EXPECT_EQ(alloc.computes, alloc.entries) << threads << " threads";
        EXPECT_LT(2 * alloc.computes, alloc.requests)
            << "most of the grid's allocations repeat earlier ones";
    }
    SuiteRunner memoOff4(4, false);
    const auto offPooled = memoOff4.run(suite, m, jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expectIdenticalResults(reference[i], offPooled[i], i);
}

TEST(SuiteRunner, AllocationMemoServesRepeatsFromCache)
{
    // Within one batch the strategies and budgets repeat allocations;
    // a second identical batch allocates nothing new.
    const std::vector<SuiteLoop> suite = testSuite(12);
    const Machine m = Machine::p1l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner runner(3);
    const auto first = runner.run(suite, m, jobs);
    const SingleFlightStats afterFirst = runner.memoStats().allocation;
    EXPECT_GT(afterFirst.computes, 0);
    EXPECT_LT(afterFirst.computes, afterFirst.requests)
        << "ideal, increase-II and best-of-all reach the same schedules";
    EXPECT_EQ(afterFirst.computes, afterFirst.entries)
        << "two workers analyzed one schedule";

    const long resumes = runner.allocationMemo().resumes();
    const auto second = runner.run(suite, m, jobs);
    const SingleFlightStats afterSecond = runner.memoStats().allocation;
    EXPECT_EQ(afterSecond.computes, afterFirst.computes);
    EXPECT_EQ(afterSecond.entries, afterFirst.entries);
    EXPECT_EQ(afterSecond.requests, 2 * afterFirst.requests);
    EXPECT_EQ(runner.allocationMemo().resumes(), resumes)
        << "a repeated request scanned registers again";
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdenticalResults(first[i], second[i], i);
}

TEST(SuiteRunner, MemosAreSingleFlight)
{
    // Two workers must never compute the same memo key: the number of
    // computations equals the number of distinct keys, with all the
    // rest of the traffic served as hits (duplicate-compute count is
    // exactly zero).
    const std::vector<SuiteLoop> suite = testSuite(6);
    const Machine m = Machine::p2l6();
    SuiteRunner runner(8);

    runner.parallelFor(48, [&](std::size_t i) {
        (void)runner.bounds(suite[i % suite.size()].graph, m);
    });
    const SingleFlightStats bounds = runner.memoStats().bounds;
    EXPECT_EQ(bounds.requests, 48);
    EXPECT_EQ(bounds.entries, long(suite.size()));
    EXPECT_EQ(bounds.computes - bounds.entries, 0)
        << "two workers raced to compute one key's MII/RecMII";

    const std::vector<BatchJob> jobs = mixedGrid(suite.size());
    (void)runner.run(suite, m, jobs);
    const SingleFlightStats sched = runner.memoStats().schedule;
    EXPECT_GT(sched.requests, 0);
    EXPECT_EQ(sched.computes - sched.entries, 0)
        << "two workers raced to schedule one probe";
    const SingleFlightStats alloc = runner.memoStats().allocation;
    EXPECT_GT(alloc.requests, 0);
    EXPECT_EQ(alloc.computes - alloc.entries, 0)
        << "two workers raced to allocate one schedule";
}

TEST(SuiteRunner, PoolSurvivesAFailedBatchAndRunsAgain)
{
    // A runner must stay usable after a batch whose jobs throw: the
    // failed batch leaves no state behind, and the next dispatch
    // covers every index.
    SuiteRunner runner(4);
    EXPECT_THROW(runner.parallelFor(64,
                                    [](std::size_t i) {
                                        if (i % 7 == 3)
                                            throw std::runtime_error("x");
                                    }),
                 std::runtime_error);

    std::vector<int> hits(500, 0);
    runner.parallelFor(hits.size(),
                       [&](std::size_t i) { hits[i] += int(i) + 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], int(i) + 1) << i;
}

TEST(SuiteRunner, NestedParallelForRunsInlineWithoutDeadlock)
{
    // A job that itself calls parallelFor on the same runner runs the
    // inner loop inline instead of forking again.
    SuiteRunner runner(4);
    std::vector<int> outer(16, 0);
    runner.parallelFor(outer.size(), [&](std::size_t i) {
        int inner = 0;
        runner.parallelFor(8, [&](std::size_t) { ++inner; });
        outer[i] = inner;
    });
    for (std::size_t i = 0; i < outer.size(); ++i)
        EXPECT_EQ(outer[i], 8) << i;
}

TEST(Fingerprint, EquivalenceMatchesFingerprintCoverage)
{
    // The debug collision check compares exactly the structure the
    // fingerprints hash: scheduling-relevant differences break
    // equivalence, irrelevant ones (node names) do not.
    const std::vector<SuiteLoop> suite = testSuite(2);
    const Ddg &a = suite[0].graph;
    EXPECT_TRUE(graphsFingerprintEquivalent(a, a));

    Ddg sameStructure = a;
    sameStructure.node(0).name = "renamed";  // Detaches the CoW copy.
    EXPECT_FALSE(sameStructure.sharesStorageWith(a));
    EXPECT_TRUE(graphsFingerprintEquivalent(a, sameStructure));
    EXPECT_EQ(graphFingerprint(a), graphFingerprint(sameStructure));

    Ddg changedDistance = a;
    changedDistance.edge(0).distance += 1;
    EXPECT_FALSE(graphsFingerprintEquivalent(a, changedDistance));
    EXPECT_NE(graphFingerprint(a), graphFingerprint(changedDistance));

    EXPECT_FALSE(graphsFingerprintEquivalent(a, suite[1].graph));

    const Machine p2l4 = Machine::p2l4();
    EXPECT_TRUE(machinesFingerprintEquivalent(p2l4, Machine::p2l4()));
    EXPECT_FALSE(machinesFingerprintEquivalent(p2l4, Machine::p2l6()));
    EXPECT_FALSE(machinesFingerprintEquivalent(
        Machine::universal("m", 8, 2), Machine::universal("m", 1, 2)));
}

TEST(SuiteRunner, ParallelForCoversEveryIndexOnce)
{
    SuiteRunner runner(8);
    std::vector<int> hits(1000, 0);
    runner.parallelFor(hits.size(),
                       [&](std::size_t i) { hits[i] += int(i) + 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], int(i) + 1) << i;
}

TEST(SuiteRunner, ExceptionsPropagateToTheCaller)
{
    SuiteRunner runner(4);
    EXPECT_THROW(runner.parallelFor(64,
                                    [](std::size_t i) {
                                        if (i == 17)
                                            throw std::runtime_error("x");
                                    }),
                 std::runtime_error);
}

TEST(SuiteRunner, ZeroThreadsSelectsHardwareConcurrency)
{
    SuiteRunner runner(0);
    EXPECT_GE(runner.threads(), 1);
}

TEST(SuiteRunner, ShardsAndThreadsAllAgree)
{
    // Ordering, claiming, and sharding change when (and where) a job
    // runs — never its result: every combination agrees slot for slot
    // with the serial baseline on the slots it evaluated.
    const std::vector<SuiteLoop> suite = testSuite(10);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner serial(1);
    const auto baseline = serial.run(suite, m, jobs);

    for (const int threads : {1, 4}) {
        for (const int shards : {1, 3}) {
            for (int s = 0; s < shards; ++s) {
                SuiteRunner runner(threads);
                RunOptions opts;
                opts.shard = ShardSpec{s, shards};
                const auto results = runner.run(suite, m, jobs, opts);
                ASSERT_EQ(results.size(), jobs.size());
                for (std::size_t i = 0; i < jobs.size(); ++i) {
                    if (opts.shard.owns(i))
                        expectIdenticalResults(baseline[i], results[i], i);
                }
            }
        }
    }
}

TEST(SuiteRunner, PlanJobOrderIsAHeaviestFirstPermutation)
{
    const std::vector<SuiteLoop> suite = testSuite(24);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());
    SuiteRunner runner(1);

    RunOptions opts;  // No shard.
    const std::vector<std::size_t> order =
        runner.planJobOrder(suite, m, jobs, opts);
    ASSERT_EQ(order.size(), jobs.size());
    std::vector<bool> seen(jobs.size(), false);
    double prev = std::numeric_limits<double>::infinity();
    for (const std::size_t i : order) {
        ASSERT_LT(i, jobs.size());
        EXPECT_FALSE(seen[i]) << "index " << i << " planned twice";
        seen[i] = true;
        const double cost = runner.jobCost(suite, m, jobs[i]);
        EXPECT_LE(cost, prev) << "order is not heaviest-first at " << i;
        prev = cost;
    }

    // The plan is deterministic and sharded plans partition it.
    EXPECT_EQ(order, runner.planJobOrder(suite, m, jobs, opts));
    for (int s = 0; s < 3; ++s) {
        RunOptions sharded;
        sharded.shard = ShardSpec{s, 3};
        for (const std::size_t i :
             runner.planJobOrder(suite, m, jobs, sharded))
            EXPECT_TRUE(sharded.shard.owns(i));
    }
}

TEST(SuiteRunner, ClaimOrderNeverReordersResultsOnRandomGrids)
{
    // Property/fuzz over seeded random DDG suites: whatever the cost
    // model decides, results stay slot-addressed and byte-identical
    // across thread counts.
    for (const std::uint64_t seed : {1ull, 99ull, 0xdecafull}) {
        SuiteParams params;
        params.seed = seed;
        params.numLoops = 8;
        const std::vector<SuiteLoop> suite = generateSuite(params);
        const Machine m = Machine::p1l4();
        const std::vector<BatchJob> jobs = mixedGrid(suite.size());

        SuiteRunner serial(1);
        const auto baseline = serial.run(suite, m, jobs);
        for (const int threads : {2, 4}) {
            SuiteRunner pooled(threads);
            const auto results = pooled.run(suite, m, jobs);
            for (std::size_t i = 0; i < jobs.size(); ++i)
                expectIdenticalResults(baseline[i], results[i], i);
        }
    }
}

TEST(SuiteRunner, HeaviestFirstOrderingImprovesHeavyTailLoadSpread)
{
    // The load-balance claim behind planJobOrder, asserted on the
    // shared-cursor model: on a grid whose few heavy jobs sit at the
    // tail, grid order claims them last, after every worker is already
    // loaded, while heaviest-first ordering starts them at once and
    // lets the other workers drain the light jobs around them —
    // strictly shrinking the makespan.
    const int workers = 4;
    std::vector<double> costs(64, 1.0);
    for (std::size_t i = costs.size() - 2; i < costs.size(); ++i)
        costs[i] = 40.0;  // Heavy tail.

    std::vector<std::size_t> gridOrder(costs.size());
    std::iota(gridOrder.begin(), gridOrder.end(), 0);
    std::vector<std::size_t> heavyFirst = gridOrder;
    std::stable_sort(heavyFirst.begin(), heavyFirst.end(),
                     [&](std::size_t a, std::size_t b) {
                         return costs[a] > costs[b];
                     });

    const std::vector<double> gridLoads =
        simulateWorkerLoads(costs, gridOrder, workers);
    const std::vector<double> plannedLoads =
        simulateWorkerLoads(costs, heavyFirst, workers);

    const auto makespan = [](const std::vector<double> &loads) {
        return *std::max_element(loads.begin(), loads.end());
    };
    EXPECT_LT(makespan(plannedLoads), makespan(gridLoads));

    // Both orders execute all the work exactly once.
    const double total =
        std::accumulate(costs.begin(), costs.end(), 0.0);
    EXPECT_DOUBLE_EQ(
        std::accumulate(gridLoads.begin(), gridLoads.end(), 0.0), total);
    EXPECT_DOUBLE_EQ(
        std::accumulate(plannedLoads.begin(), plannedLoads.end(), 0.0),
        total);

    // And on the real cost model: the heaviest-first plan of a real
    // grid never yields a worse simulated makespan than grid order.
    const std::vector<SuiteLoop> suite = testSuite(32);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());
    SuiteRunner runner(1);
    std::vector<double> gridCosts(jobs.size());
    std::vector<std::size_t> byIndex(jobs.size());
    std::iota(byIndex.begin(), byIndex.end(), 0);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        gridCosts[i] = runner.jobCost(suite, m, jobs[i]);
    const std::vector<std::size_t> planned =
        runner.planJobOrder(suite, m, jobs);
    EXPECT_LE(
        makespan(simulateWorkerLoads(gridCosts, planned, workers)),
        makespan(simulateWorkerLoads(gridCosts, byIndex, workers)));
}

TEST(SuiteRunner, ClaimOrderDeterministicAcrossInterleavings)
{
    // Results must not depend on which worker claims which job. The
    // jitter hook perturbs every claim with a seeded spin, forcing 20
    // different claim interleavings; all must match the serial run
    // byte-for-byte.
    const std::vector<SuiteLoop> suite = testSuite(10);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner serial(1);
    const auto baseline = serial.run(suite, m, jobs);

    for (unsigned seed = 1; seed <= 20; ++seed) {
        SuiteRunner::setClaimJitterForTesting(seed);
        SuiteRunner pooled(8);
        const auto results = pooled.run(suite, m, jobs);
        ASSERT_EQ(results.size(), baseline.size()) << "seed " << seed;
        for (std::size_t i = 0; i < results.size(); ++i)
            expectIdenticalResults(baseline[i], results[i], i);
    }
    SuiteRunner::setClaimJitterForTesting(0);
}

TEST(SuiteRunner, WorkerPerfCountsEveryJobOnce)
{
    const std::vector<SuiteLoop> suite = testSuite(8);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    // Perf counts every dispatched work item: the grid's jobs plus
    // the planner's per-distinct-loop bounds prefetch.
    const long expected = long(jobs.size()) + long(suite.size());

    SuiteRunner pooled(4);
    (void)pooled.run(suite, m, jobs);
    long jobsSeen = 0;
    double schedule = 0;
    for (const WorkerPerf &w : pooled.workerPerf()) {
        jobsSeen += w.jobs;
        schedule += w.scheduleSeconds;
        EXPECT_GE(w.memoWaitSeconds, 0.0);
        EXPECT_GE(w.stealSeconds, 0.0);
    }
    EXPECT_EQ(jobsSeen, expected);
    EXPECT_GT(schedule, 0.0);

    pooled.resetWorkerPerf();
    for (const WorkerPerf &w : pooled.workerPerf()) {
        EXPECT_EQ(w.jobs, 0);
        EXPECT_EQ(w.steals, 0);
        EXPECT_EQ(w.scheduleSeconds, 0.0);
    }

    // The serial path accounts on worker slot 0.
    SuiteRunner serial(1);
    (void)serial.run(suite, m, jobs);
    const std::vector<WorkerPerf> sp = serial.workerPerf();
    ASSERT_EQ(sp.size(), 1u);
    EXPECT_EQ(sp[0].jobs, expected);
    EXPECT_EQ(sp[0].steals, 0);
}

TEST(SuiteRunner, WorkerPerfCountsJobsOfAFailedBatch)
{
    // A job that throws still ran: every invocation, the failing one
    // included, is counted on some worker, on a one-thread runner as
    // well as on a multi-threaded one.
    for (const int threads : {1, 4}) {
        SuiteRunner runner(threads);
        std::atomic<long> calls{0};
        EXPECT_THROW(runner.parallelFor(5,
                                        [&](std::size_t i) {
                                            ++calls;
                                            if (i == 3)
                                                throw std::runtime_error(
                                                    "x");
                                        }),
                     std::runtime_error);
        long jobs = 0;
        for (const WorkerPerf &w : runner.workerPerf())
            jobs += w.jobs;
        EXPECT_GE(calls.load(), 1) << threads << " threads";
        EXPECT_EQ(jobs, calls.load()) << threads << " threads";
        if (threads == 1) {
            EXPECT_EQ(jobs, 4) << "one worker claims 0..3 in order";
        }
    }
}

TEST(SuiteRunner, ConcurrentRunsOnOneRunnerMatchSerial)
{
    // Two threads may call run() on one runner at once: each call forks
    // its own workers over the shared memos, and both results match a
    // serial run byte for byte.
    const std::vector<SuiteLoop> suite = testSuite(10);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = mixedGrid(suite.size());

    SuiteRunner serial(1);
    const auto baseline = serial.run(suite, m, jobs);

    SuiteRunner shared(4);
    std::vector<PipelineResult> a, b;
    std::thread ta([&] { a = shared.run(suite, m, jobs); });
    std::thread tb([&] { b = shared.run(suite, m, jobs); });
    ta.join();
    tb.join();
    ASSERT_EQ(a.size(), jobs.size());
    ASSERT_EQ(b.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        expectIdenticalResults(baseline[i], a[i], i);
        expectIdenticalResults(baseline[i], b[i], i);
    }
}

TEST(SuiteRunner, ParseThreadsArgAcceptsAutoAndChecksRange)
{
    int out = -1;
    EXPECT_TRUE(parseThreadsArg("auto", out));
    EXPECT_EQ(out, 0); // 0 resolves to hardware_concurrency.
    EXPECT_TRUE(parseThreadsArg("0", out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(parseThreadsArg("8", out));
    EXPECT_EQ(out, 8);
    out = 99;
    EXPECT_FALSE(parseThreadsArg("", out));
    EXPECT_FALSE(parseThreadsArg("eight", out));
    EXPECT_FALSE(parseThreadsArg("-1", out));
    EXPECT_FALSE(parseThreadsArg("8x", out));
    EXPECT_FALSE(parseThreadsArg("1000000", out));
    EXPECT_EQ(out, 99); // Failed parses leave the value untouched.
}

TEST(SuiteRunner, ResultsReferenceSuiteGraphsUnlessTransformed)
{
    // The lean PipelineResult must not copy the input Ddg: an untouched
    // loop's result points straight into the suite.
    const std::vector<SuiteLoop> suite = testSuite(6);
    const Machine m = Machine::p2l4();
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        BatchJob job;
        job.loop = int(i);
        job.ideal = true;
        jobs.push_back(job);
    }
    SuiteRunner runner(2);
    const auto results = runner.run(suite, m, jobs);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].ownsGraph()) << i;
        EXPECT_EQ(&results[i].graph(), &suite[i].graph) << i;
    }
}

} // namespace
} // namespace swp
