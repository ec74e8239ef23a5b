/**
 * @file
 * Statistical micro-benchmarks of the library's hot components,
 * parameterized by loop size: MII computation, HRMS and IMS scheduling
 * at MII (HRMS also on a fresh graph per probe), rotating register
 * allocation, full constrained-pipeline runs
 * (iterative spill and increase-II), generation of the pinned suite, a
 * fixed slice of the paper grid through a fresh batch runner, and the
 * cycle-accurate simulator. These time individual layers
 * (google-benchmark's adaptive iteration applies), complementing the
 * figure-level harnesses that report one-shot experiment output.
 */

#include <benchmark/benchmark.h>

#include "common.hh"
#include "liferange/lifetimes.hh"
#include "pipeliner/pipeliner.hh"
#include "regalloc/rotalloc.hh"
#include "sched/hrms.hh"
#include "sched/ims.hh"
#include "sched/mii.hh"
#include "sim/vliw.hh"
#include "support/singleflight.hh"
#include "workload/suitegen.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

namespace
{

using namespace swp;

/** A deterministic loop of roughly the requested size. */
const SuiteLoop &
loopOfSize(int target)
{
    const std::vector<SuiteLoop> &suite = benchutil::evaluationSuite();
    static std::map<int, const SuiteLoop *> cache;
    const auto it = cache.find(target);
    if (it != cache.end())
        return *it->second;
    const SuiteLoop *best = &suite[0];
    for (const SuiteLoop &loop : suite) {
        if (std::abs(loop.graph.numNodes() - target) <
            std::abs(best->graph.numNodes() - target)) {
            best = &loop;
        }
    }
    cache[target] = best;
    return *best;
}

void
BM_Mii(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    for (auto _ : state)
        benchmark::DoNotOptimize(mii(loop.graph, m));
    state.SetLabel(loop.graph.name() + "/" +
                   std::to_string(loop.graph.numNodes()) + " nodes");
}
BENCHMARK(BM_Mii)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_HrmsAtMii(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const int lower = mii(loop.graph, m);
    HrmsScheduler hrms;
    for (auto _ : state)
        benchmark::DoNotOptimize(hrms.scheduleAt(loop.graph, m, lower));
}
BENCHMARK(BM_HrmsAtMii)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

/**
 * The `count` pinned loops closest in size to `target` (ties in suite
 * order), each with its MII on the bench machine.
 */
std::vector<std::pair<const SuiteLoop *, int>>
loopsNearSize(int target, std::size_t count, const Machine &m)
{
    const std::vector<SuiteLoop> &suite = benchutil::evaluationSuite();
    std::vector<const SuiteLoop *> loops;
    loops.reserve(suite.size());
    for (const SuiteLoop &loop : suite)
        loops.push_back(&loop);
    std::stable_sort(loops.begin(), loops.end(),
                     [&](const SuiteLoop *a, const SuiteLoop *b) {
                         return std::abs(a->graph.numNodes() - target) <
                                std::abs(b->graph.numNodes() - target);
                     });
    loops.resize(std::min(loops.size(), count));
    std::vector<std::pair<const SuiteLoop *, int>> out;
    out.reserve(loops.size());
    for (const SuiteLoop *loop : loops)
        out.emplace_back(loop, mii(loop->graph, m));
    return out;
}

void
BM_HrmsColdProbe(benchmark::State &state)
{
    // One probe at MII per iteration, through one scheduler object, on
    // 16 distinct loops of the size class in rotation. This is the
    // probe a spill round issues: each round rewrites the graph, so
    // the scheduler has not seen it and builds its per-graph plan
    // (groups, condensed graph, ranked recurrences) before ordering.
    // BM_HrmsAtMii re-probes one graph and times only plan reuse.
    const Machine m = benchutil::benchMachine();
    const auto loops = loopsNearSize(int(state.range(0)), 16, m);
    HrmsScheduler hrms;
    std::size_t next = 0;
    for (auto _ : state) {
        const auto &[loop, lower] = loops[next];
        next = (next + 1) % loops.size();
        benchmark::DoNotOptimize(hrms.scheduleAt(loop->graph, m, lower));
    }
}
BENCHMARK(BM_HrmsColdProbe)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_ImsAtMii(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const int lower = mii(loop.graph, m);
    ImsScheduler ims;
    for (auto _ : state)
        benchmark::DoNotOptimize(ims.scheduleAt(loop.graph, m, lower));
}
BENCHMARK(BM_ImsAtMii)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_HrmsIiSweep(benchmark::State &state)
{
    // Eight consecutive scheduleAt probes of one loop against one
    // scheduler object — the shape of an II search. Every probe after
    // the first reuses the workspace's scratch buffers and the loop's
    // per-graph plan, so this times the per-probe work: priorities,
    // ordering and placement.
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const int lower = mii(loop.graph, m);
    HrmsScheduler hrms;
    for (auto _ : state) {
        for (int ii = lower; ii < lower + 8; ++ii)
            benchmark::DoNotOptimize(hrms.scheduleAt(loop.graph, m, ii));
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_HrmsIiSweep)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_ImsIiSweep(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const int lower = mii(loop.graph, m);
    ImsScheduler ims;
    for (auto _ : state) {
        for (int ii = lower; ii < lower + 8; ++ii)
            benchmark::DoNotOptimize(ims.scheduleAt(loop.graph, m, ii));
    }
    state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ImsIiSweep)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_RotatingAllocation(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    const PipelineResult r = pipelineIdeal(loop.graph, m);
    const LifetimeInfo info = analyzeLifetimes(loop.graph, r.sched);
    for (auto _ : state)
        benchmark::DoNotOptimize(minRotatingRegs(info));
}
BENCHMARK(BM_RotatingAllocation)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_ConstrainedPipeline(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    PipelinerOptions opts;
    opts.registers = 32;
    opts.multiSelect = true;
    opts.reuseLastIi = true;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pipelineLoop(loop.graph, m, Strategy::Spill, opts));
    }
}
BENCHMARK(BM_ConstrainedPipeline)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_IncreaseIiPipeline(benchmark::State &state)
{
    // The increase-II strategy: one schedule and one budget-bounded
    // allocation per II probe, plus — only when the MII probe does not
    // fit — the acyclic schedule that caps II.
    const SuiteLoop &loop = loopOfSize(int(state.range(0)));
    const Machine m = benchutil::benchMachine();
    PipelinerOptions opts;
    opts.registers = 32;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pipelineLoop(loop.graph, m, Strategy::IncreaseII, opts));
    }
}
BENCHMARK(BM_IncreaseIiPipeline)->Arg(8)->Arg(24)->Arg(48)->Arg(80);

void
BM_GenerateSuite(benchmark::State &state)
{
    // Set-up layer: the pinned 1258-loop default-seed suite, generated
    // serially as every batch front end does before its run. Ignores
    // --loops/--seed so the number tracks one fixed workload.
    const SuiteParams params;
    for (auto _ : state)
        benchmark::DoNotOptimize(generateSuite(params));
    state.SetItemsProcessed(state.iterations() * long(params.numLoops));
}
BENCHMARK(BM_GenerateSuite)->Unit(benchmark::kMillisecond);

void
BM_SuiteRunnerBatch(benchmark::State &state)
{
    // Whole-suite constrained pipelining through the shared batch
    // driver; honours --threads, so this benchmark doubles as the
    // wall-clock measurement of the worker-pool speedup.
    const std::vector<SuiteLoop> &suite = benchutil::evaluationSuite();
    const Machine m = benchutil::benchMachine();
    SuiteRunner &runner = benchutil::suiteRunner();
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        jobs.push_back(benchutil::variantJob(
            int(i), benchutil::Variant::MaxLtTrafMultiLastIi, 32));
    }
    // Honours --shard too, so a sharded process times exactly
    // the slice of the grid it would evaluate in a cluster run.
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runner.run(suite, m, jobs, benchutil::benchRunOptions()));
    }
    std::size_t owned = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        owned += benchutil::ownsJob(i);
    state.SetItemsProcessed(state.iterations() * long(owned));
    state.SetLabel(std::to_string(runner.threads()) + " thread(s)" +
                   benchutil::shardSuffix());
}
BENCHMARK(BM_SuiteRunnerBatch)->Unit(benchmark::kMillisecond)->Iterations(1);

void
BM_SuiteRunnerGridSlice(benchmark::State &state)
{
    // The paper's Table 1 / Figure 9 cross-product on a fixed slice:
    // the first 128 pinned loops x {ideal, {increase-II, spill,
    // best-of-all} x {64, 32} registers}, 896 jobs, through a fresh
    // one-thread runner per iteration, so every memo starts cold and
    // only the grid's own repeats hit. The strategies mostly reach the
    // same schedules, so this is where the allocation memo pays. Ignores
    // --loops/--seed/--threads so the number tracks one fixed workload.
    static const std::vector<SuiteLoop> slice = [] {
        const SuiteParams params;
        std::vector<SuiteLoop> loops;
        for (int i = 0; i < 128; ++i)
            loops.push_back(generateSuiteLoop(params, i));
        return loops;
    }();
    const Machine m = benchutil::benchMachine();
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < slice.size(); ++i) {
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
    for (auto _ : state) {
        SuiteRunner runner(1);
        benchmark::DoNotOptimize(runner.run(slice, m, jobs));
    }
    state.SetItemsProcessed(state.iterations() * long(jobs.size()));
}
BENCHMARK(BM_SuiteRunnerGridSlice)->Unit(benchmark::kMillisecond);

void
BM_Simulator(benchmark::State &state)
{
    const SuiteLoop &loop = loopOfSize(24);
    const Machine m = benchutil::benchMachine();
    const PipelineResult r = pipelineIdeal(loop.graph, m);
    SimConfig cfg;
    cfg.iterations = state.range(0);
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulatePipelined(
            r.graph(), m, r.sched, r.alloc.rotAlloc, cfg));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Simulator)->Arg(16)->Arg(64)->Arg(256);

// ---- Memo contention: the single-flight hit path -------------------
//
// Every thread hammers the same already-computed key, the worst
// contention case a memo-hot grid produces: hits serialize on the
// cache's one mutex. Compare the /threads:1 and /threads:8 rows to see
// what a hit costs against a job of hundreds of microseconds
// (bench/scaling measures the end-to-end effect).

constexpr std::uint64_t kHotKey = 42;

std::uint64_t
hotCompute()
{
    return kHotKey * kHotKey;
}

void
BM_MemoContention(benchmark::State &state)
{
    static SingleFlightCache<std::uint64_t, std::uint64_t> cache;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        sink += cache.getOrCompute(kHotKey, hotCompute,
                                   [](const std::uint64_t &) {});
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoContention)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime();

} // namespace

SWP_BENCH_MAIN_NATIVE_JSON("micro_components");
