/**
 * @file
 * Thread-scaling benchmark of the batch evaluator: the same grid is
 * dispatched at 1, 2, 4, ... worker threads and the headline is
 * jobs/sec per thread count (BM_ScalingJobsPerSec — the perf-diff
 * gate watches it), recorded in BENCH_scaling.json.
 *
 * Every benchmark iteration re-runs the identical jobs against a
 * runner whose memos were warmed by one untimed pass, so the
 * scheduling probes and register allocations are memo hits. Spill
 * selection and insertion (with the lifetime analysis of every
 * over-budget round) and verification are not memoized and still run
 * in every job, so the rows measure whole-job throughput per thread
 * count, not memo lookups; micro_components covers the individual
 * layers.
 *
 * Each thread count also reports the per-worker counter breakdown:
 * schedule_s / memo_wait_s / claim_s totals as benchmark counters, and
 * a per-worker table on stderr. Counters are observability only —
 * results stay byte-identical at every thread count.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "driver/suite_runner.hh"

namespace
{

using namespace swp;

/** Every suite loop x {ideal, spill@24, spill@48, best-of-all@32}:
    a spread of strategies whose schedule probes overlap heavily. */
std::vector<BatchJob>
scalingGrid(std::size_t loops)
{
    std::vector<BatchJob> jobs;
    jobs.reserve(loops * 4);
    for (std::size_t i = 0; i < loops; ++i) {
        const int loop = int(i);
        jobs.push_back(benchutil::variantJob(loop, benchutil::Variant::Ideal,
                                             32));
        jobs.push_back(benchutil::variantJob(
            loop, benchutil::Variant::MaxLtTrafMultiLastIi, 24));
        jobs.push_back(benchutil::variantJob(
            loop, benchutil::Variant::MaxLtTrafMultiLastIi, 48));
        jobs.push_back(benchutil::variantJob(
            loop, benchutil::Variant::BestOfAll, 32));
    }
    return jobs;
}

void
runScaling(benchmark::State &state, int threads)
{
    const std::vector<SuiteLoop> &suite = benchutil::evaluationSuite();
    const Machine m = benchutil::benchMachine();
    const std::vector<BatchJob> jobs = scalingGrid(suite.size());
    const RunOptions ropts = benchutil::benchUnshardedOptions();

    SuiteRunner runner(threads, benchutil::benchOptions().memo);
    runner.run(suite, m, jobs, ropts); // Warm the memos once, untimed.
    runner.resetWorkerPerf();

    for (auto _ : state)
        benchmark::DoNotOptimize(runner.run(suite, m, jobs, ropts));

    state.SetItemsProcessed(state.iterations() * int64_t(jobs.size()));
    state.counters["jobs_per_sec"] = benchmark::Counter(
        double(state.iterations()) * double(jobs.size()),
        benchmark::Counter::kIsRate);

    const std::vector<WorkerPerf> perf = runner.workerPerf();
    double schedule = 0, memoWait = 0, claim = 0;
    for (const WorkerPerf &w : perf) {
        schedule += w.scheduleSeconds;
        memoWait += w.memoWaitSeconds;
        claim += w.stealSeconds;
    }
    state.counters["schedule_s"] = schedule;
    state.counters["memo_wait_s"] = memoWait;
    state.counters["claim_s"] = claim;

    std::fprintf(stderr,
                 "[scaling] threads=%d jobs=%zu: per-worker "
                 "schedule/memo-wait/claim seconds\n",
                 threads, jobs.size());
    for (std::size_t w = 0; w < perf.size(); ++w) {
        if (perf[w].jobs == 0)
            continue;
        std::fprintf(stderr,
                     "[scaling]   w%zu: sched=%.4fs wait=%.4fs "
                     "claim=%.4fs jobs=%ld\n",
                     w, perf[w].scheduleSeconds, perf[w].memoWaitSeconds,
                     perf[w].stealSeconds, perf[w].jobs);
    }
}

/** Sweep 1, 2, 4, ... up to hardware_concurrency — and always through
    8 so the scaling acceptance row exists even on smaller CI hosts
    (oversubscribed rows still exercise claiming under preemption). */
int
registerScaling()
{
    const unsigned hwRaw = std::thread::hardware_concurrency();
    const int hw = hwRaw ? int(hwRaw) : 1;
    std::vector<int> counts;
    for (int t = 1; t <= std::max(hw, 8); t *= 2)
        counts.push_back(t);
    if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
        counts.push_back(hw);
        std::sort(counts.begin(), counts.end());
    }
    for (const int t : counts) {
        benchmark::RegisterBenchmark(
            ("BM_ScalingJobsPerSec/threads:" + std::to_string(t)).c_str(),
            [t](benchmark::State &s) { runScaling(s, t); })
            ->UseRealTime()
            ->Unit(benchmark::kMillisecond);
    }
    return int(counts.size());
}

[[maybe_unused]] const int kRegistered = registerScaling();

} // namespace

SWP_BENCH_MAIN_NATIVE_JSON("scaling")
