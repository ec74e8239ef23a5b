#include "driver/suite_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "sched/fingerprint.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "support/diag.hh"
#include "support/strutil.hh"
#include "verify/legality.hh"

namespace swp
{

bool
parseThreadsArg(const std::string &text, int &out)
{
    if (text == "auto") {
        out = 0;
        return true;
    }
    return parseIntInRange(text, 0, 4096, out);
}

namespace
{

/**
 * Depth of worker bodies running on this thread. A dispatch issued
 * from inside a job (nested parallelFor) runs inline: the enclosing
 * batch already keeps every thread busy.
 */
thread_local int tlsInTask = 0;

struct TaskScope
{
    TaskScope() { ++tlsInTask; }
    ~TaskScope() { --tlsInTask; }
};

double
secondsSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

int
resolveThreadCount(int threads)
{
    if (threads > 0)
        return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? int(hw) : 1;
}

/** Claim-path jitter for the determinism tests (0 = off). */
std::atomic<unsigned> claimJitter{0};

} // namespace

void
SuiteRunner::setClaimJitterForTesting(unsigned seed)
{
    claimJitter.store(seed, std::memory_order_relaxed);
}

SuiteRunner::SuiteRunner(int threads, bool memoizeSchedules)
    : threads_(resolveThreadCount(threads)),
      memoizeSchedules_(memoizeSchedules),
      perf_(std::size_t(threads_))
{
}

SuiteRunner::LoopBounds
SuiteRunner::bounds(const Ddg &g, const Machine &m)
{
    const auto key =
        std::make_pair(graphFingerprint(g), machineFingerprint(m));
    const CachedBounds cached = boundsCache_.getOrCompute(
        key,
        [&]() {
            CachedBounds c;
            c.b.mii = mii(g, m);
            c.b.recMii = recMii(g, m);
            if (kVerifyMemoKeys) {
                c.graph = g;
                c.machine = m;
            }
            return c;
        },
        [&](const CachedBounds &hit) {
            if (!kVerifyMemoKeys)
                return;
            SWP_ASSERT(hit.graph &&
                           graphsFingerprintEquivalent(g, *hit.graph),
                       "bounds memo fingerprint collision: graph '",
                       g.name(),
                       "' hit an entry built from a different graph");
            SWP_ASSERT(hit.machine &&
                           machinesFingerprintEquivalent(m, *hit.machine),
                       "bounds memo fingerprint collision: machine '",
                       m.name(),
                       "' hit an entry built from a different machine");
        });
    return cached.b;
}

struct SuiteRunner::Batch
{
    const std::size_t count;
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> abort{false};
    std::mutex errorMutex{};
    std::exception_ptr error{};

    void
    fail()
    {
        {
            std::lock_guard<std::mutex> lock(errorMutex);
            if (!error)
                error = std::current_exception();
        }
        abort.store(true, std::memory_order_relaxed);
    }
};

/**
 * Body run by every worker of a batch (spawned threads and the
 * dispatching caller alike): claim indices from the shared cursor and
 * run them until the cursor passes the end or a job fails. Every job
 * that ran, a failing one included, is counted in the worker's perf
 * slot.
 */
void
SuiteRunner::work(Batch &batch, std::size_t slot,
                  const std::function<Worker()> &makeWorker) const
{
    WorkerPerf perf;
    std::size_t i = 0;
    const auto claim = [&] {
        const auto start = std::chrono::steady_clock::now();
        // Test hook: perturb who wins each claim so the determinism
        // test can explore many interleavings (a no-op when unset).
        const unsigned jitterSeed =
            claimJitter.load(std::memory_order_relaxed);
        if (jitterSeed != 0) {
            thread_local unsigned state = 0;
            state = state * 1664525u + 1013904223u + jitterSeed +
                    unsigned(slot);
            volatile unsigned sink = 0;
            for (unsigned k = 0, n = state % 2048u; k < n; ++k)
                sink += k;
            (void)sink;
        }
        i = batch.cursor.fetch_add(1, std::memory_order_relaxed);
        perf.stealSeconds += secondsSince(start);
        return i < batch.count &&
               !batch.abort.load(std::memory_order_relaxed);
    };

    // Claim before building per-thread state, so a worker that finds
    // the batch already drained never constructs scheduler objects.
    if (claim()) {
        const TaskScope scope;
        try {
            const Worker fn = makeWorker();
            do {
                const double wait0 = singleFlightWaitSeconds();
                const auto start = std::chrono::steady_clock::now();
                ++perf.jobs;
                try {
                    fn(i);
                } catch (...) {
                    batch.fail();
                }
                const double elapsed = secondsSince(start);
                const double waited = singleFlightWaitSeconds() - wait0;
                perf.memoWaitSeconds += waited;
                perf.scheduleSeconds +=
                    elapsed > waited ? elapsed - waited : 0.0;
            } while (claim());
        } catch (...) {
            batch.fail();  // makeWorker() threw.
        }
    }
    flushPerf(slot, perf);
}

void
SuiteRunner::flushPerf(std::size_t slot, const WorkerPerf &perf) const
{
    std::lock_guard<std::mutex> lock(perfMutex_);
    WorkerPerf &w = perf_[slot];
    w.scheduleSeconds += perf.scheduleSeconds;
    w.memoWaitSeconds += perf.memoWaitSeconds;
    w.stealSeconds += perf.stealSeconds;
    w.jobs += perf.jobs;
}

std::vector<WorkerPerf>
SuiteRunner::workerPerf() const
{
    std::lock_guard<std::mutex> lock(perfMutex_);
    return perf_;
}

void
SuiteRunner::resetWorkerPerf()
{
    std::lock_guard<std::mutex> lock(perfMutex_);
    perf_.assign(perf_.size(), WorkerPerf{});
}

void
SuiteRunner::dispatch(std::size_t count,
                      const std::function<Worker()> &makeWorker) const
{
    if (count == 0)
        return;

    // A dispatch nested inside a job runs inline and skips the perf
    // accounting: its time is already inside the enclosing job's.
    if (tlsInTask > 0) {
        const Worker fn = makeWorker();
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // Fork-join: threads - 1 helpers at most (never more workers than
    // jobs), the caller is worker 0, and every helper is joined before
    // the first error is rethrown.
    Batch batch{count};
    const std::size_t workers = std::min(std::size_t(threads_), count);
    std::vector<std::thread> helpers;
    helpers.reserve(workers - 1);
    try {
        for (std::size_t w = 1; w < workers; ++w)
            helpers.emplace_back([&, w] { work(batch, w, makeWorker); });
    } catch (...) {
        batch.fail();  // Thread creation failed; the spawned ones stop.
    }
    work(batch, 0, makeWorker);
    for (std::thread &t : helpers)
        t.join();
    if (batch.error)
        std::rethrow_exception(batch.error);
}

void
SuiteRunner::parallelFor(std::size_t count,
                         const std::function<void(std::size_t)> &fn) const
{
    dispatch(count, [&fn]() -> Worker { return fn; });
}

double
SuiteRunner::jobCost(const std::vector<SuiteLoop> &suite,
                     const Machine &m, const BatchJob &job)
{
    const Ddg &g = suite[std::size_t(job.loop)].graph;
    const int span =
        std::max(1, defaultMaxIi(g, m) - bounds(g, m).mii + 1);
    return double(g.numNodes()) * double(span);
}

std::vector<std::size_t>
SuiteRunner::planJobOrder(const std::vector<SuiteLoop> &suite,
                          const Machine &m,
                          const std::vector<BatchJob> &jobs,
                          const RunOptions &opts)
{
    SWP_ASSERT(opts.shard.count >= 1 && opts.shard.index >= 0 &&
                   opts.shard.index < opts.shard.count,
               "malformed shard spec ", opts.shard.index, "/",
               opts.shard.count);

    std::vector<std::size_t> order;
    order.reserve(jobs.size() / std::size_t(opts.shard.count) + 1);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (opts.shard.owns(i))
            order.push_back(i);
    }
    // The ranking needs every owned loop's MII; warm the bounds memo
    // across the workers first so a cold large suite does not serialize
    // that phase on this thread (the memo is single-flight and
    // deterministic, so this only moves work).
    std::vector<std::size_t> distinctLoops;
    {
        std::vector<bool> seen(suite.size(), false);
        for (const std::size_t i : order) {
            const std::size_t loop = std::size_t(jobs[i].loop);
            if (!seen[loop]) {
                seen[loop] = true;
                distinctLoops.push_back(loop);
            }
        }
    }
    parallelFor(distinctLoops.size(), [&](std::size_t k) {
        (void)bounds(suite[distinctLoops[k]].graph, m);
    });

    // Heaviest-first. The costs are deterministic, and the sort is
    // stable with index-order tie-breaking, so the plan — like the
    // results — is identical at any thread count.
    std::vector<double> cost(jobs.size(), 0.0);
    for (const std::size_t i : order)
        cost[i] = jobCost(suite, m, jobs[i]);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    return order;
}

std::vector<PipelineResult>
SuiteRunner::run(const std::vector<SuiteLoop> &suite, const Machine &m,
                 const std::vector<BatchJob> &jobs,
                 const RunOptions &opts)
{
    for (const BatchJob &job : jobs) {
        SWP_ASSERT(job.loop >= 0 && std::size_t(job.loop) < suite.size(),
                   "batch job references loop ", job.loop,
                   " outside the ", suite.size(), "-loop suite");
    }

    const std::vector<std::size_t> order =
        planJobOrder(suite, m, jobs, opts);

    const bool verify = opts.verify || kAlwaysVerifyResults;
    const bool certify = opts.certify || opts.certificates != nullptr;
    std::vector<CertSummary> *certOut = opts.certificates;
    if (certOut)
        certOut->assign(jobs.size(), CertSummary{});

    std::vector<PipelineResult> results(jobs.size());
    dispatch(
        order.size(),
        [&]() -> Worker {
            // Per-worker scheduler objects, reused across every job
            // this worker executes (shared_ptr so the returned closure
            // owns them).
            std::shared_ptr<ModuloScheduler> hrms =
                makeScheduler(SchedulerKind::Hrms);
            std::shared_ptr<ModuloScheduler> ims =
                makeScheduler(SchedulerKind::Ims);
            return [this, &suite, &m, &jobs, &results, &order, verify,
                    certify, certOut, hrms, ims](std::size_t k) {
                const std::size_t i = order[k];
                const BatchJob &job = jobs[i];
                const Ddg &g = suite[std::size_t(job.loop)].graph;
                const LoopBounds b = bounds(g, m);

                EvalContext ctx;
                const SchedulerKind kind = job.options.scheduler;
                ctx.scheduler =
                    kind == SchedulerKind::Ims ? ims.get() : hrms.get();
                ctx.imsFallback = ims.get();
                ctx.knownMii = b.mii;
                ctx.memo = memoizeSchedules_ ? &scheduleMemo_ : nullptr;

                results[i] = job.ideal
                                 ? pipelineIdeal(g, m, kind, &ctx)
                                 : pipelineLoop(g, m, job.strategy,
                                                job.options, &ctx);
                if (verify) {
                    const VerifyReport report =
                        verifyResult(g, m, results[i]);
                    if (!report.ok()) {
                        SWP_FATAL("job ", i, " (loop '", g.name(),
                                  "'): illegal pipeline result:\n",
                                  report.describe());
                    }
                }
                if (certify) {
                    // Certify the graph the schedule refers to (the
                    // spill-transformed one for spilled results), at
                    // the achieved II, then validate the bundle with
                    // the independent checker and cross-check it
                    // against the achieved II/register count.
                    const Ddg &rg = results[i].graph();
                    const Certificate cert =
                        certifyLoop(rg, m, results[i].sched.ii());
                    const CertReport check = checkCertificate(rg, m, cert);
                    if (!check.ok()) {
                        SWP_FATAL("job ", i, " (loop '", g.name(),
                                  "'): optimality certificate rejected "
                                  "by its own checker:\n",
                                  check.describe());
                    }
                    const CertReport contra =
                        checkCertificateAgainstResult(cert, results[i]);
                    if (!contra.ok()) {
                        SWP_FATAL("job ", i, " (loop '", g.name(),
                                  "'): certificate contradicts the "
                                  "achieved result:\n",
                                  contra.describe());
                    }
                    if (certOut) {
                        (*certOut)[i] =
                            summarizeCertificate(cert, results[i]);
                    }
                }
            };
        });
    return results;
}

} // namespace swp
