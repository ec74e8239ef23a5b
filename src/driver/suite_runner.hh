/**
 * @file
 * Multi-threaded batch evaluation driver.
 *
 * The paper's experiments are grids: every loop of the suite x every
 * strategy x every register-file size. SuiteRunner evaluates such a
 * batch of (loop, strategy, options) jobs on several threads while
 * keeping the output *deterministic*: results[i] always corresponds to
 * jobs[i], every job is evaluated independently with no shared mutable
 * state, and all reductions are left to the caller (who accumulates in
 * index order), so the same batch produces bit-identical results at
 * any thread count.
 *
 * Per-call costs the serial harnesses used to pay on every job are
 * amortized here:
 *  - scheduler objects are constructed once per worker and reused
 *    across all its jobs in a batch;
 *  - the MII/RecMII of each input loop is memoized per (graph content,
 *    machine) across batches;
 *  - every (graph, machine, II, scheduler) probe outcome — including
 *    "no schedule at this II" — is memoized in a ScheduleMemo shared
 *    by all workers, so best-of-all's binary search and the grid's
 *    repeated cells never schedule the same probe twice.
 * Both memos are single-flight (two workers never compute one key) and
 * neither changes results: output is byte-identical with the schedule
 * memo on or off.
 *
 * Beyond threads, a batch can be split *across processes*: a
 * RunOptions::shard spec assigns job index j to shard j mod N, and a
 * sharded run() evaluates only its own jobs (the others' result slots
 * are left default-constructed). Because every job is a pure function
 * of its inputs, the union of N sharded runs equals the unsharded run
 * slot for slot — src/driver/shard_merge provides the file format and
 * validating merge the CLI builds on.
 *
 * Each batch is a scoped fork-join: the dispatching call spawns up to
 * threads - 1 helper threads, works as worker 0 itself, and joins them
 * all before it returns, so a runner holds no thread between calls.
 * Every worker claims job indices from one atomic cursor over a
 * heaviest-first order (ranked by node count x candidate-II span), so
 * a heavy loop starts early instead of serializing one worker at the
 * batch's tail. Claim order never changes a job's result or its slot.
 */

#ifndef SWP_DRIVER_SUITE_RUNNER_HH
#define SWP_DRIVER_SUITE_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "driver/shard_merge.hh"
#include "machine/machine.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/sched_memo.hh"
#include "support/singleflight.hh"
#include "verify/certify.hh"
#include "workload/suitegen.hh"

namespace swp
{

/** One evaluation job of an experiment grid. */
struct BatchJob
{
    /** Index into the suite passed to SuiteRunner::run. */
    int loop = 0;

    /** Unlimited registers (pipelineIdeal); `strategy` is ignored. */
    bool ideal = false;

    Strategy strategy = Strategy::Spill;
    PipelinerOptions options;
};

/**
 * Parse a --threads value: "auto" resolves to all hardware threads
 * (SuiteRunner's threads == 0 convention) and an integer in [0, 4096]
 * is taken literally. False (out untouched) otherwise. Shared by
 * swpipe_cli and every bench harness so "auto" means the same thing
 * everywhere.
 */
bool parseThreadsArg(const std::string &text, int &out);

/**
 * Per-worker wall-time breakdown, maintained by the workers from
 * monotonic-clock deltas. scheduleSeconds is the whole time inside
 * jobs — scheduling, register allocation, spilling, verification and
 * certification alike — minus the memo waits that happened during
 * them (singleFlightWaitSeconds); despite its name it covers the whole
 * job. stealSeconds and steals keep their old names because
 * perfbench reads them. Observability only (stderr/JSON): no result
 * bytes ever depend on these numbers.
 */
struct WorkerPerf
{
    double scheduleSeconds = 0;  ///< Executing jobs, memo waits excluded.
    double memoWaitSeconds = 0;  ///< Blocked on another worker's compute.
    double stealSeconds = 0;     ///< Claiming indices from the cursor.
    long jobs = 0;               ///< Jobs executed, failed ones included.
    long steals = 0;             ///< Always 0.
};

/** Per-run evaluation options; the defaults reproduce run(3 args). */
struct RunOptions
{
    /** Evaluate only this shard's jobs (j mod count == index). */
    ShardSpec shard;

    /**
     * Check every result with the independent legality verifier
     * (verify/legality) as the job completes; any violation makes run()
     * throw a FatalError whose message names the violated
     * edge/slot/range. Forced on in Debug and sanitizer builds
     * (kAlwaysVerifyResults), so no scheduler bug can hide behind a
     * fast Release-only reproduction. Verification reads the finished
     * result only — the evaluated schedules and the emitted bytes are
     * identical with it on or off.
     */
    bool verify = false;

    /**
     * Generate the optimality-certificate bundle (verify/certify) for
     * every evaluated result, validate it with the independent
     * certificate checker, and cross-check it against the achieved
     * II/register count; any rejected certificate or contradiction
     * makes run() throw a FatalError. Like verify, certification reads
     * finished results only — it never touches stdout bytes.
     */
    bool certify = false;

    /**
     * When set (implies certify), resized to jobs.size() and slot i
     * filled with job i's certificate summary; sharded-out slots stay
     * invalid. Summaries are a pure function of the job, so the filled
     * slots are identical at any thread count and shard spec.
     */
    std::vector<CertSummary> *certificates = nullptr;
};

/** Deterministic multi-threaded evaluator for batches of pipeline jobs. */
class SuiteRunner
{
  public:
    /**
     * threads == 0 selects the hardware concurrency; 1 runs inline.
     * memoizeSchedules toggles the schedule memo (results are identical
     * either way; off re-schedules every probe — useful for measuring
     * the memo's effect and for CI's byte-identical diff). Both memos
     * keep every entry for the life of the runner.
     */
    explicit SuiteRunner(int threads = 1, bool memoizeSchedules = true);

    SuiteRunner(const SuiteRunner &) = delete;
    SuiteRunner &operator=(const SuiteRunner &) = delete;

    int threads() const { return threads_; }
    bool memoizesSchedules() const { return memoizeSchedules_; }

    /** Memoized lower bounds of one loop under one machine. */
    struct LoopBounds
    {
        int mii = 0;
        int recMii = 0;
    };

    /**
     * MII/RecMII of a loop, memoized per (graph content, machine
     * configuration). Safe to call concurrently; both key halves are
     * structural fingerprints, so rebuilt or short-lived graphs and
     * same-named machines never alias stale entries, and the memo is
     * single-flight: concurrent workers asking for the same key wait
     * for one computation instead of repeating it.
     */
    LoopBounds bounds(const Ddg &g, const Machine &m);

    /** The shared probe memo (for tests and observability). */
    ScheduleMemo &scheduleMemo() { return scheduleMemo_; }

    /** Counters of both memos, for tests and tuning. */
    struct MemoStats
    {
        SingleFlightStats bounds;
        SingleFlightStats schedule;
    };
    MemoStats
    memoStats() const
    {
        return {boundsCache_.stats(), scheduleMemo_.stats()};
    }

    /**
     * Snapshot of the per-worker counters accumulated since
     * construction or the last resetWorkerPerf(); slot w belongs to the
     * w-th worker of each batch (slot 0 is the dispatching caller, the
     * only worker of a one-thread runner or a one-job batch).
     */
    std::vector<WorkerPerf> workerPerf() const;
    void resetWorkerPerf();

    /**
     * Test-only: when seed != 0 every claim spins a small
     * pseudo-random amount first, perturbing which worker claims which
     * job so determinism tests can explore many schedules. Global (affects
     * every runner); reset to 0 after use.
     */
    static void setClaimJitterForTesting(unsigned seed);

    /**
     * Evaluate all jobs. results[i] corresponds to jobs[i]; the result
     * vector is bit-identical at any thread count and shard spec. Each
     * result's graph() references the suite entry it was built from
     * unless spilling transformed the loop, so the suite must outlive
     * the returned results. Exceptions thrown by a job are rethrown
     * here. Concurrent calls on one runner are safe; each runs its
     * own batch.
     *
     * With an active opts.shard, only jobs owned by the shard are
     * evaluated; the other slots are left default-constructed (their
     * graph() must not be queried). The evaluated slots are
     * bit-identical to the same slots of an unsharded run.
     */
    std::vector<PipelineResult> run(const std::vector<SuiteLoop> &suite,
                                    const Machine &m,
                                    const std::vector<BatchJob> &jobs,
                                    const RunOptions &opts);

    std::vector<PipelineResult>
    run(const std::vector<SuiteLoop> &suite, const Machine &m,
        const std::vector<BatchJob> &jobs)
    {
        return run(suite, m, jobs, RunOptions{});
    }

    /**
     * Cheap work-size estimate of one job: node count x candidate-II
     * span (MII through the generous default II cap). It deliberately
     * ignores the strategy — every strategy's cost is dominated by how
     * many (II, schedule) probes of how large a graph it may have to
     * run — and it never schedules anything; the MII comes from the
     * bounds memo the jobs need anyway.
     */
    double jobCost(const std::vector<SuiteLoop> &suite, const Machine &m,
                   const BatchJob &job);

    /**
     * The evaluation order run() uses: the indices of the jobs the
     * shard owns, ranked heaviest-first. Deterministic for a given
     * (suite, machine, jobs, opts); exposed for the property tests.
     */
    std::vector<std::size_t>
    planJobOrder(const std::vector<SuiteLoop> &suite, const Machine &m,
                 const std::vector<BatchJob> &jobs,
                 const RunOptions &opts = {});

    /**
     * Deterministic parallel-for: fn(i) for every i in [0, count), in
     * unspecified order across the workers. fn must only write to
     * per-index state (e.g. slot i of a pre-sized vector); the first
     * exception is rethrown on the calling thread once every worker
     * has stopped. A call from inside a job runs inline.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn) const;

  private:
    /**
     * makeWorker() is invoked once per participating thread (to build
     * per-thread state such as scheduler objects); the returned
     * callable is then fed the indices that thread claims.
     */
    using Worker = std::function<void(std::size_t)>;

    /** One batch in flight: the shared cursor and its first error. */
    struct Batch;

    void dispatch(std::size_t count,
                  const std::function<Worker()> &makeWorker) const;
    void work(Batch &batch, std::size_t slot,
              const std::function<Worker()> &makeWorker) const;
    void flushPerf(std::size_t slot, const WorkerPerf &perf) const;

    int threads_ = 1;
    bool memoizeSchedules_ = true;

    /** Bounds memo entry; the graph/machine copies (O(1), CoW) verify
        memo hits against fingerprint collisions in debug builds. */
    struct CachedBounds
    {
        LoopBounds b;
        std::optional<Ddg> graph;
        std::optional<Machine> machine;
    };
    SingleFlightCache<std::pair<std::uint64_t, std::uint64_t>,
                      CachedBounds>
        boundsCache_;

    ScheduleMemo scheduleMemo_;

    /** Per-worker counters (slot w for the w-th worker of each
        batch), merged by the workers as they finish a batch. */
    mutable std::mutex perfMutex_;
    mutable std::vector<WorkerPerf> perf_;
};

} // namespace swp

#endif // SWP_DRIVER_SUITE_RUNNER_HH
