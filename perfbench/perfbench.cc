/**
 * @file
 * The repository benchmark: three register-constrained pipelining
 * workloads driven through the library's public entry points, timed end
 * to end, with the per-layer costs measured from outside each module.
 *
 *   perfbench --workload <suite-best|suite-spill-tight|grid-paper>
 *             [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
 *
 * A run generates the suite from --seed (default kDefaultSuiteSeed),
 * times batch passes of SuiteRunner::run at 1 thread and at every
 * available CPU (a fresh runner per pass, so the memos start cold, after
 * an untimed warm-up pass on a runner that is thrown away), times
 * pipelineLoop/pipelineIdeal called directly one job at a time, then
 * checks every result outside the timed region. --trace 1 replaces the
 * end-to-end metrics by the per-layer ones: it records spans around the
 * direct calls and around replayed calls into each layer (sched,
 * liferange, regalloc, spill, verify, machine, workload) and reports
 * each layer's per-call cost, exact counts, and total and self time.
 *
 * Stdout carries a human-readable report followed, as its last line, by
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sched.h>
#include <time.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/suite_runner.hh"
#include "liferange/lifetimes.hh"
#include "machine/machdesc.hh"
#include "machine/machine.hh"
#include "pipeliner/pipeliner.hh"
#include "regalloc/rotalloc.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "sched/scheduler.hh"
#include "spill/insert.hh"
#include "spill/select.hh"
#include "verify/certify.hh"
#include "verify/legality.hh"
#include "workload/suitegen.hh"

namespace
{

using namespace swp;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Loops in every workload's suite: the paper's 1258. */
constexpr int kSuiteLoops = 1258;

/** The certificate gap census pinned for suite-best at the default
    seed (optimal / within one / unproven). */
constexpr int kPinnedCensus[3] = {1223, 16, 19};

/** Untimed warm-up before each timed phase. A multi-threaded process
    on a freshly idle VM can be held to one CPU for its first ~1.4 s,
    so the parallel warm-up outlasts that. */
constexpr double kWarmSerialSeconds = 0.75;
constexpr double kWarmParallelSeconds = 1.5;

/** Set-up (suite generation + runner construction) is repeated about
    once a second throughout a run, and setup_s is the median. Set-up is
    allocation-bound, and its speed follows the host's, which drifts over
    seconds (35..62 ms for one suite within a minute); repetitions in one
    burst would sample one moment of that. The traced run, which reports
    the generation's own span, repeats it kTracedSetupReps times. */
constexpr double kSetupEverySeconds = 1.0;
constexpr int kTracedSetupReps = 5;

// ---------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSuiteSeed;
    double seconds = 30;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <suite-best|suite-spill-tight|"
                 "grid-paper> [--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans FILE]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 0);
            if (value.empty() || *end)
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(a.seconds > 0) ||
                a.seconds > 3600)
                usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            a.trace = value == "1";
        } else if (flag == "--spans") {
            a.spansPath = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

/** CPUs this process may run on (what `nproc` prints). */
int
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return CPU_COUNT(&set);
    return int(std::max(1u, std::thread::hardware_concurrency()));
}

/**
 * Pins the calling thread to one CPU of its affinity mask at a time,
 * moving to the next CPU on each next(), and restores the full mask when
 * destroyed. A single-threaded pass otherwise stays on whichever CPU it
 * started on, and on a shared VM the CPUs differ in speed from run to
 * run; rotating gives every run the same mix of CPUs.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&full_);
        if (sched_getaffinity(0, sizeof full_, &full_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &full_))
                cpus_.push_back(cpu);
        }
    }

    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof full_, &full_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t full_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

BatchJob
makeJob(int loop, Strategy s, int registers, bool heuristics)
{
    BatchJob job;
    job.loop = loop;
    job.strategy = s;
    job.options.registers = registers;
    job.options.heuristic = SpillHeuristic::MaxLTOverTraf;
    job.options.multiSelect = heuristics;
    job.options.reuseLastIi = heuristics;
    return job;
}

/** The job grid of a workload over an n-loop suite; empty if unknown. */
std::vector<BatchJob>
workloadJobs(const std::string &name, int n)
{
    std::vector<BatchJob> jobs;
    if (name == "suite-best") {
        // swpipe_cli --suite 1258 defaults: BestOfAll, 32 registers,
        // Section 4.5 heuristics on.
        for (int i = 0; i < n; ++i)
            jobs.push_back(makeJob(i, Strategy::BestOfAll, 32, true));
    } else if (name == "suite-spill-tight") {
        // The paper's baseline iterative spill: one lifetime per round,
        // every round's II search restarts at MII.
        for (int i = 0; i < n; ++i)
            jobs.push_back(makeJob(i, Strategy::Spill, 16, false));
    } else if (name == "grid-paper") {
        // Table 1 / Figure 9 cross-product, heuristics on.
        for (int i = 0; i < n; ++i) {
            BatchJob ideal;
            ideal.loop = i;
            ideal.ideal = true;
            jobs.push_back(ideal);
            for (const Strategy s : {Strategy::IncreaseII, Strategy::Spill,
                                     Strategy::BestOfAll}) {
                // The heuristics only steer spilling (as bench/common's
                // variants set them).
                const bool heuristics = s != Strategy::IncreaseII;
                jobs.push_back(makeJob(i, s, 64, heuristics));
                jobs.push_back(makeJob(i, s, 32, heuristics));
            }
        }
    }
    return jobs;
}

/** Span / metric stem of the strategy a job runs. */
const char *
jobKind(const BatchJob &job)
{
    if (job.ideal)
        return "ideal";
    switch (job.strategy) {
      case Strategy::IncreaseII: return "increase_ii";
      case Strategy::Spill: return "spill";
      case Strategy::BestOfAll: return "best";
    }
    return "unknown";
}

int
jobBudget(const BatchJob &job)
{
    // pipelineIdeal allocates against an effectively unlimited file.
    return job.ideal ? std::numeric_limits<int>::max() / 2
                     : job.options.registers;
}

/**
 * Generator indices of the heavy loops of the pinned suite
 * (kDefaultSuiteSeed): the APSI-like loops whose trip counts exceed
 * every normal loop's. They are ~3% of the loops and most of every
 * workload's compile time.
 */
constexpr int kPinnedHeavy[] = {
    19,  31,  58,  79,  98,  113, 141, 175, 194, 226, 341, 363,
    414, 458, 688, 692, 695, 715, 716, 761, 783, 784, 813, 819,
    834, 840, 845, 851, 852, 913, 922, 984, 1128, 1142, 1169};
constexpr long kNormalTripMax = 8 * 160;

bool
isHeavy(const SuiteLoop &loop)
{
    return loop.iterations > kNormalTripMax;
}

/** A workload's suite and where each loop came from. */
struct GeneratedSuite
{
    std::vector<SuiteLoop> loops;
    /** Positions holding one of the seed's own draws. */
    int redrawn = 0;
    /** The pinned loops fell in the classes kPinnedHeavy says. */
    bool classesOk = true;
};

/** A non-default seed redraws one normal position in this many. */
constexpr std::uint64_t kRedrawOneIn = 8;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The suite of one seed: the pinned suite (kDefaultSuiteSeed) with a
 * seed-chosen eighth of its normal positions replaced by the seed's own
 * normal draws of generateSuiteLoop, in order (heavy draws are skipped).
 * The heavy loops always stay. A fully redrawn suite is a poor yardstick:
 * the heavy share is binomial (32..54 loops over seeds 1..10), the choice
 * of heavy loops moves grid-paper's time by up to ±40%, and the tail of
 * the normal loops moves suite-spill-tight's by ±9%, so the seed would
 * decide the metrics more than the code. At kDefaultSuiteSeed nothing is
 * redrawn: the suite is exactly the pinned one.
 */
GeneratedSuite
generate(std::uint64_t seed)
{
    SuiteParams pinned;
    SuiteParams drawn;
    drawn.seed = seed;
    GeneratedSuite out;
    out.loops.reserve(std::size_t(kSuiteLoops));
    std::size_t heavy = 0;
    int next = 0;
    for (int i = 0; i < kSuiteLoops; ++i) {
        const bool heavyPos =
            heavy < std::size(kPinnedHeavy) && kPinnedHeavy[heavy] == i;
        heavy += heavyPos;
        const bool redraw =
            !heavyPos && seed != kDefaultSuiteSeed &&
            mix64(seed ^ mix64(std::uint64_t(i))) % kRedrawOneIn == 0;
        if (!redraw) {
            out.loops.push_back(generateSuiteLoop(pinned, i));
            out.classesOk =
                out.classesOk && isHeavy(out.loops.back()) == heavyPos;
            continue;
        }
        for (;;) {
            if (next > 64 * kSuiteLoops)
                throw std::runtime_error("no normal loops drawn");
            SuiteLoop loop = generateSuiteLoop(drawn, next++);
            if (!isHeavy(loop)) {
                out.loops.push_back(std::move(loop));
                ++out.redrawn;
                break;
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------------
// Statistics and reporting
// ---------------------------------------------------------------------

/** Nearest-rank percentile of a sample (p in [0, 1]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * double(v.size()));
    const std::size_t idx =
        std::size_t(std::clamp(rank, 1.0, double(v.size()))) - 1;
    return v[idx];
}

/** Median; the mean of the two middle values of an even sample. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (const double x : v)
        s += x;
    return s;
}

/** The highest percentile of a fixed ladder with at least ten samples
    beyond it, or 0 when the sample is too small for any. */
double
tailPercentile(std::size_t n)
{
    double best = 0;
    for (const double p : {0.9, 0.99, 0.999, 0.9999}) {
        if (double(n) * (1.0 - p) >= 10.0 - 1e-9)
            best = p;
    }
    return best;
}

std::string
formatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.15g", v);
    return buf;
}

std::string
percentileLabel(double p)
{
    std::string s = formatNumber(p * 100);
    return "p" + s;
}

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

class Report
{
  public:
    /** A metric reported in the final JSON line. */
    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    /** Print a timing sample as median + highest qualifying tail. */
    static void
    timing(const std::string &what, const std::vector<double> &sample,
           const std::string &unit)
    {
        const double tail = tailPercentile(sample.size());
        std::printf("  %-28s median %s %s", what.c_str(),
                    formatNumber(median(sample)).c_str(), unit.c_str());
        if (tail > 0) {
            std::printf(", %s %s %s", percentileLabel(tail).c_str(),
                        formatNumber(percentile(sample, tail)).c_str(),
                        unit.c_str());
        }
        std::printf(" (n=%zu, min %s, max %s)\n", sample.size(),
                    formatNumber(percentile(sample, 0)).c_str(),
                    formatNumber(percentile(sample, 1)).c_str());
    }

    /** Print an exact count. */
    static void
    count(const std::string &what, double value, const std::string &unit)
    {
        std::printf("  %-28s %s %s (exact)\n", what.c_str(),
                    formatNumber(value).c_str(), unit.c_str());
    }

    void
    printJson(bool correct, long attempted, long failed) const
    {
        std::string out = "{\"correct\": ";
        out += correct ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted);
        out += ", \"failed\": " + std::to_string(failed);
        out += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const Metric &m = metrics_[i];
            if (i)
                out += ", ";
            out += "\"" + m.name + "\": {\"value\": " +
                   formatNumber(m.value) + ", \"unit\": \"" + m.unit +
                   "\"}";
        }
        out += "}}";
        std::printf("%s\n", out.c_str());
    }

  private:
    std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------------
// Spans (--trace 1)
// ---------------------------------------------------------------------

/** Every span name a traced run records, in report order; each one is
    reported (as 0 when a workload records none). */
const char *const kSpanNames[] = {
    "workload.gen",      "machine.fingerprint",   "sched.mii",
    "sched.search",      "liferange.analyze",     "regalloc.alloc",
    "spill.select",      "spill.insert",          "pipeliner.ideal",
    "pipeliner.increase_ii", "pipeliner.spill",   "pipeliner.best",
    "verify.legality",   "verify.certify",        "bench.job",
    "bench.replay"};

/**
 * In-memory span recorder: each span has a name, start and end on the
 * monotonic clock, the index of its parent span (-1 for roots) and the
 * job it belongs to (-1 outside jobs). Single-threaded: the traced
 * passes call one job at a time.
 */
class Tracer
{
  public:
    struct Span
    {
        int name = 0;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        int parent = -1;
        int job = -1;
    };

    explicit Tracer(Clock::time_point epoch) : epoch_(epoch)
    {
        spans_.reserve(1 << 16);
    }

    int
    open(const std::string &name, int parent, int job)
    {
        Span s;
        s.name = intern(name);
        s.parent = parent;
        s.job = job;
        s.startNs = nowNs();
        spans_.push_back(s);
        return int(spans_.size()) - 1;
    }

    /** Close span id; returns its duration in seconds. */
    double
    close(int id)
    {
        Span &s = spans_[std::size_t(id)];
        s.endNs = nowNs();
        return double(s.endNs - s.startNs) * 1e-9;
    }

    /** Run fn inside a span; returns the span's duration in seconds. */
    template <typename Fn>
    double
    time(const std::string &name, int parent, int job, Fn &&fn)
    {
        const int id = open(name, parent, job);
        fn();
        return close(id);
    }

    struct Totals
    {
        double total = 0;
        double self = 0;
        long count = 0;
    };

    /** Total and self seconds per span name. Spans nest strictly (one
        thread), so self = duration - sum of direct children. */
    std::map<std::string, Totals>
    totals() const
    {
        std::vector<std::int64_t> childNs(spans_.size(), 0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                childNs[std::size_t(s.parent)] += s.endNs - s.startNs;
        }
        std::map<std::string, Totals> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            Totals &t = out[names_[std::size_t(s.name)]];
            t.total += double(s.endNs - s.startNs) * 1e-9;
            t.self += double(s.endNs - s.startNs - childNs[i]) * 1e-9;
            ++t.count;
        }
        return out;
    }

    std::size_t size() const { return spans_.size(); }

    /** Write every span as one JSON line. */
    bool
    write(const std::string &path) const
    {
        std::ofstream os(path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << "{\"id\": " << i << ", \"name\": \""
               << names_[std::size_t(s.name)] << "\", \"start_ns\": "
               << s.startNs << ", \"end_ns\": " << s.endNs
               << ", \"parent\": " << s.parent << ", \"job\": " << s.job
               << "}\n";
        }
        return bool(os);
    }

  private:
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    int
    intern(const std::string &name)
    {
        for (std::size_t i = 0; i < names_.size(); ++i) {
            if (names_[i] == name)
                return int(i);
        }
        names_.push_back(name);
        return int(names_.size()) - 1;
    }

    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::string> names_;
};

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

/** What a result is compared on across passes, plus its accounting. */
struct Outcome
{
    bool evaluated = false;
    bool success = false;
    int ii = 0;
    int regs = 0;
    int spills = 0;
    int attempts = 0;
    int rounds = 0;
    int memOps = 0;
    int slack = 0;  ///< rotating - maxLive.

    bool
    sameAs(const Outcome &o) const
    {
        return evaluated && o.evaluated && success == o.success &&
               ii == o.ii && regs == o.regs && spills == o.spills &&
               attempts == o.attempts;
    }
};

Outcome
outcomeOf(const PipelineResult &r)
{
    Outcome o;
    o.evaluated = true;
    o.success = r.success;
    o.ii = r.ii();
    o.regs = r.alloc.regsRequired;
    o.spills = r.spilledLifetimes;
    o.attempts = r.attempts;
    o.rounds = r.rounds;
    o.memOps = r.memOpsPerIteration();
    o.slack = r.alloc.rotating - r.alloc.maxLive;
    return o;
}

std::vector<Outcome>
outcomesOf(const std::vector<PipelineResult> &results)
{
    std::vector<Outcome> out;
    out.reserve(results.size());
    for (const PipelineResult &r : results)
        out.push_back(outcomeOf(r));
    return out;
}

/** One timed SuiteRunner pass on a fresh runner. */
struct RunnerPass
{
    double seconds = 0;
    bool threw = false;
    std::string error;
    std::vector<PipelineResult> results;
    double cpuSeconds = 0;  ///< Process CPU time during the pass.
    SuiteRunner::MemoStats memo;
    std::vector<WorkerPerf> perf;
};

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

RunnerPass
runnerPass(const std::vector<SuiteLoop> &suite, const Machine &m,
           const std::vector<BatchJob> &jobs, int threads)
{
    RunnerPass pass;
    SuiteRunner runner(threads);
    const double cpu0 = processCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    try {
        pass.results = runner.run(suite, m, jobs);
    } catch (const std::exception &e) {
        pass.threw = true;
        pass.error = e.what();
    }
    pass.seconds = secondsSince(t0);
    pass.cpuSeconds = processCpuSeconds() - cpu0;
    pass.memo = runner.memoStats();
    pass.perf = runner.workerPerf();
    return pass;
}

/** Untimed passes over slices of the grid on a runner that is thrown
    away, until `seconds` have elapsed. */
void
warmUp(const std::vector<SuiteLoop> &suite, const Machine &m,
       const std::vector<BatchJob> &jobs, int threads, double seconds)
{
    SuiteRunner runner(threads);
    const std::size_t slice =
        std::min(jobs.size(), std::size_t(64) * std::size_t(threads));
    std::size_t next = 0;
    const Clock::time_point t0 = Clock::now();
    while (secondsSince(t0) < seconds) {
        std::vector<BatchJob> part;
        for (std::size_t k = 0; k < slice; ++k)
            part.push_back(jobs[(next + k) % jobs.size()]);
        next = (next + slice) % jobs.size();
        try {
            runner.run(suite, m, part);
        } catch (const std::exception &) {
            // Failures are counted by the timed passes.
        }
    }
}

/** One pass calling the pipeliner directly, one job at a time. */
struct DirectPass
{
    double seconds = 0;
    std::vector<double> latencyMs;
    std::vector<std::optional<PipelineResult>> results;
    std::vector<std::string> errors;
};

/** The direct-call pass; with a rotation, it moves to the next CPU every
    eighth of its jobs. */
DirectPass
directPass(const std::vector<SuiteLoop> &suite, const Machine &m,
           const std::vector<BatchJob> &jobs, Tracer *tracer,
           CpuRotation *rotation)
{
    DirectPass pass;
    pass.latencyMs.assign(jobs.size(), 0);
    pass.results.resize(jobs.size());
    const std::size_t period = std::max<std::size_t>(1, jobs.size() / 8);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (rotation && i % period == 0)
            rotation->next();
        const BatchJob &job = jobs[i];
        const Ddg &g = suite[std::size_t(job.loop)].graph;
        const int root =
            tracer ? tracer->open("bench.job", -1, int(i)) : -1;
        const int call =
            tracer ? tracer->open(std::string("pipeliner.") + jobKind(job),
                                  root, int(i))
                   : -1;
        const Clock::time_point c0 = Clock::now();
        try {
            pass.results[i] =
                job.ideal ? pipelineIdeal(g, m, job.options.scheduler)
                          : pipelineLoop(g, m, job.strategy, job.options);
        } catch (const std::exception &e) {
            pass.errors.push_back("job " + std::to_string(i) + ": " +
                                  e.what());
        }
        pass.latencyMs[i] = secondsSince(c0) * 1e3;
        if (tracer) {
            tracer->close(call);
            tracer->close(root);
        }
    }
    pass.seconds = secondsSince(t0);
    return pass;
}

std::vector<Outcome>
outcomesOf(const DirectPass &pass)
{
    std::vector<Outcome> out(pass.results.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (pass.results[i])
            out[i] = outcomeOf(*pass.results[i]);
    }
    return out;
}

/**
 * Run `pass` (which returns its own duration) at least minPasses times,
 * then again while the next pass would end less than half a pass past
 * `budget` seconds: the pass count is the budget rounded to the nearest
 * pass, so it does not flip between runs when passes fit it exactly.
 */
int
repeatWithin(double budget, int minPasses, const std::function<double()> &pass)
{
    const Clock::time_point t0 = Clock::now();
    int n = 0;
    double last = 0;
    while (n < minPasses || secondsSince(t0) + last / 2 <= budget) {
        last = pass();
        ++n;
    }
    return n;
}

// ---------------------------------------------------------------------
// Output check
// ---------------------------------------------------------------------

/** Failure bookkeeping: a job counts once however it failed. */
struct Check
{
    std::vector<char> bad;
    long violations = 0;
    long mismatches = 0;
    long throws = 0;
    bool pinnedOk = true;
    std::vector<std::string> notes;

    explicit Check(std::size_t jobs) : bad(jobs, 0) {}

    /** Keep a diagnostic for the report (the first few only). */
    void
    note(const std::string &why)
    {
        if (notes.size() < 8)
            notes.push_back(why);
    }

    void
    fail(std::size_t job, const std::string &why)
    {
        if (!bad[job])
            note("job " + std::to_string(job) + ": " + why);
        bad[job] = 1;
    }

    void
    failAll(const std::string &why)
    {
        note(why);
        std::fill(bad.begin(), bad.end(), 1);
    }

    long
    failed() const
    {
        return long(std::count(bad.begin(), bad.end(), 1));
    }

    /** Compare a pass's outcomes with the reference pass, job by job. */
    void
    compare(const std::vector<Outcome> &ref, const std::vector<Outcome> &got,
            const char *pass)
    {
        for (std::size_t i = 0; i < ref.size(); ++i) {
            if (!ref[i].sameAs(got[i])) {
                ++mismatches;
                fail(i, std::string("differs in the ") + pass + " pass");
            }
        }
    }
};

/** Legality-verify every result; optionally time each call. */
void
verifyAll(const std::vector<SuiteLoop> &suite, const Machine &m,
          const std::vector<BatchJob> &jobs,
          const std::vector<const PipelineResult *> &results, Check &check,
          Tracer *tracer, std::vector<double> *us)
{
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!results[i])
            continue;
        const Ddg &g = suite[std::size_t(jobs[i].loop)].graph;
        VerifyReport report;
        const auto call = [&] {
            report = verifyResult(g, m, *results[i]);
        };
        const double s = tracer ? tracer->time("verify.legality", -1,
                                               int(i), call)
                                : (call(), 0.0);
        if (us)
            us->push_back(s * 1e6);
        if (!report.ok()) {
            check.violations += long(report.violations.size());
            check.fail(i, "illegal result: " + report.describe());
        }
    }
}

/** Certify every result; returns the gap census of the valid ones. */
GapReport
certifyAll(const Machine &m, const std::vector<const PipelineResult *> &results,
           Check &check, Tracer *tracer, std::vector<double> *us)
{
    std::vector<CertSummary> summaries(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PipelineResult *r = results[i];
        if (!r)
            continue;
        bool ok = true;
        const auto call = [&] {
            const Ddg &rg = r->graph();
            const Certificate cert = certifyLoop(rg, m, r->ii());
            ok = checkCertificate(rg, m, cert).ok() &&
                 checkCertificateAgainstResult(cert, *r).ok();
            if (ok)
                summaries[i] = summarizeCertificate(cert, *r);
        };
        const double s = tracer ? tracer->time("verify.certify", -1,
                                               int(i), call)
                                : (call(), 0.0);
        if (us)
            us->push_back(s * 1e6);
        if (!ok)
            check.fail(i, "certificate rejected or contradicted");
    }
    return summarizeGaps(summaries);
}

/** FNV-1a over the compared fields of every outcome, in job order. */
std::uint64_t
digest(const std::vector<Outcome> &outcomes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::int64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= std::uint64_t(v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const Outcome &o : outcomes) {
        mix(o.success);
        mix(o.ii);
        mix(o.regs);
        mix(o.spills);
        mix(o.attempts);
    }
    return h;
}

/** Schedule-quality and compile-effort totals over every job. */
struct Totals
{
    double kernelCycles = 0;
    double memTraffic = 0;
    long unfit = 0;
    long attempts = 0;
    long slack = 0;
    long spillRounds = 0;
    long spillLifetimes = 0;
};

Totals
totalsOf(const std::vector<SuiteLoop> &suite,
         const std::vector<BatchJob> &jobs,
         const std::vector<Outcome> &outcomes)
{
    Totals t;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Outcome &o = outcomes[i];
        const double trips = double(suite[std::size_t(jobs[i].loop)].iterations);
        t.kernelCycles += double(o.ii) * trips;
        t.memTraffic += double(o.memOps) * trips;
        t.unfit += !o.success;
        t.attempts += o.attempts;
        t.slack += o.slack;
        if (!jobs[i].ideal && jobs[i].strategy != Strategy::IncreaseII) {
            t.spillRounds += o.rounds;
            t.spillLifetimes += o.spills;
        }
    }
    return t;
}

std::vector<const PipelineResult *>
pointersTo(const std::vector<PipelineResult> &results)
{
    std::vector<const PipelineResult *> out;
    for (const PipelineResult &r : results)
        out.push_back(&r);
    return out;
}

std::vector<const PipelineResult *>
pointersTo(const std::vector<std::optional<PipelineResult>> &results)
{
    std::vector<const PipelineResult *> out;
    for (const std::optional<PipelineResult> &r : results)
        out.push_back(r ? &*r : nullptr);
    return out;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

struct Setup
{
    std::vector<SuiteLoop> suite;
    std::vector<BatchJob> jobs;
    std::vector<double> seconds;  ///< One per repetition.
    int redrawn = 0;              ///< Positions the seed redrew.
    bool classesOk = true;
};

/** One set-up: suite generation plus runner construction, with its
    duration in `seconds`. */
Setup
setUpOnce(const Args &args, Tracer *tracer)
{
    Setup s;
    const Clock::time_point t0 = Clock::now();
    const auto gen = [&] {
        GeneratedSuite g = generate(args.seed);
        s.suite = std::move(g.loops);
        s.redrawn = g.redrawn;
        s.classesOk = g.classesOk;
    };
    if (tracer)
        tracer->time("workload.gen", -1, -1, gen);
    else
        gen();
    SuiteRunner runner(1);
    s.jobs = workloadJobs(args.workload, int(s.suite.size()));
    s.seconds.push_back(secondsSince(t0));
    return s;
}

/** The checks every run ends with, outside the timed region. */
void
checkOutputs(const Args &args, const Machine &m, const Setup &s,
             const std::vector<const PipelineResult *> &ref,
             Check &check, Tracer *tracer, std::vector<double> *legalityUs,
             std::vector<double> *certifyUs)
{
    if (!s.classesOk) {
        check.pinnedOk = false;
        check.note("the suite generator no longer puts the pinned suite's "
                   "heavy loops where kPinnedHeavy says");
    }
    verifyAll(s.suite, m, s.jobs, ref, check, tracer, legalityUs);
    const bool census = args.workload == "suite-best";
    if (!census && !tracer)
        return;
    const GapReport gaps = certifyAll(m, ref, check, tracer, certifyUs);
    std::printf("certificates: %s\n", describeGapReport(gaps).c_str());
    if (census && args.seed == kDefaultSuiteSeed) {
        const bool censusOk = gaps.optimal == kPinnedCensus[0] &&
                              gaps.gapOne == kPinnedCensus[1] &&
                              gaps.unproven == kPinnedCensus[2];
        std::printf("certificate census %d/%d/%d vs pinned %d/%d/%d: %s\n",
                    gaps.optimal, gaps.gapOne, gaps.unproven,
                    kPinnedCensus[0], kPinnedCensus[1], kPinnedCensus[2],
                    censusOk ? "ok" : "MISMATCH");
        if (!censusOk) {
            check.pinnedOk = false;
            check.note("certificate census differs from the pin");
        }
    }
}

void
printHeader(const Args &args, const Setup &s, int nproc)
{
    std::printf("perfbench workload=%s seed=%llu machine=p2l4 loops=%zu "
                "(%zu heavy, %d redrawn by the seed) jobs=%zu nproc=%d "
                "seconds=%s trace=%d\n",
                args.workload.c_str(), (unsigned long long)args.seed,
                s.suite.size(), std::size(kPinnedHeavy), s.redrawn,
                s.jobs.size(), nproc,
                formatNumber(args.seconds).c_str(), int(args.trace));
}

/** Finish: failures, digest, the JSON line. Returns the exit code. */
int
finish(const Report &report, const Check &check,
       const std::vector<Outcome> &ref, std::size_t jobs)
{
    const long failed = check.failed();
    std::printf("output check: %ld of %zu jobs failed (violations %ld, "
                "mismatches %ld, throws %ld); failed_frac %s ratio\n",
                failed, jobs, check.violations, check.mismatches,
                check.throws,
                formatNumber(double(failed) / double(jobs)).c_str());
    for (const std::string &note : check.notes)
        std::printf("  %s\n", note.c_str());
    std::printf("result digest: %016llx\n",
                (unsigned long long)digest(ref));
    const bool correct = failed == 0 && check.pinnedOk;
    std::fflush(stdout);
    report.printJson(correct, long(jobs), failed);
    return 0;
}

void
noteRunnerPass(const RunnerPass &pass, Check &check)
{
    if (pass.threw) {
        ++check.throws;
        check.failAll("a SuiteRunner pass threw: " + pass.error);
    }
}

void
noteDirectPass(const DirectPass &pass, Check &check)
{
    for (std::size_t i = 0; i < pass.results.size(); ++i) {
        if (!pass.results[i]) {
            ++check.throws;
            check.fail(i, "the direct call threw");
        }
    }
    for (const std::string &e : pass.errors)
        check.note(e);
}

/** --trace 0: the end-to-end metrics. */
int
runEndToEnd(const Args &args, const Machine &m, int nproc)
{
    Report report;
    Setup s = setUpOnce(args, nullptr);
    printHeader(args, s, nproc);
    Check check(s.jobs.size());
    const double jobs = double(s.jobs.size());
    Clock::time_point lastSetup = Clock::now();
    const auto sampleSetup = [&] {
        if (secondsSince(lastSetup) < kSetupEverySeconds)
            return;
        s.seconds.push_back(setUpOnce(args, nullptr).seconds.front());
        lastSetup = Clock::now();
    };

    // 1-thread runner passes alternate with direct-call passes (both
    // single-threaded, rotating over the CPUs), so each samples the whole
    // run rather than one stretch of it; the host's speed drifts over
    // seconds.
    warmUp(s.suite, m, s.jobs, 1, kWarmSerialSeconds);
    std::vector<double> t1Rate, p50, p99, allLatency;
    double tailP = 0;
    std::vector<PipelineResult> t1Results;
    std::vector<Outcome> ref;
    // The rotation pins this thread; it must be gone (full mask back)
    // before the nproc runners spawn their workers, which inherit it.
    auto rotation = std::make_unique<CpuRotation>();
    repeatWithin(0.75 * args.seconds, 1, [&] {
        rotation->next();
        RunnerPass pass = runnerPass(s.suite, m, s.jobs, 1);
        noteRunnerPass(pass, check);
        t1Rate.push_back(jobs / pass.seconds);
        if (!pass.threw && ref.empty()) {
            ref = outcomesOf(pass.results);
            t1Results = std::move(pass.results);
        } else if (!pass.threw) {
            check.compare(ref, outcomesOf(pass.results), "1-thread");
        }
        sampleSetup();

        const DirectPass direct =
            directPass(s.suite, m, s.jobs, nullptr, rotation.get());
        noteDirectPass(direct, check);
        check.compare(ref, outcomesOf(direct), "direct-call");
        tailP = tailPercentile(direct.latencyMs.size());
        p50.push_back(median(direct.latencyMs));
        p99.push_back(percentile(direct.latencyMs, tailP));
        allLatency.insert(allLatency.end(), direct.latencyMs.begin(),
                          direct.latencyMs.end());
        sampleSetup();
        return pass.seconds + direct.seconds;
    });
    rotation.reset();
    if (ref.empty())
        ref.assign(s.jobs.size(), Outcome{});

    // nproc-thread passes, after the parallel warm-up.
    warmUp(s.suite, m, s.jobs, nproc, kWarmParallelSeconds);
    std::vector<double> tnRate, efficiency, cpuEfficiency;
    repeatWithin(0.25 * args.seconds, 3, [&] {
        const RunnerPass pass = runnerPass(s.suite, m, s.jobs, nproc);
        noteRunnerPass(pass, check);
        tnRate.push_back(jobs / pass.seconds);
        double busy = 0;
        for (const WorkerPerf &w : pass.perf)
            busy += w.scheduleSeconds;
        efficiency.push_back(busy / (pass.seconds * nproc));
        cpuEfficiency.push_back(pass.cpuSeconds / (pass.seconds * nproc));
        if (!pass.threw)
            check.compare(ref, outcomesOf(pass.results), "nproc-thread");
        sampleSetup();
        return pass.seconds;
    });

    checkOutputs(args, m, s, pointersTo(t1Results), check, nullptr,
                 nullptr, nullptr);
    const Totals t = totalsOf(s.suite, s.jobs, ref);

    std::printf("timings (each pass sample is one whole pass):\n");
    Report::timing("setup_s", s.seconds, "s");
    Report::timing("loops_per_s_t1", t1Rate, "jobs/s");
    Report::timing("loops_per_s_nproc", tnRate, "jobs/s");
    Report::timing("driver.parallel_eff", efficiency, "ratio");
    Report::timing("driver.cpu_eff", cpuEfficiency, "ratio");
    Report::timing("loop_ms (all direct calls)", allLatency, "ms");
    Report::timing("loop_ms_p50 per pass", p50, "ms");
    Report::timing("loop_ms_" + percentileLabel(tailP) + " per pass", p99,
                   "ms");
    std::printf("exact counts:\n");
    Report::count("kernel_cycles", t.kernelCycles, "cycles");
    Report::count("mem_traffic", t.memTraffic, "ops");
    Report::count("loops_unfit", double(t.unfit), "jobs");
    Report::count("sched.attempts", double(t.attempts), "count");
    std::printf("memory: peak_rss_mb %s MB\n",
                formatNumber(peakRssMb()).c_str());

    if (tailP != 0.99) {
        std::fprintf(stderr, "perfbench: loop_ms_p99 needs >= 1000 jobs\n");
        return 1;
    }
    report.metric("loops_per_s_t1", median(t1Rate), "jobs/s");
    report.metric("loops_per_s_nproc", median(tnRate), "jobs/s");
    report.metric("loop_ms_p50", median(p50), "ms");
    report.metric("loop_ms_p99", median(p99), "ms");
    report.metric("setup_s", median(s.seconds), "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.metric("kernel_cycles", t.kernelCycles, "cycles");
    report.metric("mem_traffic", t.memTraffic, "ops");
    // Jobs within budget: loops_unfit is 0 on the suite workloads, and
    // a reported metric must never read 0.
    report.metric("loops_fit", jobs - double(t.unfit), "jobs");
    return finish(report, check, ref, s.jobs.size());
}

/** --trace 1: the per-layer metrics. */
int
runTraced(const Args &args, const Machine &m, int nproc)
{
    Report report;
    Tracer tracer(Clock::now());
    Setup s = setUpOnce(args, &tracer);
    for (int rep = 1; rep < kTracedSetupReps; ++rep)
        s.seconds.push_back(setUpOnce(args, &tracer).seconds.front());
    printHeader(args, s, nproc);
    Check check(s.jobs.size());
    const double jobs = double(s.jobs.size());

    // Memo counters of a cold 1-thread pass.
    warmUp(s.suite, m, s.jobs, 1, kWarmSerialSeconds);
    RunnerPass t1 = runnerPass(s.suite, m, s.jobs, 1);
    noteRunnerPass(t1, check);
    const std::vector<Outcome> ref =
        t1.threw ? std::vector<Outcome>(s.jobs.size()) : outcomesOf(t1.results);

    // Worker counters of a warmed nproc pass.
    warmUp(s.suite, m, s.jobs, nproc, kWarmParallelSeconds);
    const RunnerPass tn = runnerPass(s.suite, m, s.jobs, nproc);
    noteRunnerPass(tn, check);
    if (!tn.threw)
        check.compare(ref, outcomesOf(tn.results), "nproc-thread");
    WorkerPerf perf;
    for (const WorkerPerf &w : tn.perf) {
        perf.scheduleSeconds += w.scheduleSeconds;
        perf.stealSeconds += w.stealSeconds;
        perf.memoWaitSeconds += w.memoWaitSeconds;
        perf.steals += w.steals;
    }

    // Untraced and traced direct passes, alternated; the traced one's
    // results feed the replay.
    std::vector<double> plainRate, tracedRate;
    std::map<std::string, double> strategySeconds;
    DirectPass traced;
    const std::size_t spansBefore = tracer.size();
    std::size_t tracedSpans = 0;
    CpuRotation rotation;
    repeatWithin(0.75 * args.seconds, 1, [&] {
        const DirectPass plain =
            directPass(s.suite, m, s.jobs, nullptr, &rotation);
        noteDirectPass(plain, check);
        check.compare(ref, outcomesOf(plain), "direct-call");
        plainRate.push_back(jobs / plain.seconds);
        if (plainRate.size() == 1) {
            for (std::size_t i = 0; i < s.jobs.size(); ++i)
                strategySeconds[jobKind(s.jobs[i])] +=
                    plain.latencyMs[i] * 1e-3;
        }
        // Only the first traced pass keeps its spans.
        Tracer scratch(Clock::now());
        const bool keep = tracedRate.empty();
        DirectPass t = directPass(s.suite, m, s.jobs,
                                  keep ? &tracer : &scratch, &rotation);
        const double tracedSeconds = t.seconds;
        tracedRate.push_back(jobs / tracedSeconds);
        if (keep) {
            tracedSpans = tracer.size() - spansBefore;
            traced = std::move(t);
        }
        return plain.seconds + tracedSeconds;
    });
    noteDirectPass(traced, check);
    check.compare(ref, outcomesOf(traced), "traced direct-call");

    // Replay each layer's public entry point from outside.
    std::unique_ptr<ModuloScheduler> hrms = makeScheduler(SchedulerKind::Hrms);
    std::vector<double> miiUs, searchUs, analyzeUs, allocUs, selectUs,
        insertUs;
    std::vector<std::optional<Schedule>> firstSched(s.suite.size());
    std::vector<char> loopSeen(s.suite.size(), 0);
    for (std::size_t i = 0; i < s.jobs.size(); ++i) {
        const BatchJob &job = s.jobs[i];
        const std::size_t loop = std::size_t(job.loop);
        const Ddg &g = s.suite[loop].graph;
        const int root = tracer.open("bench.replay", -1, int(i));
        if (!loopSeen[loop]) {
            loopSeen[loop] = 1;
            int lower = 0;
            miiUs.push_back(1e6 * tracer.time("sched.mii", root, int(i),
                                              [&] { lower = mii(g, m); }));
            searchUs.push_back(
                1e6 * tracer.time("sched.search", root, int(i), [&] {
                    firstSched[loop] = searchIi(*hrms, g, m, lower).sched;
                }));
        }
        if (const std::optional<PipelineResult> &r = traced.results[i]) {
            analyzeUs.push_back(
                1e6 * tracer.time("liferange.analyze", root, int(i), [&] {
                    (void)analyzeLifetimes(r->graph(), r->sched);
                }));
            allocUs.push_back(
                1e6 * tracer.time("regalloc.alloc", root, int(i), [&] {
                    (void)allocateLoop(r->graph(), r->sched, jobBudget(job),
                                       job.options.fit);
                }));
        }
        const bool spills =
            !job.ideal && job.strategy != Strategy::IncreaseII;
        if (spills && firstSched[loop] &&
            !allocateLoop(g, *firstSched[loop], job.options.registers,
                          job.options.fit)
                 .fits) {
            const LifetimeInfo lt = analyzeLifetimes(g, *firstSched[loop]);
            std::vector<SpillCandidate> picks;
            selectUs.push_back(
                1e6 * tracer.time("spill.select", root, int(i), [&] {
                    const std::vector<SpillCandidate> cands =
                        spillCandidates(g, lt, job.options.spillUses);
                    if (job.options.multiSelect) {
                        picks = selectMultiple(cands, job.options.heuristic,
                                               lt, job.options.registers);
                    } else if (auto one =
                                   selectOne(cands, job.options.heuristic)) {
                        picks.push_back(*one);
                    }
                }));
            Ddg copy = g;
            insertUs.push_back(
                1e6 * tracer.time("spill.insert", root, int(i), [&] {
                    for (const SpillCandidate &pick : picks)
                        insertSpill(copy, m, pick);
                }));
        }
        tracer.close(root);
    }

    // One machineContentFingerprint call, timed in batches.
    std::vector<double> fingerprintUs;
    std::uint64_t sink = 0;
    constexpr int kFpBatch = 200;
    for (int b = 0; b < 50; ++b) {
        const double sec = tracer.time("machine.fingerprint", -1, -1, [&] {
            for (int k = 0; k < kFpBatch; ++k)
                sink += machineContentFingerprint(m);
        });
        fingerprintUs.push_back(1e6 * sec / kFpBatch);
    }

    std::vector<double> legalityUs, certifyUs;
    checkOutputs(args, m, s, pointersTo(traced.results), check, &tracer,
                 &legalityUs, &certifyUs);
    const Totals t = totalsOf(s.suite, s.jobs, ref);

    std::printf("replayed per-call costs:\n");
    Report::timing("machine.fingerprint_us", fingerprintUs, "us");
    Report::timing("sched.mii_us", miiUs, "us");
    Report::timing("sched.search_us", searchUs, "us");
    Report::timing("liferange.analyze_us", analyzeUs, "us");
    Report::timing("regalloc.alloc_us", allocUs, "us");
    Report::timing("spill.select_us", selectUs, "us");
    Report::timing("spill.insert_us", insertUs, "us");
    Report::timing("verify.legality_us", legalityUs, "us");
    Report::timing("verify.certify_us", certifyUs, "us");
    Report::timing("untraced direct loops/s", plainRate, "jobs/s");
    Report::timing("traced direct loops/s", tracedRate, "jobs/s");

    const std::map<std::string, Tracer::Totals> spans = tracer.totals();
    std::printf("spans (%zu recorded, %zu in the kept traced pass; "
                "fingerprint sink %llx):\n",
                tracer.size(), tracedSpans, (unsigned long long)(sink & 0xf));
    for (const auto &[name, tot] : spans) {
        std::printf("  %-22s n=%-7ld total %.6f s  self %.6f s\n",
                    name.c_str(), tot.count, tot.total, tot.self);
    }
    if (!args.spansPath.empty()) {
        if (!tracer.write(args.spansPath)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.spansPath.c_str());
            return 1;
        }
        std::printf("spans written to %s\n", args.spansPath.c_str());
    }

    const SingleFlightStats &sm = t1.memo.schedule;
    const SingleFlightStats &bm = t1.memo.bounds;
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    double setupGen = 0;
    if (const auto g = spans.find("workload.gen"); g != spans.end())
        setupGen = g->second.total / double(g->second.count);
    report.metric("workload.gen_s", setupGen, "s");
    report.metric("machine.fingerprint_us", median(fingerprintUs), "us");
    report.metric("sched.mii_us", median(miiUs), "us");
    report.metric("sched.search_us", median(searchUs), "us");
    report.metric("sched.attempts", double(t.attempts), "count");
    report.metric("sched.memo_requests", double(sm.requests), "count");
    report.metric("sched.memo_computes", double(sm.computes), "count");
    report.metric("sched.memo_hit_ratio",
                  ratio(double(sm.requests - sm.computes), double(sm.requests)),
                  "ratio");
    report.metric("sched.bounds_hit_ratio",
                  ratio(double(bm.requests - bm.computes), double(bm.requests)),
                  "ratio");
    report.metric("liferange.analyze_us", median(analyzeUs), "us");
    report.metric("regalloc.alloc_us_p50", median(allocUs), "us");
    report.metric("regalloc.alloc_us_p99", percentile(allocUs, 0.99), "us");
    report.metric("regalloc.alloc_s", sum(allocUs) * 1e-6, "s");
    report.metric("regalloc.slack_regs", double(t.slack), "regs");
    report.metric("spill.select_us", median(selectUs), "us");
    report.metric("spill.insert_us", median(insertUs), "us");
    report.metric("spill.rounds", double(t.spillRounds), "count");
    report.metric("spill.lifetimes", double(t.spillLifetimes), "count");
    for (const char *kind : {"ideal", "increase_ii", "spill", "best"}) {
        report.metric(std::string("pipeliner.") + kind + "_s",
                      strategySeconds[kind], "s");
    }
    report.metric("driver.busy_s", perf.scheduleSeconds, "s");
    report.metric("driver.steal_s", perf.stealSeconds, "s");
    report.metric("driver.memo_wait_s", perf.memoWaitSeconds, "s");
    report.metric("driver.steals", double(perf.steals), "count");
    report.metric("driver.parallel_eff",
                  ratio(perf.scheduleSeconds, tn.seconds * nproc), "ratio");
    report.metric("driver.cpu_eff", ratio(tn.cpuSeconds, tn.seconds * nproc),
                  "ratio");
    report.metric("verify.legality_us", median(legalityUs), "us");
    report.metric("verify.certify_us", median(certifyUs), "us");
    report.metric("verify.violations", double(check.violations), "count");
    report.metric("bench.traced_loops_per_s", median(tracedRate), "jobs/s");
    report.metric("bench.trace_overhead_frac",
                  median(plainRate) / median(tracedRate) - 1.0, "ratio");
    for (const char *name : kSpanNames) {
        const auto it = spans.find(name);
        const Tracer::Totals tot =
            it != spans.end() ? it->second : Tracer::Totals{};
        report.metric(std::string(name) + ".total_s", tot.total, "s");
        report.metric(std::string(name) + ".self_s", tot.self, "s");
    }
    return finish(report, check, ref, s.jobs.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (workloadJobs(args.workload, 1).empty())
        usage("unknown workload '" + args.workload + "'");
    try {
        const Machine m = Machine::p2l4();
        const int nproc = availableCpus();
        return args.trace ? runTraced(args, m, nproc)
                          : runEndToEnd(args, m, nproc);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
