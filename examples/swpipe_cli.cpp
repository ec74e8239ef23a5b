/**
 * @file
 * swpipe_cli: command-line driver for the register-constrained
 * pipeliner. Reads loops from .ddg files (or uses built-in loops),
 * schedules them under a register budget with the selected strategy,
 * and optionally emits the kernel listing, the MVE form, a simulation
 * check, or machine-readable CSV.
 *
 * Usage:
 *   swpipe_cli [options] [file.ddg ...]
 *
 * Options:
 *   --machine SPEC                machine configuration: a preset name
 *                                 (p1l4, p2l4, p2l6, universal) or the
 *                                 path of a machine-description file
 *                                 (machine/machdesc format; see
 *                                 examples/machines/). Default p2l4.
 *   --registers N                 register budget (default 32)
 *   --strategy ideal|increase-ii|spill|best   (default best)
 *   --scheduler hrms|ims          core scheduler (default hrms)
 *   --heuristic lt|lttraf         spill selection (default lttraf)
 *   --single                      one lifetime per round (no 4.5 accel)
 *   --uses                        use-granularity spilling (Section 6)
 *   --no-fusion                   ablation: no complex-op fusion
 *   --kernel                      print the kernel listing
 *   --mve                         print the MVE form
 *   --simulate N                  execute N iterations and verify
 *   --verify                      check every result with the
 *                                 independent legality verifier
 *                                 (src/verify); any violation aborts
 *                                 with a diagnostic on stderr and exit
 *                                 code 2. Stdout bytes are unchanged.
 *   --certify                     generate an optimality certificate
 *                                 (II/register lower bounds with
 *                                 explicit witnesses) for every result,
 *                                 validate it with the independent
 *                                 checker, and cross-check it against
 *                                 the achieved II/register count; a
 *                                 rejected certificate or contradiction
 *                                 aborts with exit code 2. Prints the
 *                                 suite-wide optimality-gap report to
 *                                 stderr; stdout bytes are unchanged.
 *   --certify-out FILE            also write one JSON line per job
 *                                 (ascending job index; only owned jobs
 *                                 under --shard) with the certificate
 *                                 summary. Byte-stable across thread
 *                                 counts, and shard files merge into
 *                                 exactly the unsharded bytes when
 *                                 re-ordered by job. Implies --certify.
 *   --csv                         one CSV row per loop
 *   --example                     use the paper's Figure 2 loop
 *   --apsi                        use the APSI 47/50 analogues
 *   --suite N                     use the first N generated suite loops
 *   --seed S                      suite generator seed (default: the
 *                                 pinned kDefaultSuiteSeed)
 *   --threads N|auto              evaluation worker threads (default 1;
 *                                 0 or "auto" = all hardware threads).
 *                                 Output is byte-identical at any
 *                                 thread count.
 *   --memo 0|1                    schedule and allocation
 *                                 memoization (default 1); output is
 *                                 byte-identical either way
 *   --shard i/N                   evaluate only shard i of N (0-based;
 *                                 job j belongs to shard j mod N) and
 *                                 write a shard file instead of stdout
 *                                 output; requires --shard-out
 *   --shard-out FILE              where the shard file is written
 *   --merge-shards F1 F2 ...      recombine a complete set of shard
 *                                 files; stdout and the exit code are
 *                                 byte-identical to the unsharded run.
 *                                 Refuses duplicate, overlapping,
 *                                 missing, or mismatched (config/seed/
 *                                 machine) shards.
 *   --orchestrate N               run the grid as N shard worker
 *                                 processes of this binary (fork/exec),
 *                                 monitor them with a per-shard timeout
 *                                 and bounded retry/backoff, re-run only
 *                                 failed/missing/invalid shards, reuse
 *                                 valid pre-existing shard files of the
 *                                 same configuration (resume), and merge:
 *                                 stdout and the exit code are
 *                                 byte-identical to the 1-process run.
 *   --orch-dir DIR                shard file/log directory for
 *                                 --orchestrate (default swp_orch)
 *   --orch-timeout S              per-attempt worker timeout in seconds
 *                                 (default 600; 0 disables)
 *   --orch-retries K              relaunches after a shard's first
 *                                 failed attempt (default 2)
 *   --orch-backoff MS             initial retry backoff in milliseconds,
 *                                 doubling per attempt (default 100)
 *   --no-resume                   recompute every shard even when a
 *                                 valid shard file already exists
 *   --inject-fail S:A:M[,...]     deterministically fault attempt A
 *                                 (1-based) of shard S with mode M
 *                                 (crash|hang|corrupt) — exercises the
 *                                 retry machinery in tests and drills
 */

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "codegen/kernel.hh"
#include "driver/orchestrate.hh"
#include "driver/shard_merge.hh"
#include "driver/suite_runner.hh"
#include "ir/builder.hh"
#include "machine/machdesc.hh"
#include "pipeliner/pipeliner.hh"
#include "sched/fingerprint.hh"
#include "sim/vliw.hh"
#include "support/diag.hh"
#include "support/strutil.hh"
#include "verify/legality.hh"
#include "workload/ddgio.hh"
#include "workload/paper_loops.hh"
#include "workload/suitegen.hh"

namespace
{

using namespace swp;

struct CliOptions
{
    Machine machine = Machine::p2l4();
    Strategy strategy = Strategy::BestOfAll;
    PipelinerOptions pipeline;
    bool ideal = false;
    bool kernel = false;
    bool mve = false;
    long simulate = 0;
    bool verify = false;
    bool certify = false;
    std::string certifyOut;
    bool csv = false;
    int threads = 1;
    bool memo = true;
    ShardSpec shard;
    /** --shard was given (0/1 is a legitimate single-shard spec). */
    bool shardMode = false;
    std::string shardOut;
    bool mergeMode = false;
    std::vector<std::string> mergeFiles;
    /** --orchestrate N: run the grid as N shard worker processes. */
    int orchestrate = 0;
    std::string orchDir = "swp_orch";
    int orchTimeout = 600;
    int orchRetries = 2;
    int orchBackoffMs = 100;
    bool orchResume = true;
    std::vector<FaultInjection> inject;
    /** Every argument except the orchestration flags, verbatim — what
        each shard worker is launched with (plus --shard/--shard-out). */
    std::vector<std::string> workerArgs;
    /** Suite provenance for shard-file metadata. */
    std::uint64_t suiteSeed = kDefaultSuiteSeed;
    int suiteCount = 0;
    std::vector<SuiteLoop> loops;
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::cerr << "swpipe_cli: " << msg
              << " (see the file header for usage)\n";
    std::exit(2);
}

const char *
nextArg(int argc, char **argv, int &i, const char *flag)
{
    if (++i >= argc)
        usageError(std::string("missing argument for ") + flag);
    return argv[i];
}

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    opts.pipeline.multiSelect = true;
    opts.pipeline.reuseLastIi = true;
    SuiteParams suiteParams;
    int suiteCount = 0;
    bool seedSet = false;
    bool orchKnobSeen = false;
    std::vector<std::string> positional;

    for (int i = 1; i < argc; ++i) {
        const int argStart = i;
        bool orchOnly = false;
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--machine")) {
            opts.machine = machineFromSpec(nextArg(argc, argv, i, arg));
        } else if (!std::strcmp(arg, "--registers")) {
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseIntInRange(text, 1, 1 << 20,
                                 opts.pipeline.registers))
                usageError(std::string("bad --registers count ") + text +
                           " (want a positive integer)");
        } else if (!std::strcmp(arg, "--strategy")) {
            const char *name = nextArg(argc, argv, i, arg);
            if (!std::strcmp(name, "ideal"))
                opts.ideal = true;
            else if (!std::strcmp(name, "increase-ii"))
                opts.strategy = Strategy::IncreaseII;
            else if (!std::strcmp(name, "spill"))
                opts.strategy = Strategy::Spill;
            else if (!std::strcmp(name, "best"))
                opts.strategy = Strategy::BestOfAll;
            else
                usageError(std::string("unknown strategy ") + name);
        } else if (!std::strcmp(arg, "--scheduler")) {
            const char *name = nextArg(argc, argv, i, arg);
            if (!std::strcmp(name, "hrms"))
                opts.pipeline.scheduler = SchedulerKind::Hrms;
            else if (!std::strcmp(name, "ims"))
                opts.pipeline.scheduler = SchedulerKind::Ims;
            else
                usageError(std::string("unknown scheduler ") + name);
        } else if (!std::strcmp(arg, "--heuristic")) {
            const char *name = nextArg(argc, argv, i, arg);
            if (!std::strcmp(name, "lt"))
                opts.pipeline.heuristic = SpillHeuristic::MaxLT;
            else if (!std::strcmp(name, "lttraf"))
                opts.pipeline.heuristic = SpillHeuristic::MaxLTOverTraf;
            else
                usageError(std::string("unknown heuristic ") + name);
        } else if (!std::strcmp(arg, "--single")) {
            opts.pipeline.multiSelect = false;
            opts.pipeline.reuseLastIi = false;
        } else if (!std::strcmp(arg, "--uses")) {
            opts.pipeline.spillUses = true;
        } else if (!std::strcmp(arg, "--no-fusion")) {
            opts.pipeline.fuseSpillOps = false;
        } else if (!std::strcmp(arg, "--kernel")) {
            opts.kernel = true;
        } else if (!std::strcmp(arg, "--mve")) {
            opts.mve = true;
        } else if (!std::strcmp(arg, "--simulate")) {
            const char *text = nextArg(argc, argv, i, arg);
            long long iterations = 0;
            if (!parseInt64InRange(text, 1, 1000000000000LL, iterations))
                usageError(std::string("bad --simulate count ") + text +
                           " (want a positive iteration count)");
            opts.simulate = long(iterations);
        } else if (!std::strcmp(arg, "--verify")) {
            opts.verify = true;
        } else if (!std::strcmp(arg, "--certify")) {
            opts.certify = true;
        } else if (!std::strcmp(arg, "--certify-out")) {
            opts.certifyOut = nextArg(argc, argv, i, arg);
            opts.certify = true;
        } else if (!std::strcmp(arg, "--csv")) {
            opts.csv = true;
        } else if (!std::strcmp(arg, "--example")) {
            opts.loops.push_back({buildPaperExampleLoop(), 100});
        } else if (!std::strcmp(arg, "--apsi")) {
            opts.loops.push_back({buildApsi47Analogue(), 1000});
            opts.loops.push_back({buildApsi50Analogue(), 1000});
        } else if (!std::strcmp(arg, "--suite")) {
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseIntInRange(text, 1, 1000000, suiteCount))
                usageError(std::string("bad --suite count ") + text);
        } else if (!std::strcmp(arg, "--seed")) {
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseUint64(text, suiteParams.seed))
                usageError(std::string("bad --seed value ") + text);
            seedSet = true;
        } else if (!std::strcmp(arg, "--threads")) {
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseThreadsArg(text, opts.threads))
                usageError(std::string("bad --threads count ") + text);
        } else if (!std::strcmp(arg, "--memo")) {
            const char *text = nextArg(argc, argv, i, arg);
            int memo = 1;
            if (!parseIntInRange(text, 0, 1, memo))
                usageError(std::string("bad --memo value ") + text);
            opts.memo = memo != 0;
        } else if (!std::strcmp(arg, "--shard")) {
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseShardSpec(text, opts.shard))
                usageError(std::string("bad --shard spec ") + text +
                           " (want i/N with 0 <= i < N)");
            opts.shardMode = true;
        } else if (!std::strcmp(arg, "--shard-out")) {
            opts.shardOut = nextArg(argc, argv, i, arg);
        } else if (!std::strcmp(arg, "--merge-shards")) {
            opts.mergeMode = true;
        } else if (!std::strcmp(arg, "--orchestrate")) {
            orchOnly = true;
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseIntInRange(text, 1, 4096, opts.orchestrate))
                usageError(std::string("bad --orchestrate count ") + text);
        } else if (!std::strcmp(arg, "--orch-dir")) {
            orchOnly = true;
            orchKnobSeen = true;
            opts.orchDir = nextArg(argc, argv, i, arg);
            if (opts.orchDir.empty())
                usageError("--orch-dir needs a directory");
        } else if (!std::strcmp(arg, "--orch-timeout")) {
            orchOnly = true;
            orchKnobSeen = true;
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseIntInRange(text, 0, 1000000, opts.orchTimeout))
                usageError(std::string("bad --orch-timeout seconds ") +
                           text);
        } else if (!std::strcmp(arg, "--orch-retries")) {
            orchOnly = true;
            orchKnobSeen = true;
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseIntInRange(text, 0, 1000, opts.orchRetries))
                usageError(std::string("bad --orch-retries count ") +
                           text);
        } else if (!std::strcmp(arg, "--orch-backoff")) {
            orchOnly = true;
            orchKnobSeen = true;
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseIntInRange(text, 0, 600000, opts.orchBackoffMs))
                usageError(std::string("bad --orch-backoff ms ") + text);
        } else if (!std::strcmp(arg, "--no-resume")) {
            orchOnly = true;
            orchKnobSeen = true;
            opts.orchResume = false;
        } else if (!std::strcmp(arg, "--inject-fail")) {
            orchOnly = true;
            orchKnobSeen = true;
            const char *text = nextArg(argc, argv, i, arg);
            if (!parseInjectSpec(text, opts.inject))
                usageError(std::string("bad --inject-fail spec ") + text +
                           " (want shard:attempt:crash|hang|corrupt"
                           "[,...])");
        } else if (arg[0] == '-') {
            usageError(std::string("unknown option ") + arg);
        } else {
            // Routed below, once all flags are seen: a positional is a
            // shard file under --merge-shards (wherever the flag sits
            // on the line) and a .ddg input otherwise.
            positional.push_back(arg);
        }
        // Everything except the orchestration flags is forwarded
        // verbatim to shard workers, so a worker reproduces exactly
        // this invocation plus its --shard assignment.
        if (!orchOnly) {
            for (int k = argStart; k <= i && k < argc; ++k)
                opts.workerArgs.push_back(argv[k]);
        }
    }
    if (opts.orchestrate > 0) {
        if (opts.mergeMode)
            usageError("--orchestrate cannot be combined with "
                       "--merge-shards");
        if (opts.shardMode || !opts.shardOut.empty())
            usageError("--orchestrate cannot be combined with --shard "
                       "(the orchestrator launches the shard workers "
                       "itself)");
        if (!opts.certifyOut.empty())
            usageError("--certify-out does not apply to --orchestrate "
                       "runs (collect certificates from the shard "
                       "workers instead)");
    } else if (orchKnobSeen) {
        usageError("--orch-*/--no-resume/--inject-fail only apply to "
                   "--orchestrate runs");
    }
    if (opts.mergeMode) {
        opts.mergeFiles = std::move(positional);
        if (opts.shardMode || !opts.shardOut.empty())
            usageError("--merge-shards cannot be combined with --shard");
        if (opts.certify)
            usageError("--certify does not apply to --merge-shards "
                       "(certify the evaluating runs instead)");
        if (opts.mergeFiles.empty())
            usageError("--merge-shards needs at least one shard file");
        // The merge itself also refuses overlapping shard *contents*;
        // catching a repeated path here gives the clearest diagnostic.
        for (std::size_t a = 0; a < opts.mergeFiles.size(); ++a) {
            for (std::size_t b = 0; b < a; ++b) {
                if (opts.mergeFiles[a] == opts.mergeFiles[b])
                    usageError("shard file " + opts.mergeFiles[a] +
                               " given twice");
            }
        }
        return opts;
    }
    if (opts.shardMode && opts.shardOut.empty())
        usageError("--shard requires --shard-out FILE");
    if (!opts.shardOut.empty() && !opts.shardMode)
        usageError("--shard-out only applies to --shard runs");
    if (seedSet && suiteCount == 0)
        usageError("--seed only applies to --suite loops");
    for (const std::string &path : positional) {
        for (SuiteLoop &loop : parseDdgFile(path))
            opts.loops.push_back(std::move(loop));
    }
    for (int i = 0; i < suiteCount; ++i)
        opts.loops.push_back(generateSuiteLoop(suiteParams, i));
    opts.suiteSeed = suiteParams.seed;
    opts.suiteCount = suiteCount;
    if (opts.loops.empty())
        opts.loops.push_back({buildPaperExampleLoop(), 100});
    return opts;
}

/** The text emitted once before any per-loop report. */
std::string
outputPrologue(const CliOptions &opts)
{
    return opts.csv ? "loop,machine,strategy,budget,fits,mii,ii,"
                      "regs,spills,memops,attempts\n"
                    : "";
}

/**
 * Render one loop's report into `out` — exactly the bytes an unsharded
 * run writes to stdout for it, so sharded runs can store the text in a
 * shard record and the merge can reproduce the run by concatenation.
 * Diagnostics (the simulation-mismatch note) go to stderr, not `out`;
 * they reach the merged run through the returned rc instead.
 * `loopMii` is the loop's MII on opts.machine, read from the runner's
 * bounds memo that the batch run already filled.
 */
int
reportLoop(const CliOptions &opts, const SuiteLoop &loop,
           const PipelineResult &r, int loopMii, std::ostream &out)
{
    const Ddg &g = loop.graph;
    const Machine &m = opts.machine;

    if (opts.csv) {
        out << g.name() << "," << m.name() << ","
            << (opts.ideal ? "ideal" : strategyName(opts.strategy))
            << "," << opts.pipeline.registers << ","
            << (r.success ? 1 : 0) << "," << loopMii << ","
            << r.ii() << "," << r.alloc.regsRequired << ","
            << r.spilledLifetimes << ","
            << r.memOpsPerIteration() << "," << r.attempts
            << "\n";
    } else {
        out << "loop '" << g.name() << "' on " << m.name()
            << ": " << (r.success ? "fits" : "DOES NOT FIT")
            << " budget " << opts.pipeline.registers << " — II="
            << r.ii() << " (MII " << loopMii << "), "
            << r.alloc.regsRequired << " regs, "
            << r.spilledLifetimes << " spills, "
            << r.memOpsPerIteration() << " mem ops/iter\n";
    }

    if (opts.kernel) {
        out << formatKernelListing(r.graph(), m, r.sched,
                                   r.alloc.rotAlloc);
    }
    if (opts.mve) {
        const LifetimeInfo info = analyzeLifetimes(r.graph(), r.sched);
        out << formatMveKernel(r.graph(), r.sched, info);
        if (opts.verify) {
            // The MVE layer lives outside PipelineResult, so the
            // per-job verification cannot see it; check it here, where
            // the allocation is actually produced and printed.
            const VerifyReport mv = verifyMveAllocation(
                r.graph(), r.sched, allocateMve(info));
            if (!mv.ok()) {
                SWP_FATAL("loop '", g.name(),
                          "': illegal MVE allocation:\n", mv.describe());
            }
        }
    }
    if (opts.simulate > 0) {
        std::string why;
        if (!equivalentToSequential(g, r.graph(), m, r.sched,
                                    r.alloc.rotAlloc, opts.simulate,
                                    &why)) {
            std::cerr << "simulation MISMATCH on '" << g.name()
                      << "': " << why << "\n";
            return 1;
        }
        if (!opts.csv) {
            out << "  simulation: " << opts.simulate
                << " iterations match the sequential reference\n";
        }
    }
    return 0;
}

/**
 * Fingerprint of everything the rendered output depends on: the build,
 * every output-relevant option, the machine, and each input loop's
 * structural fingerprint and trip count. Two shard runs merge only if
 * these match, so shards of different seeds, .ddg inputs, budgets, or
 * binaries are refused instead of silently concatenated.
 */
std::string
configFingerprint(const CliOptions &opts)
{
    Fingerprint fp;
    fp.mix(std::string(__VERSION__));
#ifdef NDEBUG
    fp.mix(std::uint64_t(1));
#else
    fp.mix(std::uint64_t(0));
#endif
    fp.mix(machineFingerprint(opts.machine));
    fp.mix(opts.machine.name());
    fp.mix(std::uint64_t(opts.ideal));
    fp.mix(std::uint64_t(int(opts.strategy)));
    fp.mix(std::uint64_t(int(opts.pipeline.scheduler)));
    fp.mix(std::uint64_t(opts.pipeline.registers));
    fp.mix(std::uint64_t(int(opts.pipeline.heuristic)));
    fp.mix(std::uint64_t(opts.pipeline.multiSelect));
    fp.mix(std::uint64_t(opts.pipeline.spillUses));
    fp.mix(std::uint64_t(opts.pipeline.reuseLastIi));
    fp.mix(std::uint64_t(int(opts.pipeline.fit)));
    fp.mix(std::uint64_t(opts.pipeline.maxSpillRounds));
    fp.mix(std::uint64_t(opts.pipeline.fuseSpillOps));
    fp.mix(std::uint64_t(opts.kernel));
    fp.mix(std::uint64_t(opts.mve));
    fp.mix(std::uint64_t(opts.simulate));
    fp.mix(std::uint64_t(opts.csv));
    for (const SuiteLoop &loop : opts.loops) {
        fp.mix(graphFingerprint(loop.graph));
        fp.mix(loop.graph.name());
        fp.mix(std::uint64_t(loop.iterations));
    }
    return strprintf("%016llx",
                     static_cast<unsigned long long>(fp.value()));
}

std::string
configSummary(const CliOptions &opts)
{
    std::ostringstream os;
    os << "machine=" << opts.machine.name() << " strategy="
       << (opts.ideal ? "ideal" : strategyName(opts.strategy))
       << " registers=" << opts.pipeline.registers << " loops="
       << opts.loops.size();
    if (opts.suiteCount > 0)
        os << " suite-seed=" << opts.suiteSeed;
    os << " csv=" << int(opts.csv) << " kernel=" << int(opts.kernel)
       << " mve=" << int(opts.mve) << " simulate=" << opts.simulate;
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const CliOptions opts = parseArgs(argc, argv);

        if (opts.mergeMode) {
            std::vector<ShardDoc> docs;
            docs.reserve(opts.mergeFiles.size());
            for (const std::string &path : opts.mergeFiles)
                docs.push_back(readShardFile(path));
            const MergeOutput merged = mergeShards(docs);
            std::cout << merged.text;
            return merged.rc;
        }

        if (opts.orchestrate > 0) {
            // Run the grid as a fleet of shard workers of this very
            // binary; the parent evaluates nothing itself. Merging the
            // validated shard files reproduces the 1-process run's
            // stdout and exit code byte-for-byte.
            OrchestrateOptions orch;
            orch.shards = opts.orchestrate;
            orch.dir = opts.orchDir;
            orch.maxAttempts = opts.orchRetries + 1;
            orch.timeoutSeconds = opts.orchTimeout;
            orch.backoffSeconds = opts.orchBackoffMs / 1000.0;
            orch.resume = opts.orchResume;
            orch.inject = opts.inject;
            orch.expectTool = "swpipe_cli";
            orch.expectConfig = configFingerprint(opts);
            const OrchestrateResult fleet = orchestrateShards(
                selfExecutablePath(argv[0]), opts.workerArgs, orch);
            const MergeOutput merged = mergeShards(fleet.docs);
            std::cout << merged.text;
            return merged.rc;
        }

        // Evaluate all loops as one batch on the worker pool, then
        // report serially in input order — the output is byte-identical
        // at any --threads count, --memo setting, and shard split.
        SuiteRunner runner(opts.threads, opts.memo);
        std::vector<BatchJob> jobs(opts.loops.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            jobs[i].loop = int(i);
            jobs[i].ideal = opts.ideal;
            jobs[i].strategy = opts.strategy;
            jobs[i].options = opts.pipeline;
        }
        RunOptions ropts;
        ropts.shard = opts.shard;
        ropts.verify = opts.verify;
        ropts.certify = opts.certify;
        std::vector<CertSummary> certs;
        if (opts.certify)
            ropts.certificates = &certs;
        const std::vector<swp::PipelineResult> results =
            runner.run(opts.loops, opts.machine, jobs, ropts);
        if (opts.certify) {
            // run() threw on any rejected certificate or contradiction,
            // so every summary here is checker-approved. All output is
            // stderr or the JSON file: --certify must never change the
            // fingerprinted stdout bytes.
            if (!opts.certifyOut.empty()) {
                std::ofstream out(opts.certifyOut,
                                  std::ios::out | std::ios::trunc);
                if (!out) {
                    SWP_FATAL("cannot write certificate file ",
                              opts.certifyOut);
                }
                for (std::size_t i = 0; i < certs.size(); ++i) {
                    if (opts.shard.owns(i))
                        out << certSummaryJson(int(i), certs[i]) << "\n";
                }
            }
            std::cerr << describeGapReport(summarizeGaps(certs)) << "\n";
        }
        if (opts.verify) {
            // run() threw on any violation, so reaching here means the
            // whole batch is legal. Stderr only: --verify must never
            // change the fingerprinted stdout bytes.
            std::size_t verified = 0;
            for (std::size_t i = 0; i < jobs.size(); ++i)
                verified += opts.shard.owns(i);
            std::cerr << "verify: " << verified << " of " << jobs.size()
                      << " results legal, 0 violations\n";
        }

        if (opts.shardMode) {
            // Render only this shard's jobs, into a shard file rather
            // than stdout; --merge-shards later reassembles the run.
            ShardDoc doc;
            doc.tool = "swpipe_cli";
            doc.config = configFingerprint(opts);
            doc.configSummary = configSummary(opts);
            if (opts.suiteCount > 0) {
                doc.suiteSeed = std::to_string(opts.suiteSeed);
                doc.suiteLoops = opts.suiteCount;
            }
            doc.totalJobs = jobs.size();
            doc.shard = opts.shard;
            doc.prologue = outputPrologue(opts);
            int rc = 0;
            for (std::size_t i = 0; i < opts.loops.size(); ++i) {
                if (!opts.shard.owns(i))
                    continue;
                std::ostringstream text;
                ShardRecord rec;
                rec.job = i;
                rec.rc = reportLoop(
                    opts, opts.loops[i], results[i],
                    runner.bounds(opts.loops[i].graph, opts.machine).mii,
                    text);
                rec.text = text.str();
                rc |= rec.rc;
                doc.records.push_back(std::move(rec));
            }
            // Fault hook for orchestrator tests: "crash"/"hang" never
            // return, "corrupt" replaces our write with garbage.
            if (maybeInjectFault(opts.shardOut))
                return rc;
            writeShardFile(opts.shardOut, doc);
            std::cerr << "shard " << formatShardSpec(opts.shard) << ": "
                      << doc.records.size() << " of " << doc.totalJobs
                      << " jobs written to " << opts.shardOut << "\n";
            return rc;
        }

        std::cout << outputPrologue(opts);
        int rc = 0;
        for (std::size_t i = 0; i < opts.loops.size(); ++i) {
            rc |= reportLoop(
                opts, opts.loops[i], results[i],
                runner.bounds(opts.loops[i].graph, opts.machine).mii,
                std::cout);
        }
        return rc;
    } catch (const swp::FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        // E.g. allocation failure on a corrupt shard file: still a
        // clean refusal, not std::terminate.
        std::cerr << "swpipe_cli: " << e.what() << "\n";
        return 2;
    }
}
