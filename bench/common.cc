#include "common.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>

#include "machine/machdesc.hh"
#include "sched/fingerprint.hh"
#include "support/diag.hh"
#include "support/stats.hh"
#include "support/strutil.hh"

namespace swp::benchutil
{

namespace
{

struct RecordedTable
{
    std::string name;
    Table table;
};

struct RecordedMetric
{
    std::string name;
    double value;
};

std::vector<RecordedTable> &
recordedTables()
{
    static std::vector<RecordedTable> tables;
    return tables;
}

std::vector<RecordedMetric> &
recordedMetrics()
{
    static std::vector<RecordedMetric> metrics;
    return metrics;
}

/** Whether the harness actually used the generated suite — gates the
    JSON "suite" provenance stanza. */
bool &
suiteConsumed()
{
    static bool consumed = false;
    return consumed;
}

[[noreturn]] void
flagError(const std::string &msg)
{
    std::cerr << "bench: " << msg << "\n";
    std::exit(2);
}

/** Strict JSON number grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    — strtod is laxer (hex, leading zeros/plus, trailing dot) and would
    emit cells that are not valid JSON. */
bool
isJsonNumber(const std::string &s)
{
    std::size_t i = 0;
    const auto digit = [&](std::size_t k) {
        return k < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[k]));
    };
    if (i < s.size() && s[i] == '-')
        ++i;
    if (!digit(i))
        return false;
    if (s[i] == '0')
        ++i;
    else
        while (digit(i))
            ++i;
    if (i < s.size() && s[i] == '.') {
        if (!digit(++i))
            return false;
        while (digit(i))
            ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < s.size() && (s[i] == '+' || s[i] == '-'))
            ++i;
        if (!digit(i))
            return false;
        while (digit(i))
            ++i;
    }
    return i == s.size();
}

/** Emit a table cell: as a bare number when it is one. */
std::string
jsonCell(const std::string &cell)
{
    return isJsonNumber(cell) ? cell : jsonQuote(cell);
}

/** Record/replay store for --orch-record / --orchestrate. */
struct OrchState
{
    /** Parent mode: replay benchEvaluate from byKey, never evaluate. */
    bool replay = false;

    /** Merged fleet records, keyed for replay lookups. */
    std::map<std::string, BenchJobRecord> byKey;

    /** Worker mode: jobs recorded so far, in first-evaluation order. */
    std::vector<BenchJobRecord> recorded;
    std::map<std::string, std::size_t> recordedIndex;
};

OrchState &
orchState()
{
    static OrchState state;
    return state;
}

/**
 * Everything a per-job record's validity depends on that is not in the
 * job key itself: the build, the harness, the suite, and the machine
 * selection. Fleet shard files must agree on this to merge.
 */
std::string
benchConfigFingerprint()
{
    const BenchOptions &opts = benchOptions();
    Fingerprint fp;
    fp.mix(std::string(__VERSION__));
#ifdef NDEBUG
    fp.mix(std::uint64_t(1));
#else
    fp.mix(std::uint64_t(0));
#endif
    fp.mix(opts.benchName);
    fp.mix(opts.suite.seed);
    fp.mix(std::uint64_t(opts.suite.numLoops));
    fp.mix(opts.machineSpec);
    return strprintf("%016llx",
                     static_cast<unsigned long long>(fp.value()));
}

std::string
benchConfigSummary()
{
    const BenchOptions &opts = benchOptions();
    return "bench=" + opts.benchName + " seed=" +
           std::to_string(opts.suite.seed) + " loops=" +
           std::to_string(opts.suite.numLoops) + " machine=" +
           (opts.machineSpec.empty() ? "(default)" : opts.machineSpec);
}

/**
 * Content key of one grid job: pipeline results are pure functions of
 * (graph, machine, job options), so this key identifies a job across
 * processes regardless of grid shape or job index.
 */
std::string
jobKey(const Ddg &g, const Machine &m, const BatchJob &job)
{
    Fingerprint fp;
    fp.mix(graphFingerprint(g));
    fp.mix(machineFingerprint(m));
    fp.mix(std::uint64_t(job.ideal));
    fp.mix(std::uint64_t(int(job.strategy)));
    fp.mix(std::uint64_t(int(job.options.scheduler)));
    fp.mix(std::uint64_t(job.options.registers));
    fp.mix(std::uint64_t(int(job.options.heuristic)));
    fp.mix(std::uint64_t(job.options.multiSelect));
    fp.mix(std::uint64_t(job.options.spillUses));
    fp.mix(std::uint64_t(job.options.reuseLastIi));
    fp.mix(std::uint64_t(int(job.options.fit)));
    fp.mix(std::uint64_t(job.options.maxSpillRounds));
    fp.mix(std::uint64_t(job.options.fuseSpillOps));
    return strprintf("%016llx",
                     static_cast<unsigned long long>(fp.value()));
}

void
recordBenchJob(const std::string &key, const JobSummary &s)
{
    OrchState &state = orchState();
    if (state.recordedIndex.count(key))
        return; // Pure job re-evaluated (e.g. a timing rerun).
    BenchJobRecord rec;
    rec.key = key;
    rec.success = s.success;
    rec.usedFallback = s.usedFallback;
    rec.ii = s.ii;
    rec.regs = s.regs;
    rec.spills = s.spills;
    rec.rounds = s.rounds;
    rec.attempts = s.attempts;
    rec.memOps = s.memOps;
    state.recordedIndex.emplace(key, state.recorded.size());
    state.recorded.push_back(std::move(rec));
}

} // namespace

const char *
variantName(Variant v)
{
    switch (v) {
      case Variant::Ideal: return "ideal (infinite registers)";
      case Variant::MaxLt: return "Max(LT)";
      case Variant::MaxLtTraf: return "Max(LT/Traf)";
      case Variant::MaxLtTrafMulti: return "Max(LT/Traf)+multiple";
      case Variant::MaxLtTrafMultiLastIi:
        return "Max(LT/Traf)+multiple+lastII";
      case Variant::IncreaseIi: return "increase-II";
      case Variant::BestOfAll: return "best-of-all";
    }
    SWP_PANIC("unknown variant ", int(v));
}

BatchJob
variantJob(int loopIndex, Variant v, int registers)
{
    BatchJob job;
    job.loop = loopIndex;
    job.options.registers = registers;
    switch (v) {
      case Variant::Ideal:
        job.ideal = true;
        return job;
      case Variant::MaxLt:
        job.strategy = Strategy::Spill;
        job.options.heuristic = SpillHeuristic::MaxLT;
        return job;
      case Variant::MaxLtTraf:
        job.strategy = Strategy::Spill;
        job.options.heuristic = SpillHeuristic::MaxLTOverTraf;
        return job;
      case Variant::MaxLtTrafMulti:
        job.strategy = Strategy::Spill;
        job.options.heuristic = SpillHeuristic::MaxLTOverTraf;
        job.options.multiSelect = true;
        return job;
      case Variant::MaxLtTrafMultiLastIi:
        job.strategy = Strategy::Spill;
        job.options.heuristic = SpillHeuristic::MaxLTOverTraf;
        job.options.multiSelect = true;
        job.options.reuseLastIi = true;
        return job;
      case Variant::IncreaseIi:
        job.strategy = Strategy::IncreaseII;
        return job;
      case Variant::BestOfAll:
        job.strategy = Strategy::BestOfAll;
        job.options.heuristic = SpillHeuristic::MaxLTOverTraf;
        job.options.multiSelect = true;
        job.options.reuseLastIi = true;
        return job;
    }
    SWP_PANIC("unknown variant ", int(v));
}

PipelineResult
runVariant(const Ddg &g, const Machine &m, int registers, Variant v)
{
    const BatchJob job = variantJob(0, v, registers);
    return job.ideal
               ? pipelineIdeal(g, m, job.options.scheduler)
               : pipelineLoop(g, m, job.strategy, job.options);
}

std::vector<BatchJob>
protoJobs(std::size_t n, const BatchJob &proto)
{
    std::vector<BatchJob> jobs(n, proto);
    for (std::size_t i = 0; i < n; ++i)
        jobs[i].loop = int(i);
    return jobs;
}

SuiteRunner &
suiteRunner()
{
    static SuiteRunner runner(benchOptions().threads, benchOptions().memo);
    return runner;
}

const ShardSpec &
benchShard()
{
    return benchOptions().shard;
}

bool
ownsJob(std::size_t i)
{
    return benchShard().owns(i);
}

RunOptions
benchRunOptions()
{
    RunOptions opts = benchUnshardedOptions();
    opts.shard = benchOptions().shard;
    return opts;
}

RunOptions
benchUnshardedOptions()
{
    RunOptions opts;
    opts.verify = benchOptions().verify;
    opts.certify = benchOptions().certify;
    return opts;
}

std::string
shardSuffix()
{
    return benchShard().active()
               ? " [shard " + formatShardSpec(benchShard()) + "]"
               : "";
}

std::vector<JobSummary>
benchEvaluate(const std::vector<SuiteLoop> &suite, const Machine &m,
              const std::vector<BatchJob> &jobs, const RunOptions &opts)
{
    std::vector<JobSummary> out(jobs.size());
    OrchState &state = orchState();

    if (state.replay) {
        // Orchestrated parent: every job was evaluated by the shard
        // fleet; look its summary up by content key. Jobs are pure
        // functions of the key, so this reproduces evaluation exactly.
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            if (!opts.shard.owns(i))
                continue;
            const Ddg &g = suite[std::size_t(jobs[i].loop)].graph;
            const std::string key = jobKey(g, m, jobs[i]);
            const auto it = state.byKey.find(key);
            if (it == state.byKey.end()) {
                SWP_FATAL("orchestrate: no recorded result for job key ",
                          key, " (loop ", jobs[i].loop, " '", g.name(),
                          "' on ", m.name(), "); the shard fleet and "
                          "this process do not run the same grids");
            }
            const BenchJobRecord &rec = it->second;
            JobSummary &s = out[i];
            s.evaluated = true;
            s.success = rec.success;
            s.usedFallback = rec.usedFallback;
            s.ii = rec.ii;
            s.regs = rec.regs;
            s.spills = rec.spills;
            s.rounds = rec.rounds;
            s.attempts = rec.attempts;
            s.memOps = rec.memOps;
        }
        return out;
    }

    const std::vector<PipelineResult> results =
        suiteRunner().run(suite, m, jobs, opts);
    const bool record = !benchOptions().orchRecordPath.empty();
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!opts.shard.owns(i))
            continue;
        const PipelineResult &r = results[i];
        JobSummary &s = out[i];
        s.evaluated = true;
        s.success = r.success;
        s.usedFallback = r.usedFallback;
        s.ii = r.ii();
        s.regs = r.alloc.regsRequired;
        s.spills = r.spilledLifetimes;
        s.rounds = r.rounds;
        s.attempts = r.attempts;
        s.memOps = r.memOpsPerIteration();
        if (record) {
            recordBenchJob(
                jobKey(suite[std::size_t(jobs[i].loop)].graph, m,
                       jobs[i]),
                s);
        }
    }
    return out;
}

void
writeOrchRecord()
{
    const BenchOptions &opts = benchOptions();
    if (opts.orchRecordPath.empty())
        return;
    ShardDoc doc;
    doc.tool = "bench:" + opts.benchName;
    doc.config = benchConfigFingerprint();
    doc.configSummary = benchConfigSummary();
    if (suiteConsumed()) {
        doc.suiteSeed = std::to_string(opts.suite.seed);
        doc.suiteLoops = opts.suite.numLoops;
    }
    doc.shard = opts.shard;
    doc.benchJobs = orchState().recorded;
    // Fault hook for orchestrator tests, as in swpipe_cli's shard mode.
    if (maybeInjectFault(opts.orchRecordPath))
        return;
    writeShardFile(opts.orchRecordPath, doc);
    std::cerr << "orch record: " << doc.benchJobs.size()
              << " job records written to " << opts.orchRecordPath
              << "\n";
}

SuiteTotals
runSuite(const std::vector<SuiteLoop> &suite, const Machine &m,
         int registers, Variant v)
{
    std::vector<BatchJob> jobs;
    jobs.reserve(suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i)
        jobs.push_back(variantJob(int(i), v, registers));

    SuiteTotals totals;
    Stopwatch sw;
    const std::vector<JobSummary> results =
        benchEvaluate(suite, m, jobs, benchRunOptions());
    totals.seconds = sw.seconds();

    // Serial accumulation in loop order keeps the floating-point sums
    // (and thus the emitted JSON) bit-identical at any thread count.
    // Sharded runs accumulate only the jobs this shard evaluated.
    for (std::size_t i = 0; i < results.size(); ++i) {
        const JobSummary &r = results[i];
        if (!r.evaluated)
            continue;
        totals.cycles += double(r.ii) * double(suite[i].iterations);
        totals.memRefs += double(r.memOps) * double(suite[i].iterations);
        totals.attempts += r.attempts;
        totals.unfit += !r.success;
        totals.fallbacks += r.usedFallback;
        totals.spills += r.spills;
    }
    return totals;
}

std::vector<Machine>
evaluationMachines()
{
    if (!benchOptions().machineSpec.empty())
        return {machineFromSpec(benchOptions().machineSpec)};
    return {Machine::p1l4(), Machine::p2l4(), Machine::p2l6()};
}

Machine
benchMachine(const Machine &fallback)
{
    if (!benchOptions().machineSpec.empty())
        return machineFromSpec(benchOptions().machineSpec);
    return fallback;
}

const std::vector<SuiteLoop> &
evaluationSuite()
{
    suiteConsumed() = true;
    static const std::vector<SuiteLoop> suite =
        generateSuite(benchOptions().suite);
    return suite;
}

BenchOptions &
benchOptions()
{
    static BenchOptions options;
    return options;
}

void
initBenchArgs(int *argc, char ***argv, const std::string &benchName,
              bool nativeJson)
{
    BenchOptions &opts = benchOptions();
    opts.nativeJson = nativeJson;
    opts.benchName = benchName;

    // Rebuilt argv storage must outlive main's use of it.
    static std::vector<std::string> forwarded;
    static std::vector<char *> keep;

    bool shardSeen = false;
    std::vector<std::string> workerArgs;

    keep.push_back((*argv)[0]);
    const auto next = [&](int &i, const char *flag) -> const char * {
        if (++i >= *argc)
            flagError(std::string("missing argument for ") + flag);
        return (*argv)[i];
    };
    for (int i = 1; i < *argc; ++i) {
        const int argStart = i;
        // Orchestration flags and --json stay with this process;
        // everything else is forwarded verbatim to shard workers.
        bool forward = true;
        char *arg = (*argv)[i];
        if (!std::strcmp(arg, "--json")) {
            forward = false;
            opts.jsonPath = next(i, arg);
        } else if (!std::strcmp(arg, "--seed")) {
            const char *text = next(i, arg);
            if (!parseUint64(text, opts.suite.seed))
                flagError(std::string("bad --seed value ") + text);
        } else if (!std::strcmp(arg, "--loops")) {
            const char *text = next(i, arg);
            if (!parseIntInRange(text, 1, 1000000, opts.suite.numLoops))
                flagError(std::string("bad --loops count ") + text);
        } else if (!std::strcmp(arg, "--threads")) {
            const char *text = next(i, arg);
            if (!parseThreadsArg(text, opts.threads))
                flagError(std::string("bad --threads count ") + text);
        } else if (!std::strcmp(arg, "--memo")) {
            const char *text = next(i, arg);
            int memo = 1;
            if (!parseIntInRange(text, 0, 1, memo))
                flagError(std::string("bad --memo value ") + text);
            opts.memo = memo != 0;
        } else if (!std::strcmp(arg, "--shard")) {
            const char *text = next(i, arg);
            if (!parseShardSpec(text, opts.shard))
                flagError(std::string("bad --shard spec ") + text +
                          " (want i/N with 0 <= i < N)");
            shardSeen = true;
        } else if (!std::strcmp(arg, "--verify")) {
            opts.verify = true;
        } else if (!std::strcmp(arg, "--certify")) {
            opts.certify = true;
        } else if (!std::strcmp(arg, "--machine")) {
            opts.machineSpec = next(i, arg);
        } else if (!std::strcmp(arg, "--orchestrate")) {
            forward = false;
            const char *text = next(i, arg);
            if (!parseIntInRange(text, 1, 4096, opts.orchestrate))
                flagError(std::string("bad --orchestrate count ") + text);
        } else if (!std::strcmp(arg, "--orch-dir")) {
            forward = false;
            opts.orchDir = next(i, arg);
            if (opts.orchDir.empty())
                flagError("--orch-dir needs a directory");
        } else if (!std::strcmp(arg, "--orch-timeout")) {
            forward = false;
            const char *text = next(i, arg);
            if (!parseIntInRange(text, 0, 1000000, opts.orchTimeout))
                flagError(std::string("bad --orch-timeout seconds ") +
                          text);
        } else if (!std::strcmp(arg, "--orch-retries")) {
            forward = false;
            const char *text = next(i, arg);
            if (!parseIntInRange(text, 0, 1000, opts.orchRetries))
                flagError(std::string("bad --orch-retries count ") + text);
        } else if (!std::strcmp(arg, "--orch-backoff")) {
            forward = false;
            const char *text = next(i, arg);
            if (!parseIntInRange(text, 0, 600000, opts.orchBackoffMs))
                flagError(std::string("bad --orch-backoff ms ") + text);
        } else if (!std::strcmp(arg, "--no-resume")) {
            forward = false;
            opts.orchResume = false;
        } else if (!std::strcmp(arg, "--inject-fail")) {
            forward = false;
            const char *text = next(i, arg);
            if (!parseInjectSpec(text, opts.inject))
                flagError(std::string("bad --inject-fail spec ") + text +
                          " (want shard:attempt:crash|hang|corrupt"
                          "[,...])");
        } else if (!std::strcmp(arg, "--orch-record")) {
            forward = false;
            opts.orchRecordPath = next(i, arg);
        } else {
            keep.push_back(arg);
        }
        if (forward) {
            for (int k = argStart; k <= i && k < *argc; ++k)
                workerArgs.push_back((*argv)[k]);
        }
    }
    if (opts.orchestrate > 0) {
        if (shardSeen) {
            flagError("--orchestrate cannot be combined with --shard "
                      "(the orchestrator launches the shard workers "
                      "itself)");
        }
        if (!opts.orchRecordPath.empty())
            flagError("--orchestrate cannot be combined with "
                      "--orch-record");
        // Run the worker fleet now, before any benchmark executes, and
        // load the merged per-job records: every benchEvaluate() below
        // replays from them instead of evaluating.
        OrchestrateOptions orch;
        orch.shards = opts.orchestrate;
        orch.dir = opts.orchDir.empty() ? "swp_orch_" + benchName
                                        : opts.orchDir;
        orch.shardOutFlag = "--orch-record";
        orch.maxAttempts = opts.orchRetries + 1;
        orch.timeoutSeconds = opts.orchTimeout;
        orch.backoffSeconds = opts.orchBackoffMs / 1000.0;
        orch.resume = opts.orchResume;
        orch.inject = opts.inject;
        orch.expectTool = "bench:" + benchName;
        orch.expectConfig = benchConfigFingerprint();
        try {
            const OrchestrateResult fleet = orchestrateShards(
                selfExecutablePath((*argv)[0]), workerArgs, orch);
            OrchState &state = orchState();
            for (BenchJobRecord &rec : mergeBenchRecords(fleet.docs)) {
                const std::string key = rec.key;
                state.byKey.emplace(key, std::move(rec));
            }
            state.replay = true;
            std::cerr << "orchestrate: replaying " << state.byKey.size()
                      << " recorded jobs from " << orch.dir << "\n";
        } catch (const FatalError &err) {
            std::cerr << err.what() << "\n";
            std::exit(2);
        }
    }
    // Fail before the (potentially long) run, not after it; append mode
    // probes writability without clobbering a previous results file, and
    // a probe-created empty file is removed so an interrupted run leaves
    // no unparsable zero-byte output behind.
    if (!opts.jsonPath.empty()) {
        const bool existed =
            static_cast<bool>(std::ifstream(opts.jsonPath));
        if (!std::ofstream(opts.jsonPath, std::ios::app))
            flagError("cannot write " + opts.jsonPath);
        if (!existed)
            std::remove(opts.jsonPath.c_str());
    }
    if (nativeJson && !opts.jsonPath.empty()) {
        forwarded.push_back("--benchmark_out=" + opts.jsonPath);
        forwarded.push_back("--benchmark_out_format=json");
        for (std::string &flag : forwarded)
            keep.push_back(flag.data());
    }
    keep.push_back(nullptr);
    *argc = int(keep.size()) - 1;
    *argv = keep.data();
}

void
recordTable(const std::string &name, const Table &table)
{
    // Replace by name so --benchmark_repetitions reruns overwrite
    // instead of duplicating.
    for (RecordedTable &prev : recordedTables()) {
        if (prev.name == name) {
            prev.table = table;
            return;
        }
    }
    recordedTables().push_back({name, table});
}

void
recordMetric(const std::string &name, double value)
{
    for (RecordedMetric &prev : recordedMetrics()) {
        if (prev.name == name) {
            prev.value = value;
            return;
        }
    }
    recordedMetrics().push_back({name, value});
}

void
writeBenchJson(const std::string &benchName)
{
    const BenchOptions &opts = benchOptions();
    if (opts.jsonPath.empty() || opts.nativeJson)
        return;
    if (recordedTables().empty() && recordedMetrics().empty()) {
        // Nothing ran (e.g. --benchmark_list_tests or a non-matching
        // filter): keep any previous results file intact.
        std::cerr << "no results recorded; not writing " << opts.jsonPath
                  << "\n";
        return;
    }

    std::ofstream out(opts.jsonPath);
    if (!out)
        flagError("cannot write " + opts.jsonPath);
    out.precision(std::numeric_limits<double>::max_digits10);

    out << "{\n";
    out << "  \"bench\": " << jsonQuote(benchName) << ",\n";
    if (suiteConsumed()) {
        out << "  \"suite\": {\"seed\": \"" << opts.suite.seed
            << "\", \"loops\": " << opts.suite.numLoops << "},\n";
    }
    // The shard stanza appears only under --shard, so default runs
    // stay byte-comparable across thread counts and memo on/off (the
    // CI determinism diffs rely on that).
    if (opts.shard.active()) {
        out << "  \"shard\": {\"index\": " << opts.shard.index
            << ", \"count\": " << opts.shard.count << "},\n";
    }

    out << "  \"metrics\": {";
    const auto &metrics = recordedMetrics();
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << jsonQuote(metrics[i].name) << ": "
            << metrics[i].value;
    }
    out << "},\n";

    out << "  \"tables\": [";
    const auto &tables = recordedTables();
    for (std::size_t t = 0; t < tables.size(); ++t) {
        const Table &table = tables[t].table;
        out << (t ? ",\n" : "\n") << "    {\"name\": "
            << jsonQuote(tables[t].name) << ",\n     \"header\": [";
        const auto &header = table.header();
        for (std::size_t c = 0; c < header.size(); ++c)
            out << (c ? ", " : "") << jsonQuote(header[c]);
        out << "],\n     \"rows\": [";
        const auto &rows = table.rows();
        for (std::size_t r = 0; r < rows.size(); ++r) {
            out << (r ? ",\n              " : "") << "[";
            for (std::size_t c = 0; c < rows[r].size(); ++c)
                out << (c ? ", " : "") << jsonCell(rows[r][c]);
            out << "]";
        }
        out << "]}";
    }
    out << "\n  ]\n}\n";

    std::cout << "results written to " << opts.jsonPath << "\n";
}

} // namespace swp::benchutil
