/**
 * @file
 * Cross-process sharding of experiment grids: shard specs, per-shard
 * result files, and the validating merge.
 *
 * The paper's grids (every loop x strategy x register-file size) are
 * embarrassingly parallel across processes as well as threads: a shard
 * spec `i/N` deterministically assigns job index j to shard j mod N, a
 * sharded process evaluates only its own jobs and writes one JSON shard
 * file holding the *rendered output* of each job plus enough metadata
 * to prove the shards belong together, and the merge recombines N such
 * files into output byte-identical to an unsharded run — each record is
 * the exact text the unsharded run would have produced for that job, so
 * concatenating them in job order reproduces the run, independent of
 * each shard's thread count or memo configuration.
 *
 * The merge refuses anything it cannot prove coherent: shards produced
 * by different tools, configurations, suite seeds, or grid sizes;
 * overlapping shards (one index claimed twice); missing shards; and
 * records that do not belong to the shard that carries them.
 */

#ifndef SWP_DRIVER_SHARD_MERGE_HH
#define SWP_DRIVER_SHARD_MERGE_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace swp
{

/** One-of-N assignment of job indices to this process. */
struct ShardSpec
{
    /** 0-based shard index, in [0, count). */
    int index = 0;

    /** Total number of shards; 1 means "everything" (no sharding). */
    int count = 1;

    /** True when the spec actually partitions (count > 1). */
    bool active() const { return count > 1; }

    /** Whether job index `job` belongs to this shard. */
    bool
    owns(std::size_t job) const
    {
        return count <= 1 || job % std::size_t(count) == std::size_t(index);
    }
};

/**
 * Parse "i/N" (0-based, 0 <= i < N). Returns false without touching
 * `out` on malformed input.
 */
bool parseShardSpec(const std::string &text, ShardSpec &out);

/** "i/N". */
std::string formatShardSpec(const ShardSpec &spec);

/** One evaluated job: its index and its rendered report text. */
struct ShardRecord
{
    /** Index into the full job grid. */
    std::size_t job = 0;

    /** The job's contribution to the process exit code. */
    int rc = 0;

    /** Exactly the text an unsharded run writes for this job. */
    std::string text;
};

/**
 * One bench-harness job result carried in a shard file. Pipeline jobs
 * are pure functions of (machine, graph, options), so a record is
 * keyed by a fingerprint of exactly those inputs and holds the scalar
 * outcome every converted bench table is computed from; an
 * orchestrating bench parent replays its grids job-by-job from the
 * merged record store instead of evaluating them.
 */
struct BenchJobRecord
{
    /** Fingerprint of (machine, graph, job options), hex. */
    std::string key;

    bool success = false;
    bool usedFallback = false;
    int ii = 0;       ///< Achieved initiation interval.
    int regs = 0;     ///< Registers required by the allocation.
    int spills = 0;   ///< Spilled lifetimes.
    int rounds = 0;   ///< Spill rounds taken.
    int attempts = 0; ///< Scheduling attempts.
    int memOps = 0;   ///< Memory operations per iteration (incl. spills).
};

/** In-memory form of one shard file. */
struct ShardDoc
{
    /** Producing tool ("swpipe_cli"); merges never mix tools. */
    std::string tool;

    /**
     * Fingerprint of everything the rendered output depends on: the
     * tool's options, the machine, every input loop's structural
     * fingerprint and trip count, and the build. Two shards merge only
     * if these match exactly.
     */
    std::string config;

    /** Human-readable form of `config`, for mismatch diagnostics. */
    std::string configSummary;

    /** Suite generator seed (decimal), empty when no generated suite. */
    std::string suiteSeed;

    /** Generated-suite loop count, 0 when no generated suite. */
    int suiteLoops = 0;

    /** Size of the full job grid being sharded. */
    std::size_t totalJobs = 0;

    ShardSpec shard;

    /** Text emitted once before any record (e.g. the CSV header). */
    std::string prologue;

    /** This shard's jobs, in ascending job order. */
    std::vector<ShardRecord> records;

    /** Bench-harness per-job records (optional; bench fleets only). */
    std::vector<BenchJobRecord> benchJobs;

    /** Where this document was read from (set by readShardFile, not
        serialized); names the offending file in merge diagnostics. */
    std::string source;
};

/** Serialize a shard document as JSON. */
void writeShardFile(std::ostream &out, const ShardDoc &doc);

/**
 * Write to a file crash-safely: the document is serialized to a
 * temporary sibling and atomically renamed into place, so a worker
 * killed mid-write never leaves a truncated file at the final path —
 * readers see either the old complete file or the new complete file.
 * Throws FatalError when the file cannot be written.
 */
void writeShardFile(const std::string &path, const ShardDoc &doc);

/** Parse one shard file; throws FatalError on I/O or format errors. */
ShardDoc readShardFile(const std::string &path);

/** Result of merging a complete shard set. */
struct MergeOutput
{
    /** prologue + every record's text in job order: byte-identical to
        the unsharded run's output. */
    std::string text;

    /** OR of every record's rc: the unsharded run's exit code. */
    int rc = 0;
};

/**
 * Validate and merge a complete set of shard documents (any order).
 * Throws FatalError naming the first inconsistency: mixed tools,
 * configs, seeds, grid sizes or shard counts; duplicate (overlapping)
 * or missing shards; records outside their shard's partition; and
 * duplicate or missing job indices.
 */
MergeOutput mergeShards(const std::vector<ShardDoc> &docs);

/**
 * Validate and merge the bench-harness record stores of a complete
 * shard set (same coherence rules as mergeShards, minus text-record
 * coverage — bench grids are keyed by content, not job index). Records
 * duplicated across shards must be field-identical (jobs are pure
 * functions; a mismatch means the shards did not run the same build or
 * inputs and is refused). Returns the union, keyed for lookup.
 */
std::vector<BenchJobRecord>
mergeBenchRecords(const std::vector<ShardDoc> &docs);

} // namespace swp

#endif // SWP_DRIVER_SHARD_MERGE_HH
