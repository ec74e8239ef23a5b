/**
 * @file
 * Cross-process sharding tests: shard-spec parsing and partition
 * properties, shard-file round-trips, the exhaustive small-grid
 * identity property (merged output == serial baseline for every
 * shards x threads combination), and the merge's refusal of
 * overlapping, missing, and mismatched shard sets.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "driver/shard_merge.hh"
#include "driver/suite_runner.hh"
#include "support/diag.hh"
#include "support/strutil.hh"
#include "workload/suitegen.hh"

namespace swp
{
namespace
{

TEST(ShardSpec, ParseAcceptsWellFormedSpecs)
{
    ShardSpec s;
    ASSERT_TRUE(parseShardSpec("0/1", s));
    EXPECT_EQ(s.index, 0);
    EXPECT_EQ(s.count, 1);
    EXPECT_FALSE(s.active());

    ASSERT_TRUE(parseShardSpec("2/3", s));
    EXPECT_EQ(s.index, 2);
    EXPECT_EQ(s.count, 3);
    EXPECT_TRUE(s.active());
    EXPECT_EQ(formatShardSpec(s), "2/3");
}

TEST(ShardSpec, ParseRejectsMalformedSpecs)
{
    ShardSpec s;
    s.index = 7;
    s.count = 9;
    for (const char *bad :
         {"", "1", "1/", "/2", "3/3", "4/3", "-1/2", "1/0", "1/-2",
          "a/b", "1/2x", "x1/2", "1//2", "1/2/3", " 1/2"}) {
        EXPECT_FALSE(parseShardSpec(bad, s)) << bad;
    }
    // Failed parses never touch the output.
    EXPECT_EQ(s.index, 7);
    EXPECT_EQ(s.count, 9);
}

TEST(ShardSpec, OwnershipPartitionsEveryIndex)
{
    for (int count = 1; count <= 5; ++count) {
        for (std::size_t job = 0; job < 40; ++job) {
            int owners = 0;
            for (int index = 0; index < count; ++index) {
                const ShardSpec spec{index, count};
                owners += spec.owns(job);
            }
            EXPECT_EQ(owners, 1)
                << "job " << job << " with " << count << " shards";
        }
    }
}

TEST(ShardFile, RoundTripPreservesEveryByte)
{
    ShardDoc doc;
    doc.tool = "swpipe_cli";
    doc.config = "00ffab1234567890";
    doc.configSummary = "machine=p2l4 \"quoted\" \\backslash";
    doc.suiteSeed = "406273672898";
    doc.suiteLoops = 12;
    doc.totalJobs = 12;
    doc.shard = {1, 3};
    doc.prologue = "a,b,c\n";
    doc.records.push_back({1, 0, "plain line\n"});
    doc.records.push_back(
        {4, 1, std::string("control \x01 byte, tab\t, \"quotes\", "
                           "backslash \\ and unicode \xcf\x80\n")});
    doc.records.push_back({7, 0, ""});

    const std::string path = testing::TempDir() + "/swp_shard_rt.json";
    writeShardFile(path, doc);
    const ShardDoc back = readShardFile(path);

    EXPECT_EQ(back.tool, doc.tool);
    EXPECT_EQ(back.config, doc.config);
    EXPECT_EQ(back.configSummary, doc.configSummary);
    EXPECT_EQ(back.suiteSeed, doc.suiteSeed);
    EXPECT_EQ(back.suiteLoops, doc.suiteLoops);
    EXPECT_EQ(back.totalJobs, doc.totalJobs);
    EXPECT_EQ(back.shard.index, doc.shard.index);
    EXPECT_EQ(back.shard.count, doc.shard.count);
    EXPECT_EQ(back.prologue, doc.prologue);
    ASSERT_EQ(back.records.size(), doc.records.size());
    for (std::size_t i = 0; i < doc.records.size(); ++i) {
        EXPECT_EQ(back.records[i].job, doc.records[i].job) << i;
        EXPECT_EQ(back.records[i].rc, doc.records[i].rc) << i;
        EXPECT_EQ(back.records[i].text, doc.records[i].text) << i;
    }
}

TEST(ShardFile, WriteIsAtomicAndLeavesNoTempFiles)
{
    ShardDoc doc;
    doc.tool = "swpipe_cli";
    doc.config = "cfg";
    doc.totalJobs = 1;
    doc.shard = {0, 1};
    doc.records.push_back({0, 0, "r\n"});

    const std::string dir =
        testing::TempDir() + "/swp_shard_atomic_dir";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/out.json";

    // Writing over a pre-existing file must replace it whole.
    {
        std::ofstream stale(path);
        stale << "stale partial content";
    }
    writeShardFile(path, doc);
    EXPECT_EQ(readShardFile(path).records.size(), 1u);

    // The temp file used for the atomic rename must be gone.
    int entries = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1) << "temp file left behind in " << dir;

    // An unwritable destination fails up front (no partial file).
    EXPECT_THROW(writeShardFile(dir + "/no_such_dir/out.json", doc),
                 FatalError);
}

TEST(ShardFile, DiagnosticsNameTheOffendingFile)
{
    const std::string path =
        testing::TempDir() + "/swp_shard_named_bad.json";
    {
        std::ofstream out(path);
        out << "{\"format\": \"swp-shard-v1\", \"tool\": \"trunc";
    }
    try {
        readShardFile(path);
        FAIL() << "accepted truncated JSON";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << "message was: " << e.what();
    }
}

TEST(ShardFile, ReadRejectsGarbage)
{
    const std::string dir = testing::TempDir();
    const auto writeAndRead = [&](const std::string &content) {
        const std::string path = dir + "/swp_shard_bad.json";
        {
            std::ofstream out(path);
            out << content;
        }
        return readShardFile(path);
    };
    EXPECT_THROW(writeAndRead("not json"), FatalError);
    EXPECT_THROW(writeAndRead("{}"), FatalError);
    EXPECT_THROW(writeAndRead("{\"format\": \"swp-shard-v99\"}"),
                 FatalError);
    EXPECT_THROW(writeAndRead("{\"format\": \"swp-shard-v1\"} extra"),
                 FatalError);
    EXPECT_THROW(readShardFile(dir + "/swp_no_such_file.json"),
                 FatalError);
}

/** A small pinned-seed suite and a two-variant grid over it. */
std::vector<SuiteLoop>
shardTestSuite(int loops)
{
    SuiteParams params;  // Pinned default seed.
    params.numLoops = loops;
    return generateSuite(params);
}

std::vector<BatchJob>
shardTestGrid(std::size_t loops)
{
    std::vector<BatchJob> jobs;
    for (std::size_t i = 0; i < loops; ++i) {
        BatchJob best;
        best.loop = int(i);
        best.strategy = Strategy::BestOfAll;
        best.options.registers = 16;
        best.options.multiSelect = true;
        best.options.reuseLastIi = true;
        jobs.push_back(best);

        BatchJob ideal;
        ideal.loop = int(i);
        ideal.ideal = true;
        jobs.push_back(ideal);
    }
    return jobs;
}

/** The per-job report text a hypothetical consumer would emit. */
std::string
renderRecord(std::size_t job, const PipelineResult &r)
{
    return strprintf("job %zu: fits=%d ii=%d regs=%d spills=%d "
                     "attempts=%d\n",
                     job, int(r.success), r.ii(), r.alloc.regsRequired,
                     r.spilledLifetimes, r.attempts);
}

/** Build the shard document one sharded consumer process would write. */
ShardDoc
shardDocFor(const std::vector<BatchJob> &jobs,
            const std::vector<PipelineResult> &results, ShardSpec spec)
{
    ShardDoc doc;
    doc.tool = "test_shard";
    doc.config = "test-config-fp";
    doc.configSummary = "test grid";
    doc.suiteSeed = "406273672898";
    doc.suiteLoops = int(jobs.size() / 2);
    doc.totalJobs = jobs.size();
    doc.shard = spec;
    doc.prologue = "prologue line\n";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (spec.owns(i))
            doc.records.push_back({i, 0, renderRecord(i, results[i])});
    }
    return doc;
}

TEST(ShardMerge, MergedOutputMatchesSerialBaselineExhaustively)
{
    // The acceptance property, exercised on a small grid for *every*
    // (shard count, thread count) combination: the merged shard set is
    // byte-identical to the serial baseline.
    const std::vector<SuiteLoop> suite = shardTestSuite(6);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = shardTestGrid(suite.size());

    SuiteRunner serial(1);
    const auto baseline = serial.run(suite, m, jobs);
    std::string expected = "prologue line\n";
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expected += renderRecord(i, baseline[i]);

    for (int shards = 1; shards <= 4; ++shards) {
        for (int threads = 1; threads <= 4; ++threads) {
            std::vector<ShardDoc> docs;
            for (int s = 0; s < shards; ++s) {
                SuiteRunner runner(threads);
                RunOptions opts;
                opts.shard = {s, shards};
                const auto results = runner.run(suite, m, jobs, opts);
                // Round-trip through the serializer so the merge sees
                // exactly what a cluster run's files carry.
                const std::string path = testing::TempDir() +
                                         "/swp_shard_" +
                                         std::to_string(s) + ".json";
                writeShardFile(path,
                               shardDocFor(jobs, results, opts.shard));
                docs.push_back(readShardFile(path));
            }
            const MergeOutput merged = mergeShards(docs);
            EXPECT_EQ(merged.text, expected)
                << shards << " shards, " << threads << " threads";
            EXPECT_EQ(merged.rc, 0);
        }
    }
}

TEST(ShardMerge, ShardedRunsLeaveUnownedSlotsUntouched)
{
    const std::vector<SuiteLoop> suite = shardTestSuite(5);
    const Machine m = Machine::p1l4();
    const std::vector<BatchJob> jobs = shardTestGrid(suite.size());

    SuiteRunner runner(2);
    RunOptions opts;
    opts.shard = {1, 3};
    const auto results = runner.run(suite, m, jobs, opts);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (opts.shard.owns(i))
            continue;
        // Default-constructed: never evaluated, no graph bound.
        EXPECT_FALSE(results[i].success) << i;
        EXPECT_EQ(results[i].attempts, 0) << i;
        EXPECT_FALSE(results[i].ownsGraph()) << i;
    }
}

/** A ready-made consistent 3-shard set for the rejection tests. */
std::vector<ShardDoc>
consistentDocs()
{
    const std::vector<SuiteLoop> suite = shardTestSuite(4);
    const Machine m = Machine::p2l4();
    const std::vector<BatchJob> jobs = shardTestGrid(suite.size());
    SuiteRunner runner(1);
    const auto results = runner.run(suite, m, jobs);
    std::vector<ShardDoc> docs;
    for (int s = 0; s < 3; ++s)
        docs.push_back(shardDocFor(jobs, results, ShardSpec{s, 3}));
    return docs;
}

/** Expect mergeShards to refuse, with `needle` in the message. */
void
expectMergeError(const std::vector<ShardDoc> &docs,
                 const std::string &needle)
{
    try {
        mergeShards(docs);
        FAIL() << "merge accepted an inconsistent shard set ("
               << needle << ")";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "message was: " << e.what();
    }
}

TEST(ShardMerge, RefusesOverlappingShards)
{
    std::vector<ShardDoc> docs = consistentDocs();
    docs[2] = docs[0];  // Shard 0 provided twice, shard 2 missing.
    expectMergeError(docs, "overlapping");
}

TEST(ShardMerge, RefusesMissingShards)
{
    std::vector<ShardDoc> docs = consistentDocs();
    docs.pop_back();
    expectMergeError(docs, "missing shard 2/3");
}

TEST(ShardMerge, RefusesWrongSeedShards)
{
    std::vector<ShardDoc> docs = consistentDocs();
    docs[1].suiteSeed = "99";
    expectMergeError(docs, "seed");
}

TEST(ShardMerge, RefusesMismatchedConfigs)
{
    std::vector<ShardDoc> docs = consistentDocs();
    docs[1].config = "other-config-fp";
    expectMergeError(docs, "different configuration");
}

TEST(ShardMerge, RefusesMismatchedGrids)
{
    std::vector<ShardDoc> docs = consistentDocs();
    docs[1].totalJobs += 1;
    expectMergeError(docs, "-job grid");

    docs = consistentDocs();
    docs[1].shard.count = 4;
    expectMergeError(docs, "shards");
}

TEST(ShardMerge, RefusesRecordsOutsideTheirShard)
{
    std::vector<ShardDoc> docs = consistentDocs();
    // Move a record of shard 1 into shard 0's file.
    docs[0].records.push_back(docs[1].records.front());
    expectMergeError(docs, "belongs to shard");
}

TEST(ShardMerge, RefusesDuplicateRecords)
{
    std::vector<ShardDoc> docs = consistentDocs();
    docs[1].records.push_back(docs[1].records.front());
    expectMergeError(docs, "appears twice");
}

TEST(ShardMerge, RefusesShardsMissingJobs)
{
    std::vector<ShardDoc> docs = consistentDocs();
    docs[1].records.pop_back();
    expectMergeError(docs, "is missing job");
}

TEST(ShardMerge, RefusesEmptyAndMixedToolSets)
{
    expectMergeError({}, "no shard files");

    std::vector<ShardDoc> docs = consistentDocs();
    docs[1].tool = "other_tool";
    expectMergeError(docs, "produced by");
}

TEST(ShardMerge, DuplicateDiagnosticNamesTheSourceFiles)
{
    // When docs came from files, the overlap diagnostic must say which
    // files collided so a cluster user can fix the right inputs.
    std::vector<ShardDoc> docs = consistentDocs();
    const std::string pathA = testing::TempDir() + "/swp_dup_a.json";
    const std::string pathB = testing::TempDir() + "/swp_dup_b.json";
    writeShardFile(pathA, docs[0]);
    writeShardFile(pathB, docs[0]);
    docs[2] = readShardFile(pathB);
    docs[0] = readShardFile(pathA);

    try {
        mergeShards(docs);
        FAIL() << "merge accepted a duplicated shard";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(pathA), std::string::npos) << msg;
        EXPECT_NE(msg.find(pathB), std::string::npos) << msg;
        EXPECT_NE(msg.find("twice"), std::string::npos) << msg;
    }
}

TEST(ShardFile, BenchJobRecordsRoundTrip)
{
    ShardDoc doc;
    doc.tool = "bench:fake";
    doc.config = "cfg";
    doc.totalJobs = 0;
    doc.shard = {1, 2};
    doc.benchJobs.push_back(
        {"00ab", true, false, 7, 12, 0, 1, 3, 4});
    doc.benchJobs.push_back(
        {"00cd", false, true, 9, 30, 5, 48, 99, 6});

    const std::string path =
        testing::TempDir() + "/swp_shard_bench_rt.json";
    writeShardFile(path, doc);
    const ShardDoc back = readShardFile(path);
    ASSERT_EQ(back.benchJobs.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(back.benchJobs[i].key, doc.benchJobs[i].key) << i;
        EXPECT_EQ(back.benchJobs[i].success, doc.benchJobs[i].success);
        EXPECT_EQ(back.benchJobs[i].usedFallback,
                  doc.benchJobs[i].usedFallback);
        EXPECT_EQ(back.benchJobs[i].ii, doc.benchJobs[i].ii) << i;
        EXPECT_EQ(back.benchJobs[i].regs, doc.benchJobs[i].regs) << i;
        EXPECT_EQ(back.benchJobs[i].spills, doc.benchJobs[i].spills);
        EXPECT_EQ(back.benchJobs[i].rounds, doc.benchJobs[i].rounds);
        EXPECT_EQ(back.benchJobs[i].attempts, doc.benchJobs[i].attempts);
        EXPECT_EQ(back.benchJobs[i].memOps, doc.benchJobs[i].memOps);
    }
    EXPECT_EQ(back.source, path);
}

/** A 2-shard bench-record set with one key duplicated across shards. */
std::vector<ShardDoc>
benchRecordDocs()
{
    std::vector<ShardDoc> docs(2);
    for (int s = 0; s < 2; ++s) {
        docs[s].tool = "bench:fake";
        docs[s].config = "cfg";
        docs[s].totalJobs = 4;
        docs[s].shard = {s, 2};
        for (std::size_t j = std::size_t(s); j < 4; j += 2)
            docs[s].records.push_back({j, 0, ""});
    }
    docs[0].benchJobs.push_back({"key-a", true, false, 3, 8, 0, 1, 2, 1});
    docs[0].benchJobs.push_back({"key-b", true, false, 5, 9, 1, 2, 4, 2});
    // Pure jobs: the shared key carries identical fields in both files.
    docs[1].benchJobs.push_back({"key-b", true, false, 5, 9, 1, 2, 4, 2});
    docs[1].benchJobs.push_back({"key-c", false, true, 6, 7, 2, 3, 5, 3});
    return docs;
}

TEST(BenchRecordMerge, UnionsDeduplicatingIdenticalRecords)
{
    const auto merged = mergeBenchRecords(benchRecordDocs());
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].key, "key-a");
    EXPECT_EQ(merged[1].key, "key-b");
    EXPECT_EQ(merged[2].key, "key-c");
    EXPECT_EQ(merged[1].ii, 5);
    EXPECT_TRUE(merged[2].usedFallback);
}

TEST(BenchRecordMerge, RefusesConflictingRecordsForOneKey)
{
    std::vector<ShardDoc> docs = benchRecordDocs();
    docs[1].benchJobs[0].ii = 99;  // Same key, different result.
    try {
        mergeBenchRecords(docs);
        FAIL() << "accepted conflicting bench records";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("conflicting"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("key-b"), std::string::npos)
            << e.what();
    }
}

TEST(BenchRecordMerge, ValidatesTheShardSetLikeMerge)
{
    std::vector<ShardDoc> docs = benchRecordDocs();
    docs.pop_back();
    EXPECT_THROW(mergeBenchRecords(docs), FatalError);

    docs = benchRecordDocs();
    docs[1].config = "other";
    EXPECT_THROW(mergeBenchRecords(docs), FatalError);
}

TEST(ShardMerge, MergedRcIsTheOrOfRecordRcs)
{
    std::vector<ShardDoc> docs = consistentDocs();
    EXPECT_EQ(mergeShards(docs).rc, 0);
    docs[1].records.front().rc = 1;
    EXPECT_EQ(mergeShards(docs).rc, 1);
}

TEST(ShardMerge, SingleShardSetReproducesTheRun)
{
    const std::vector<SuiteLoop> suite = shardTestSuite(3);
    const Machine m = Machine::p2l6();
    const std::vector<BatchJob> jobs = shardTestGrid(suite.size());
    SuiteRunner runner(1);
    const auto results = runner.run(suite, m, jobs);

    std::string expected = "prologue line\n";
    for (std::size_t i = 0; i < jobs.size(); ++i)
        expected += renderRecord(i, results[i]);

    const std::vector<ShardDoc> docs = {
        shardDocFor(jobs, results, ShardSpec{0, 1})};
    EXPECT_EQ(mergeShards(docs).text, expected);
}

} // namespace
} // namespace swp
