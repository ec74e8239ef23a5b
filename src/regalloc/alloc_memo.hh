/**
 * @file
 * Memoization of register allocations across a batch.
 *
 * The paper's Table 1 / Figure 9 grid runs every loop under the ideal,
 * increase-II, spill and best-of-all strategies at two register-file
 * sizes, and the strategies mostly reach the same schedule of the same
 * loop. Each of them used to analyze that schedule's lifetimes and
 * scan rotating register counts again. AllocationMemo keeps one
 * RegisterScan per (graph, schedule, fit strategy) and answers every
 * budget from it: a request whose answer the scan has already decided
 * (the winning R is known, or the request's bound is at or below the
 * highest R scanned) costs a lookup; any other request resumes the
 * scan at the next R. The first R that packs wins and each R is packed
 * independently, so the memo returns exactly what allocateLoop and
 * allocateWithinBudget return, offsets included, in any request order.
 *
 * Lifetimes depend only on the graph's value uses, its live invariant
 * count and the issue times, so the key is (graphFingerprint, live
 * invariants, II, a hash of the issue times, fit strategy) whatever
 * produced the schedule: a memoized probe, the IMS fallback or an
 * acyclic fallback. Release builds trust the hashes; with key
 * verification on (debug builds), every hit is compared structurally
 * against the graph and times that created the entry, so a collision
 * panics instead of answering for another schedule.
 */

#ifndef SWP_REGALLOC_ALLOC_MEMO_HH
#define SWP_REGALLOC_ALLOC_MEMO_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>

#include "ir/ddg.hh"
#include "liferange/lifetimes.hh"
#include "regalloc/rotalloc.hh"
#include "sched/fingerprint.hh"
#include "sched/schedule.hh"
#include "support/singleflight.hh"

namespace swp
{

/**
 * Thread-safe, single-flight cache of register scans. Every entry is
 * kept for the life of the memo, like the batch driver's other memos.
 *
 * Both entry points take an optional lifetime slot: when the memo has
 * to analyze the schedule (a new key, or a scan to resume) it leaves
 * the analysis there, and when the slot is already filled it uses it
 * instead of analyzing again. A spill round hands the same slot to
 * spill selection, so a round analyzes its schedule at most once.
 */
class AllocationMemo
{
  public:
    using Stats = SingleFlightStats;

    explicit AllocationMemo(bool verifyKeys = kVerifyMemoKeys)
        : verifyKeys_(verifyKeys)
    {
    }

    /** allocateLoop(g, sched, budget, fit), memoized. */
    AllocationOutcome
    allocateLoop(const Ddg &g, const Schedule &sched, int budget,
                 FitStrategy fit,
                 std::optional<LifetimeInfo> *lifetimes = nullptr);

    /** allocateWithinBudget(analyzeLifetimes(g, sched), budget, fit),
        memoized. */
    std::optional<AllocationOutcome>
    allocateWithinBudget(const Ddg &g, const Schedule &sched, int budget,
                         FitStrategy fit,
                         std::optional<LifetimeInfo> *lifetimes = nullptr);

    /**
     * requests/computes/entries: a compute is one new key (one lifetime
     * analysis and the first scan); computes == entries at rest.
     */
    Stats stats() const { return cache_.stats(); }

    /** Requests that resumed an existing entry's scan. */
    long
    resumes() const
    {
        return resumes_.load(std::memory_order_relaxed);
    }

  private:
    /** The entry points' outcome for a request of rotating `limit`. */
    AllocationOutcome allocate(const Ddg &g, const Schedule &sched,
                               int budget, FitStrategy fit, int limit,
                               std::optional<LifetimeInfo> *lifetimes);

    /** (graph fp, live invariants, II, issue-time hash, fit). */
    using Key = std::tuple<std::uint64_t, int, int, std::uint64_t, int>;

    struct Entry
    {
        explicit Entry(const LifetimeInfo &info) : scan(info) {}

        std::mutex m;  ///< Guards `scan`.
        RegisterScan scan;
        /** Key-verification payload (the graph copy is O(1),
            copy-on-write). */
        std::optional<Ddg> graph;
        std::optional<Schedule> sched;
    };

    bool verifyKeys_;
    SingleFlightCache<Key, std::shared_ptr<Entry>> cache_;
    std::atomic<long> resumes_{0};
};

} // namespace swp

#endif // SWP_REGALLOC_ALLOC_MEMO_HH
