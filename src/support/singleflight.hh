/**
 * @file
 * A thread-safe memo cache with single-flight computation.
 *
 * The batch driver's memos (MII/RecMII bounds, schedule probes) are hit
 * by every worker of the pool. A plain check-compute-insert memo lets
 * two workers race to compute the same key — both pay the (expensive)
 * computation and one insert silently wins. This cache arbitrates at
 * insertion time instead: exactly one caller computes each key while
 * the others block on that entry, so duplicate computation is
 * structurally impossible. The stats() counters expose that guarantee
 * to the tests (computes == entries at rest, absent failed computes).
 *
 * The cache is unbounded: every entry lives as long as the cache, which
 * is right for grid evaluations, whose working set is the grid. One
 * mutex guards the map; a lookup costs tens of nanoseconds against a
 * job of hundreds of microseconds, so the lock never shows up in a
 * profile.
 */

#ifndef SWP_SUPPORT_SINGLEFLIGHT_HH
#define SWP_SUPPORT_SINGLEFLIGHT_HH

#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace swp
{

/**
 * Seconds this thread has spent blocked waiting for another thread's
 * single-flight computation to land. The per-worker perf counters read
 * this before/after each job to split wall time into "working" vs
 * "waiting on the memo" without any extra plumbing through the memos.
 */
inline double &
singleFlightWaitSeconds()
{
    thread_local double seconds = 0.0;
    return seconds;
}

/** Observability counters of a SingleFlightCache. */
struct SingleFlightStats
{
    /** Total lookups. */
    long requests = 0;
    /** Computations run to completion (failed ones included). */
    long computes = 0;
    /** Distinct keys currently cached. Absent failed computations
        (which count in computes but leave no entry), computes -
        entries counts duplicate computations at rest — provably
        zero. */
    long entries = 0;
};

/**
 * Map from Key to Value where each key's value is computed exactly
 * once, by the first requester; concurrent requesters for the same key
 * wait for that computation instead of repeating it.
 */
template <typename Key, typename Value>
class SingleFlightCache
{
  public:
    using Stats = SingleFlightStats;

    /**
     * The cached value for key; when absent, compute() fills it. The
     * first requester of a key runs compute() (without holding the map
     * lock); later requesters get the cached copy, after onHit(value)
     * — the hook where callers verify the hit (e.g. a debug key
     * collision check). A compute() exception propagates to every
     * caller waiting on the entry and the key is dropped, so a later
     * request retries.
     */
    template <typename Compute, typename OnHit>
    Value
    getOrCompute(const Key &key, Compute &&compute, OnHit &&onHit)
    {
        std::shared_ptr<Entry> entry;
        bool owner = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++requests_;
            std::shared_ptr<Entry> &slot = map_[key];
            if (!slot) {
                slot = std::make_shared<Entry>();
                owner = true;
            }
            entry = slot;
        }

        if (owner) {
            Value value{};
            std::exception_ptr error;
            try {
                value = compute();
            } catch (...) {
                error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(entry->m);
                entry->value = std::move(value);
                entry->error = error;
                entry->done = true;
            }
            entry->cv.notify_all();
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++computes_;
                if (error)
                    map_.erase(key);
            }
            if (error)
                std::rethrow_exception(error);
            return entry->value;
        }

        std::unique_lock<std::mutex> lock(entry->m);
        if (!entry->done) {
            const auto start = std::chrono::steady_clock::now();
            entry->cv.wait(lock, [&] { return entry->done; });
            singleFlightWaitSeconds() +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
        }
        if (entry->error)
            std::rethrow_exception(entry->error);
        onHit(static_cast<const Value &>(entry->value));
        return entry->value;
    }

    /** One consistent snapshot of the counters. Mid-run it may see an
        in-flight entry before its compute lands (computes < entries),
        never the reverse absent failed computes. */
    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return {requests_, computes_, long(map_.size())};
    }

  private:
    struct Entry
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        Value value{};
        std::exception_ptr error;
    };

    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<Entry>> map_;
    long requests_ = 0;
    long computes_ = 0;
};

} // namespace swp

#endif // SWP_SUPPORT_SINGLEFLIGHT_HH
