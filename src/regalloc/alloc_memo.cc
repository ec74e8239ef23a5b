#include "regalloc/alloc_memo.hh"

#include <limits>

#include "support/diag.hh"

namespace swp
{

namespace
{

/** Hash of the issue times, the only part of a schedule lifetimes
    read besides its II. */
std::uint64_t
issueTimesFingerprint(const Schedule &sched)
{
    Fingerprint fp;
    fp.mix(std::uint64_t(sched.numNodes()));
    for (NodeId n = 0; n < sched.numNodes(); ++n)
        fp.mix(std::uint64_t(std::uint32_t(sched.time(n))));
    return fp.value();
}

bool
sameIssueTimes(const Schedule &a, const Schedule &b)
{
    if (a.ii() != b.ii() || a.numNodes() != b.numNodes())
        return false;
    for (NodeId n = 0; n < a.numNodes(); ++n) {
        if (a.time(n) != b.time(n))
            return false;
    }
    return true;
}

} // namespace

AllocationOutcome
AllocationMemo::allocateLoop(const Ddg &g, const Schedule &sched,
                             int budget, FitStrategy fit,
                             std::optional<LifetimeInfo> *lifetimes)
{
    return allocate(g, sched, budget, fit,
                    std::numeric_limits<int>::max(), lifetimes);
}

std::optional<AllocationOutcome>
AllocationMemo::allocateWithinBudget(const Ddg &g, const Schedule &sched,
                                     int budget, FitStrategy fit,
                                     std::optional<LifetimeInfo> *lifetimes)
{
    // As in allocateWithinBudget: a rotating count above budget -
    // invariants cannot fit.
    AllocationOutcome outcome =
        allocate(g, sched, budget, fit,
                 budget - g.numLiveInvariants(), lifetimes);
    if (!outcome.fits)
        return std::nullopt;
    return outcome;
}

AllocationOutcome
AllocationMemo::allocate(const Ddg &g, const Schedule &sched, int budget,
                         FitStrategy fit, int limit,
                         std::optional<LifetimeInfo> *lifetimes)
{
    std::optional<LifetimeInfo> local;
    std::optional<LifetimeInfo> &info = lifetimes ? *lifetimes : local;
    const auto analyzed = [&]() -> const LifetimeInfo & {
        if (!info)
            info = analyzeLifetimes(g, sched);
        return *info;
    };

    bool created = false;
    const int liveInvariants = g.numLiveInvariants();
    const Key key{graphFingerprint(g), liveInvariants, sched.ii(),
                  issueTimesFingerprint(sched), int(fit)};
    const std::shared_ptr<Entry> entry = cache_.getOrCompute(
        key,
        [&]() {
            created = true;
            auto e = std::make_shared<Entry>(analyzed());
            if (verifyKeys_) {
                e->graph = g;
                e->sched = sched;
            }
            return e;
        },
        [&](const std::shared_ptr<Entry> &hit) {
            if (!verifyKeys_)
                return;
            SWP_ASSERT(hit->graph &&
                           graphsFingerprintEquivalent(g, *hit->graph) &&
                           hit->graph->numLiveInvariants() ==
                               liveInvariants,
                       "allocation memo fingerprint collision: graph '",
                       g.name(),
                       "' hit an entry built from a different graph");
            SWP_ASSERT(hit->sched && sameIssueTimes(sched, *hit->sched),
                       "allocation memo fingerprint collision: a "
                       "schedule of '", g.name(), "' at II ", sched.ii(),
                       " hit an entry built from different issue times");
        });

    std::lock_guard<std::mutex> lock(entry->m);
    const int bound = entry->scan.bound(budget, limit);
    if (!entry->scan.covers(bound)) {
        if (!created)
            resumes_.fetch_add(1, std::memory_order_relaxed);
        entry->scan.extend(analyzed(), fit, bound);
    }
    return entry->scan.outcome(budget, bound);
}

} // namespace swp
