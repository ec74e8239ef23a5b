/**
 * @file
 * Shared evaluation context for the strategy drivers.
 *
 * One (loop, strategy, options) evaluation is cheap to set up but the
 * experiment grids of the paper run hundreds of thousands of them, so
 * the batch driver (src/driver) amortizes the per-call costs: scheduler
 * objects are constructed once per worker thread, the MII/RecMII of
 * each input loop is memoized per machine, whole (graph, machine, II,
 * scheduler) probe outcomes are memoized in a ScheduleMemo, and the
 * register scans of the schedules the strategies allocate are memoized
 * in an AllocationMemo. The strategies accept an optional EvalContext
 * carrying those shared pieces; without one they behave exactly as
 * before (build their own scheduler, compute MII, schedule every probe,
 * analyze and allocate every schedule).
 */

#ifndef SWP_PIPELINER_CONTEXT_HH
#define SWP_PIPELINER_CONTEXT_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "regalloc/alloc_memo.hh"
#include "sched/mii.hh"
#include "sched/sched_memo.hh"
#include "sched/scheduler.hh"

namespace swp
{

/** Reusable state for one strategy evaluation (all fields optional). */
struct EvalContext
{
    /**
     * Core scheduler to use; must implement the algorithm selected by
     * PipelinerOptions::scheduler (the caller keeps them in sync).
     */
    ModuloScheduler *scheduler = nullptr;

    /** IMS instance for the drivers' backtracking safety net. */
    ModuloScheduler *imsFallback = nullptr;

    /** Memoized mii(g, m) of the *input* graph; -1 = not known. */
    int knownMii = -1;

    /**
     * When set, every scheduleAt probe of the strategy drivers is
     * routed through this memo (see resolveScheduler), so repeated
     * (graph, machine, II, scheduler) probes — within one evaluation,
     * e.g. best-of-all's binary search over IIs the spill rounds
     * already tried, and across the whole grid — are scheduled once.
     * Results are identical with or without it; only the work changes.
     */
    ScheduleMemo *memo = nullptr;

    /**
     * machineFingerprint of the machine every call of this evaluation
     * passes (the batch's machine, hashed once per batch); 0 = hash it
     * per probe. Only the schedule memo's key reads it.
     */
    std::uint64_t machineFp = 0;

    /**
     * When set, the strategies' allocations (ideal, the increase-II
     * probes, best-of-all's II search, observer-less spill rounds and
     * the acyclic fallbacks) go through this memo, so a schedule that
     * several strategies or budgets reach is analyzed and scanned once.
     * Results are identical with or without it.
     */
    AllocationMemo *allocMemo = nullptr;
};

/**
 * Per-evaluation scheduler storage for the resolve* helpers: the
 * lazily-built core scheduler (when the context does not provide one)
 * and the memoizing adapter wrapped around whichever core is used.
 */
struct SchedulerStorage
{
    std::unique_ptr<ModuloScheduler> base;
    std::unique_ptr<MemoizedScheduler> memoized;
};

/**
 * Shared resolution: the context-provided scheduler (or a lazily-built
 * `kind` instance kept in `storage`), wrapped in the context's
 * ScheduleMemo when one is present.
 */
inline ModuloScheduler &
resolveWithMemo(const EvalContext *ctx, ModuloScheduler *fromCtx,
                SchedulerKind kind, SchedulerStorage &storage)
{
    ModuloScheduler *core = fromCtx;
    if (!core) {
        if (!storage.base)
            storage.base = makeScheduler(kind);
        core = storage.base.get();
    }
    if (ctx && ctx->memo) {
        storage.memoized = std::make_unique<MemoizedScheduler>(
            *ctx->memo, *core, kind, ctx->machineFp);
        return *storage.memoized;
    }
    return *core;
}

/** The scheduler every probe of this evaluation should go through. */
inline ModuloScheduler &
resolveScheduler(const EvalContext *ctx, SchedulerKind kind,
                 SchedulerStorage &storage)
{
    return resolveWithMemo(ctx, ctx ? ctx->scheduler : nullptr, kind,
                           storage);
}

/** The context's IMS fallback (memo-wrapped like resolveScheduler). */
inline ModuloScheduler &
resolveImsFallback(const EvalContext *ctx, SchedulerStorage &storage)
{
    return resolveWithMemo(ctx, ctx ? ctx->imsFallback : nullptr,
                           SchedulerKind::Ims, storage);
}

/** allocateLoop(g, sched, budget, fit), through the context's
    allocation memo when there is one. */
inline AllocationOutcome
resolveAllocation(const EvalContext *ctx, const Ddg &g,
                  const Schedule &sched, int budget, FitStrategy fit)
{
    if (ctx && ctx->allocMemo)
        return ctx->allocMemo->allocateLoop(g, sched, budget, fit);
    return allocateLoop(g, sched, budget, fit);
}

/**
 * allocateWithinBudget of sched's lifetimes, through the context's
 * allocation memo when there is one. `lifetimes`, when given, is the
 * caller's analysis slot (see AllocationMemo): without a memo it is
 * filled and used here; with one, it is filled only when the memo had
 * to analyze the schedule.
 */
inline std::optional<AllocationOutcome>
resolveWithinBudget(const EvalContext *ctx, const Ddg &g,
                    const Schedule &sched, int budget, FitStrategy fit,
                    std::optional<LifetimeInfo> *lifetimes = nullptr)
{
    if (ctx && ctx->allocMemo) {
        return ctx->allocMemo->allocateWithinBudget(g, sched, budget, fit,
                                                    lifetimes);
    }
    if (!lifetimes)
        return allocateWithinBudget(analyzeLifetimes(g, sched), budget, fit);
    if (!*lifetimes)
        *lifetimes = analyzeLifetimes(g, sched);
    return allocateWithinBudget(**lifetimes, budget, fit);
}

/** The memoized MII of the input graph, or compute it. */
inline int
resolveMii(const EvalContext *ctx, const Ddg &g, const Machine &m)
{
    if (ctx && ctx->knownMii >= 0)
        return ctx->knownMii;
    return mii(g, m);
}

} // namespace swp

#endif // SWP_PIPELINER_CONTEXT_HH
