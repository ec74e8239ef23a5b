#include "pipeliner/spill_pipeline.hh"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "sched/acyclic.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "spill/insert.hh"
#include "support/diag.hh"

namespace swp
{

namespace
{

/** Rewrite `work` with one round's spill code. */
void
applySpills(Ddg &work, const Machine &m,
            const std::vector<SpillCandidate> &picks, bool fuseSpillOps)
{
    for (const SpillCandidate &pick : picks)
        insertSpill(work, m, pick);
    if (!fuseSpillOps) {
        // Ablation: drop the complex-operation constraint; spill code is
        // scheduled like any other operation.
        for (EdgeId e = 0; e < work.numEdges(); ++e) {
            if (work.edge(e).alive)
                work.edge(e).nonSpillable = false;
        }
    }
}

/**
 * What an over-budget round leaves behind: enough to rebuild its graph
 * (by replaying the picks of the rounds before it on the input graph)
 * and its exact allocation, without a graph copy or an allocation the
 * run usually never needs.
 */
struct OverBudgetRound
{
    Schedule sched;
    int mii = 0;
    int spilled = 0;                    ///< Lifetimes spilled before it.
    std::vector<SpillCandidate> picks;  ///< Spilled after it.
};

/**
 * Keep the best over-budget round (the first with the lowest register
 * requirement) as the result. Runs only when the iteration ends over
 * budget and the acyclic fallback does not fit either.
 */
void
keepBestRound(PipelineResult &result, const Ddg &g, const Machine &m,
              const PipelinerOptions &opts,
              std::vector<OverBudgetRound> &rounds)
{
    std::size_t best = 0;
    AllocationOutcome bestAlloc;
    Ddg replay = g;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        AllocationOutcome alloc =
            allocateLoop(replay, rounds[i].sched, opts.registers, opts.fit);
        if (i == 0 || alloc.regsRequired < bestAlloc.regsRequired) {
            best = i;
            bestAlloc = std::move(alloc);
        }
        if (i + 1 < rounds.size())
            applySpills(replay, m, rounds[i].picks, opts.fuseSpillOps);
    }

    if (rounds[best].spilled == 0) {
        result.bindInputGraph(g);
    } else {
        Ddg graph = g;
        for (std::size_t i = 0; i < best; ++i)
            applySpills(graph, m, rounds[i].picks, opts.fuseSpillOps);
        result.adoptGraph(std::move(graph));
    }
    result.sched = std::move(rounds[best].sched);
    result.alloc = std::move(bestAlloc);
    result.mii = rounds[best].mii;
    result.spilledLifetimes = rounds[best].spilled;
}

} // namespace

PipelineResult
spillStrategy(const Ddg &g, const Machine &m, const PipelinerOptions &opts,
              const SpillRoundObserver &observer, const EvalContext *ctx)
{
    PipelineResult result;
    result.strategy = "spill";

    SchedulerStorage schedStorage, imsStorage;
    ModuloScheduler &scheduler =
        resolveScheduler(ctx, opts.scheduler, schedStorage);

    Ddg work = g;
    int prevIi = 0;

    // Over-budget rounds, kept so that exhausting the rounds or the
    // candidates does not discard valid scheduling work.
    std::vector<OverBudgetRound> overBudget;

    for (int round = 1; round <= opts.maxSpillRounds; ++round) {
        const int curMii =
            round == 1 ? resolveMii(ctx, g, m) : mii(work, m);
        const int startIi =
            opts.reuseLastIi ? std::max(curMii, prevIi) : curMii;

        IiSearchResult search = searchIi(scheduler, work, m, startIi);
        result.attempts += search.attempts;
        result.rounds = round;

        if (!search.sched && opts.scheduler != SchedulerKind::Ims) {
            // Safety net: HRMS's non-backtracking placement can fail on
            // pathological group topologies at every II; IMS's eviction
            // mechanism handles those, at some register-quality cost.
            ModuloScheduler &ims = resolveImsFallback(ctx, imsStorage);
            search = searchIi(ims, work, m, startIi);
            result.attempts += search.attempts;
        }
        if (!search.sched) {
            // No scheduler could place the transformed loop at any II;
            // keep the best earlier round (or fall back) below.
            break;
        }

        Schedule sched = std::move(*search.sched);
        prevIi = sched.ii();

        // Only a fitting allocation is kept, so the register scan stops
        // at the budget, except when the observer reports every
        // round's exact count. The round analyzes its lifetimes at
        // most once: the allocation memo leaves them in `lifetimes`
        // when it had to analyze, and spill selection reuses them.
        std::optional<LifetimeInfo> lifetimes;
        std::optional<AllocationOutcome> alloc;
        if (observer) {
            lifetimes = analyzeLifetimes(work, sched);
            alloc = allocateLoop(*lifetimes, opts.registers, opts.fit);
            SpillRoundInfo info;
            info.round = round;
            info.ii = sched.ii();
            info.mii = curMii;
            info.regsRequired = alloc->regsRequired;
            info.memOps = work.numMemOps();
            info.spilledSoFar = result.spilledLifetimes;
            observer(info);
            if (!alloc->fits)
                alloc.reset();
        } else {
            alloc = resolveWithinBudget(ctx, work, sched, opts.registers,
                                        opts.fit, &lifetimes);
        }

        if (alloc) {
            result.success = true;
            if (result.spilledLifetimes == 0)
                result.bindInputGraph(g);  // `work` is still the input.
            else
                result.adoptGraph(std::move(work));
            result.sched = std::move(sched);
            result.alloc = std::move(*alloc);
            result.mii = curMii;
            return result;
        }

        if (!lifetimes)
            lifetimes = analyzeLifetimes(work, sched);
        overBudget.push_back(
            {std::move(sched), curMii, result.spilledLifetimes, {}});

        const auto candidates =
            spillCandidates(work, *lifetimes, opts.spillUses);
        if (candidates.empty()) {
            // Nothing left to spill: every lifetime is already a spill
            // artifact. Keep the best schedule seen (below).
            break;
        }

        std::vector<SpillCandidate> &picks = overBudget.back().picks;
        if (opts.multiSelect) {
            picks = selectMultiple(candidates, opts.heuristic, *lifetimes,
                                   opts.registers);
        } else if (auto one = selectOne(candidates, opts.heuristic)) {
            picks.push_back(*one);
        }
        SWP_ASSERT(!picks.empty(), "spill selection returned nothing");
        applySpills(work, m, picks, opts.fuseSpillOps);
        result.spilledLifetimes += int(picks.size());
    }

    // The iteration ended over budget. Local scheduling of the original
    // loop (the Cydra 5 compiler's last resort) is used only when it
    // actually fits the budget or when no modulo schedule exists at
    // all; otherwise the best over-budget modulo schedule is kept.
    Schedule acyclicSched = scheduleAcyclic(g, m);
    AllocationOutcome acyclicAlloc =
        resolveAllocation(ctx, g, acyclicSched, opts.registers, opts.fit);
    if (!overBudget.empty() && !acyclicAlloc.fits) {
        keepBestRound(result, g, m, opts, overBudget);
        return result;
    }
    result.usedFallback = true;
    result.bindInputGraph(g);
    result.sched = std::move(acyclicSched);
    result.alloc = std::move(acyclicAlloc);
    result.mii = resolveMii(ctx, g, m);
    result.success = result.alloc.fits;
    return result;
}

} // namespace swp
