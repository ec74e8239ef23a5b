#include "pipeliner/spill_pipeline.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "sched/acyclic.hh"
#include "sched/ii_search.hh"
#include "sched/mii.hh"
#include "spill/insert.hh"
#include "support/diag.hh"

namespace swp
{

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

    // Best over-budget schedule seen so far (lowest register
    // requirement). Kept so that exhausting the rounds or the
    // candidates does not discard valid scheduling work. A null graph
    // snapshot means the schedule refers to the untransformed input
    // (round 1, before any spill), avoiding a pointless Ddg copy.
    struct BestSoFar
    {
        std::shared_ptr<const Ddg> graph;
        Schedule sched;
        AllocationOutcome alloc;
        int mii = 0;
        int spilled = 0;
    };
    std::optional<BestSoFar> best;

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
        AllocationOutcome alloc =
            allocateLoop(work, sched, opts.registers, opts.fit);

        if (observer) {
            SpillRoundInfo info;
            info.round = round;
            info.ii = sched.ii();
            info.mii = curMii;
            info.regsRequired = alloc.regsRequired;
            info.memOps = work.numMemOps();
            info.spilledSoFar = result.spilledLifetimes;
            observer(info);
        }

        if (alloc.fits) {
            result.success = true;
            if (result.spilledLifetimes == 0)
                result.bindInputGraph(g);  // `work` is still the input.
            else
                result.adoptGraph(std::move(work));
            result.sched = std::move(sched);
            result.alloc = std::move(alloc);
            result.mii = curMii;
            return result;
        }

        if (!best || alloc.regsRequired < best->alloc.regsRequired) {
            best.emplace();
            if (result.spilledLifetimes > 0)
                best->graph = std::make_shared<const Ddg>(work);
            best->sched = sched;
            best->alloc = alloc;
            best->mii = curMii;
            best->spilled = result.spilledLifetimes;
        }

        const LifetimeInfo lifetimes = analyzeLifetimes(work, sched);
        const auto candidates =
            spillCandidates(work, lifetimes, opts.spillUses);
        if (candidates.empty()) {
            // Nothing left to spill: every lifetime is already a spill
            // artifact. Keep the best schedule seen (below).
            break;
        }

        std::vector<SpillCandidate> picks;
        if (opts.multiSelect) {
            picks = selectMultiple(candidates, opts.heuristic, lifetimes,
                                   opts.registers);
        } else if (auto one = selectOne(candidates, opts.heuristic)) {
            picks.push_back(*one);
        }
        SWP_ASSERT(!picks.empty(), "spill selection returned nothing");
        for (const SpillCandidate &pick : picks) {
            insertSpill(work, m, pick);
            ++result.spilledLifetimes;
        }
        if (!opts.fuseSpillOps) {
            // Ablation: drop the complex-operation constraint; spill
            // code is scheduled like any other operation.
            for (EdgeId e = 0; e < work.numEdges(); ++e) {
                if (work.edge(e).alive)
                    work.edge(e).nonSpillable = false;
            }
        }
    }

    // The iteration ended over budget. Local scheduling of the original
    // loop (the Cydra 5 compiler's last resort) is used only when it
    // actually fits the budget or when no modulo schedule exists at
    // all; otherwise the best over-budget modulo schedule is kept.
    Schedule acyclicSched = scheduleAcyclic(g, m);
    AllocationOutcome acyclicAlloc =
        allocateLoop(g, acyclicSched, opts.registers, opts.fit);
    if (best && !acyclicAlloc.fits) {
        if (best->graph)
            result.adoptGraph(std::move(best->graph));
        else
            result.bindInputGraph(g);
        result.sched = std::move(best->sched);
        result.alloc = std::move(best->alloc);
        result.mii = best->mii;
        result.spilledLifetimes = best->spilled;
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
