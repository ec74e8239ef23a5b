#include "spill_rounds.hh"

#include "liferange/lifetimes.hh"
#include "regalloc/rotalloc.hh"
#include "sched/hrms.hh"
#include "sched/ii_search.hh"
#include "sched/ims.hh"
#include "sched/mii.hh"
#include "spill/insert.hh"
#include "spill/select.hh"
#include "workload/suitegen.hh"

namespace swp
{

int
forEachSpillRoundGraph(const Machine &m, bool fuseSpillOps,
                       const std::function<void(const Ddg &)> &visit,
                       int numLoops)
{
    constexpr int registers = 16;
    constexpr int maxRounds = 256;
    SuiteParams params;  // Pinned default seed.
    params.numLoops = numLoops;
    HrmsScheduler hrms;
    ImsScheduler ims;
    int visited = 0;
    for (const SuiteLoop &loop : generateSuite(params)) {
        Ddg work = loop.graph;
        for (int round = 1; round <= maxRounds; ++round) {
            visit(work);
            ++visited;
            const int start = mii(work, m);
            IiSearchResult search = searchIi(hrms, work, m, start);
            if (!search.sched)
                search = searchIi(ims, work, m, start);
            if (!search.sched)
                break;
            const LifetimeInfo info = analyzeLifetimes(work, *search.sched);
            if (allocateWithinBudget(info, registers, FitStrategy::EndFit))
                break;
            const auto pick = selectOne(spillCandidates(work, info),
                                        SpillHeuristic::MaxLTOverTraf);
            if (!pick)
                break;
            insertSpill(work, m, *pick);
            if (!fuseSpillOps) {
                for (EdgeId e = 0; e < work.numEdges(); ++e) {
                    if (work.edge(e).alive)
                        work.edge(e).nonSpillable = false;
                }
            }
        }
    }
    return visited;
}

} // namespace swp
