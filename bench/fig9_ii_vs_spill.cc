/**
 * @file
 * Figure 9: increase-II versus spilling versus their combination, on
 * the subset of loops that (1) need a register reduction and (2)
 * converge under increase-II. Total execution cycles per configuration
 * for 64 and 32 registers.
 *
 * Expected shape: spilling wins on average; "best of all" (the Section
 * 5 combination) is never worse than spilling alone and recovers the
 * few loops where increase-II happens to be the better choice.
 */

#include <benchmark/benchmark.h>

#include <iostream>

#include "common.hh"
#include "support/table.hh"

namespace
{

using namespace swp;
using namespace swp::benchutil;

void
runFig9(benchmark::State &state)
{
    const auto &suite = evaluationSuite();

    for (auto _ : state) {
        Table table({"config", "regs", "subset", "increase-II(1e9)",
                     "spill(1e9)", "best-of-all(1e9)",
                     "spill-wins", "incII-wins"});
        for (const int registers : {64, 32}) {
            for (const Machine &m : evaluationMachines()) {
                // Stage 1: increase-II over the whole suite; the subset
                // is the loops that needed a reduction (rounds > 1
                // means the first II failed the budget) and converged.
                std::vector<BatchJob> incrJobs;
                for (std::size_t i = 0; i < suite.size(); ++i)
                    incrJobs.push_back(variantJob(
                        int(i), Variant::IncreaseIi, registers));
                const auto incr =
                    benchEvaluate(suite, m, incrJobs, benchRunOptions());

                // A sharded run draws its candidates from the loops it
                // owns; the later stages' grids are already
                // shard-filtered through them (no second shard filter).
                std::vector<int> candidates;
                for (std::size_t i = 0; i < suite.size(); ++i) {
                    if (!incr[i].evaluated)
                        continue;
                    const JobSummary &r = incr[i];
                    if (!r.usedFallback && r.success && r.rounds > 1)
                        candidates.push_back(int(i));
                }

                // Stage 2: spilling on the candidate subset.
                std::vector<BatchJob> spillJobs;
                for (const int i : candidates)
                    spillJobs.push_back(variantJob(
                        i, Variant::MaxLtTrafMultiLastIi, registers));
                const auto spills =
                    benchEvaluate(suite, m, spillJobs,
                                  benchUnshardedOptions());

                // Stage 3: best-of-all where spilling also converged.
                std::vector<int> members;
                std::vector<BatchJob> bestJobs;
                for (std::size_t k = 0; k < candidates.size(); ++k) {
                    if (!spills[k].success)
                        continue;
                    members.push_back(int(k));
                    bestJobs.push_back(variantJob(
                        candidates[k], Variant::BestOfAll, registers));
                }
                const auto bests =
                    benchEvaluate(suite, m, bestJobs,
                                  benchUnshardedOptions());

                double cyclesIi = 0, cyclesSpill = 0, cyclesBest = 0;
                int subset = 0, spillWins = 0, iiWins = 0;
                for (std::size_t j = 0; j < members.size(); ++j) {
                    const int k = members[j];
                    const int loopIdx = candidates[std::size_t(k)];
                    const JobSummary &ri = incr[std::size_t(loopIdx)];
                    const JobSummary &rs = spills[std::size_t(k)];
                    const JobSummary &rb = bests[j];
                    ++subset;
                    const double w =
                        double(suite[std::size_t(loopIdx)].iterations);
                    cyclesIi += double(ri.ii) * w;
                    cyclesSpill += double(rs.ii) * w;
                    cyclesBest += double(rb.ii) * w;
                    spillWins += rs.ii < ri.ii;
                    iiWins += ri.ii < rs.ii;
                }
                table.row()
                    .add(m.name())
                    .add(registers)
                    .add(subset)
                    .add(cyclesIi / 1e9, 4)
                    .add(cyclesSpill / 1e9, 4)
                    .add(cyclesBest / 1e9, 4)
                    .add(spillWins)
                    .add(iiWins);
            }
        }
        std::cout << "\nFigure 9: increase-II vs spill vs best-of-all "
                     "(converging subset only" << shardSuffix()
                  << ")\n";
        table.print(std::cout);
        recordTable("strategies", table);
    }
}

BENCHMARK(runFig9)->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

SWP_BENCH_MAIN("fig9_ii_vs_spill");
