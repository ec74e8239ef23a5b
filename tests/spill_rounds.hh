/**
 * @file
 * Test-only replay of the iterative spill driver that hands out every
 * graph it schedules, for differential tests of the per-graph analyses
 * (complex groups, the HRMS plan) on the graphs a spill run actually
 * produces rather than only on generated loops.
 */

#ifndef SWP_TESTS_SPILL_ROUNDS_HH
#define SWP_TESTS_SPILL_ROUNDS_HH

#include <functional>

#include "ir/ddg.hh"
#include "machine/machine.hh"

namespace swp
{

/**
 * Call `visit` on the graph of every spill round of every loop of the
 * pinned default-seed suite (the first `numLoops` loops), in the
 * configuration of the paper's pre-Section-4.5 baseline: 16 registers,
 * one MaxLT/Traf lifetime per round, each round's II search restarting
 * at MII, HRMS with the IMS safety net. Round 1 visits the input loop.
 * With `fuseSpillOps` false the spill code is left unfused (the
 * ablation's --no-fusion). Returns the number of graphs visited.
 */
int forEachSpillRoundGraph(const Machine &m, bool fuseSpillOps,
                           const std::function<void(const Ddg &)> &visit,
                           int numLoops = 1258);

} // namespace swp

#endif // SWP_TESTS_SPILL_ROUNDS_HH
