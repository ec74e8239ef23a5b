/**
 * @file
 * Register allocation for software-pipelined loops on a rotating
 * register file, after Rau, Lee, Tirumalai and Schlansker (PLDI 1992).
 *
 * With a rotating file of R registers, instance i of value v (allocated
 * offset o_v) occupies physical register (o_v + i) mod R during
 * [start_v + i*II, end_v + i*II). Two values conflict exactly when their
 * arcs [q_v, q_v + LT_v) overlap on a circle of circumference C = R*II,
 * where q_v = (start_v - o_v*II) mod C. Choosing o_v freely means q_v
 * ranges over all residues congruent to start_v modulo II, so
 * allocation is packing |V| arcs of lengths LT_v at II-aligned anchors.
 *
 * The paper reports that the "wands-only" strategy using end-fit with
 * adjacency ordering almost never needs more than MaxLive + 1 registers;
 * end-fit with start-time (adjacency) ordering is our default, with
 * first-fit and best-fit provided for comparison.
 *
 * Loop invariants are allocated in static registers, one each.
 */

#ifndef SWP_REGALLOC_ROTALLOC_HH
#define SWP_REGALLOC_ROTALLOC_HH

#include <optional>
#include <string>
#include <vector>

#include "ir/ddg.hh"
#include "liferange/lifetimes.hh"
#include "sched/schedule.hh"

namespace swp
{

/** Placement rule for each lifetime. */
enum class FitStrategy
{
    EndFit,    ///< Abut the end of an allocated arc (minimal left gap).
    FirstFit,  ///< Smallest feasible register offset.
    BestFit,   ///< Tightest enclosing free gap.
};

/** Processing order of the lifetimes. */
enum class AllocOrder
{
    Adjacency,         ///< Ascending start time (Rau's adjacency order).
    DescendingLength,  ///< Longest lifetimes first.
};

const char *fitStrategyName(FitStrategy s);

/** Result of allocating the loop variants of one schedule. */
struct RotAllocResult
{
    bool ok = false;
    int registers = 0;  ///< Rotating registers used (the R it fit into).
    /** Register offset o_v per producing node; -1 for non-values. */
    std::vector<int> offset;
};

/**
 * Try to pack all live loop-variant lifetimes into a rotating file of
 * `num_regs` registers.
 */
RotAllocResult allocateRotating(const LifetimeInfo &lifetimes,
                                int num_regs,
                                FitStrategy strategy = FitStrategy::EndFit,
                                AllocOrder order = AllocOrder::Adjacency);

/**
 * Smallest register count the strategy fits into, searching upward from
 * the MaxLive lower bound. Returns cap+1 if even `cap` registers fail.
 */
int minRotatingRegs(const LifetimeInfo &lifetimes,
                    FitStrategy strategy = FitStrategy::EndFit,
                    AllocOrder order = AllocOrder::Adjacency,
                    int cap = 1024);

/** Complete register allocation of a scheduled loop. */
struct AllocationOutcome
{
    bool fits = false;       ///< regsRequired <= budget.
    int regsRequired = 0;    ///< rotating + invariant registers.
    int rotating = 0;        ///< Rotating registers for loop variants.
    int invariants = 0;      ///< Static registers for loop invariants.
    int maxLive = 0;         ///< The MaxLive lower bound used.
    RotAllocResult rotAlloc;
};

/**
 * Allocate a scheduled loop against a register budget: rotating
 * registers for the loop variants (actual requirement, not MaxLive)
 * plus one static register per live invariant.
 *
 * This is the exact entry point: it always finds the smallest register
 * count, however far above the budget. Use it where that count is
 * reported (the Figure 4 register sweep, the Figure 7 per-round
 * observer, ideal schedules, acyclic fallbacks) or kept as the result
 * of an over-budget run. A caller that discards every outcome that does
 * not fit should call allocateWithinBudget instead.
 */
AllocationOutcome allocateLoop(const Ddg &g, const Schedule &sched,
                               int budget,
                               FitStrategy strategy = FitStrategy::EndFit);

/** allocateLoop on already-analyzed lifetimes. */
AllocationOutcome allocateLoop(const LifetimeInfo &info, int budget,
                               FitStrategy strategy = FitStrategy::EndFit);

/**
 * The budget-bounded entry point: allocateLoop's outcome when it fits
 * the budget (the same outcome, every offset included), nullopt
 * otherwise. The register scan stops at budget - invariants, so an
 * over-budget schedule costs at most the packs below the budget, and
 * none when MaxLive + invariants already exceeds it. Use it for the
 * probes of a search that keeps only fitting allocations (the
 * increase-II loop, spill rounds, best-of-all's II search).
 */
std::optional<AllocationOutcome>
allocateWithinBudget(const LifetimeInfo &info, int budget,
                     FitStrategy strategy);

/**
 * The register scan of one schedule's lifetimes as a resumable value,
 * the state behind allocateLoop and allocateWithinBudget. For each R
 * from max(1, MaxLive) up, the scan packs in adjacency order, then by
 * descending length, and the first R that packs wins. Each R is packed
 * independently of the others, so a scan that stopped at some R
 * without a winner can be extended later, up to a higher bound, and
 * ends exactly where one uninterrupted scan would have. The batch
 * driver's allocation memo keeps one per (graph, schedule, fit) and
 * answers every budget from it.
 *
 * A request is a (budget, limit) pair: `limit` is the highest rotating
 * count its caller can use (budget - invariants for the bounded entry
 * point, unlimited for the exact one); bound() clips it to the
 * budget's scan cap. Once covers(bound) holds, outcome(budget, bound)
 * equals the entry point's outcome, every offset included.
 */
class RegisterScan
{
  public:
    /** An unscanned state for these lifetimes (no pack yet). */
    explicit RegisterScan(const LifetimeInfo &info);

    /** The highest R a (budget, limit) request reads. */
    int bound(int budget, int limit) const;

    /** True if every R up to `bound` is decided without packing. */
    bool
    covers(int bound) const
    {
        return winner_ >= 0 || bound <= scanned_;
    }

    /**
     * Pack R = scanned + 1 .. bound until one fits. `info` must be the
     * lifetimes the scan was built from.
     */
    void extend(const LifetimeInfo &info, FitStrategy strategy, int bound);

    /** The entry points' outcome; requires covers(bound). */
    AllocationOutcome outcome(int budget, int bound) const &;
    AllocationOutcome outcome(int budget, int bound) &&;

  private:
    /** outcome() without the offsets (set when the request fits). */
    AllocationOutcome decided(int budget, int bound) const;

    int maxLive_ = 0;
    int invariants_ = 0;
    /** Highest R packed without success (max(1, MaxLive) - 1 before
        the first pack). */
    int scanned_ = 0;
    /** The winning R (0 when nothing is live), or -1 while unknown. */
    int winner_ = -1;
    /** The winner's offsets; sized to the lifetimes (all -1) when
        nothing is live, empty while the winner is unknown. */
    std::vector<int> offset_;
};

/**
 * Verify an allocation: no two lifetimes' arcs overlap (the conflict
 * lemma above). An offset table that does not cover every lifetime, or
 * live values with no registers (the unallocated default result), is
 * rejected too. Exposed for tests and the pipeline simulator.
 */
bool allocationConflictFree(const LifetimeInfo &lifetimes,
                            const RotAllocResult &alloc,
                            std::string *why = nullptr);

} // namespace swp

#endif // SWP_REGALLOC_ROTALLOC_HH
