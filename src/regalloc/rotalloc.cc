#include "regalloc/rotalloc.hh"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>

#include "support/bitmatrix.hh"
#include "support/diag.hh"
#include "support/strutil.hh"

namespace swp
{

namespace
{

/** floorMod for longs. */
long
fmod2(long a, long m)
{
    const long r = a % m;
    return r < 0 ? r + m : r;
}

/** True if circular arcs [q1,q1+l1) and [q2,q2+l2) intersect mod C. */
bool
arcsOverlap(long q1, long l1, long q2, long l2, long circ)
{
    if (l1 <= 0 || l2 <= 0)
        return false;
    return fmod2(q2 - q1, circ) < l1 || fmod2(q1 - q2, circ) < l2;
}

/**
 * Occupancy of the allocation circle, one bit per cell: cell c of the
 * C = R*II circle is set when an allocated arc covers it. Arcs never
 * overlap, so the set bit nearest to a free cell is the end (looking
 * backwards) or the start (looking forwards) of the nearest arc, and
 * the end-fit/best-fit gaps become clz/ctz scans instead of a walk
 * over every allocated arc.
 */
class Circle
{
  public:
    /** Clear to `cells` free cells; storage is reused. */
    void
    reset(long cells)
    {
        cells_ = std::max(cells, 0L);
        words_.assign(std::size_t((cells_ + 63) / 64), 0);
        empty_ = true;
    }

    bool empty() const { return empty_; }

    /** True if circular [q, q+len) is free; q < C, 0 < len <= C. */
    bool
    isFree(long q, long len) const
    {
        const long end = q + len;
        if (end <= cells_)
            return rangeFree(q, end);
        return rangeFree(q, cells_) && rangeFree(0, end - cells_);
    }

    /** Mark circular [q, q+len) occupied; same bounds as isFree. */
    void
    occupy(long q, long len)
    {
        const long end = q + len;
        if (end <= cells_) {
            setRange(q, end);
        } else {
            setRange(q, cells_);
            setRange(0, end - cells_);
        }
        empty_ = false;
    }

    /** Free cells between the nearest occupied cell before q and q;
        C when the circle is empty. */
    long
    leftGap(long q) const
    {
        if (empty_)
            return cells_;
        long p = q > 0 ? lastSetAtOrBefore(q - 1) : -1;
        if (p < 0)
            p = lastSetAtOrBefore(cells_ - 1) - cells_;
        return q - 1 - p;
    }

    /** Free cells from e (mod C) to the nearest occupied cell at or
        after it; C when the circle is empty. */
    long
    rightGap(long e) const
    {
        if (empty_)
            return cells_;
        if (e >= cells_)
            e -= cells_;
        long p = firstSetAtOrAfter(e);
        if (p < 0)
            p = firstSetAtOrAfter(0) + cells_;
        return p - e;
    }

  private:
    /** Mask of bits [lo, hi] of one word, 0 <= lo <= hi < 64;
        branch-free, unlike lowBitsMask, for the fit test's hot loop. */
    static std::uint64_t
    bitsMask(long lo, long hi)
    {
        return (~std::uint64_t(0) << lo) & (~std::uint64_t(0) >> (63 - hi));
    }

    /** True if linear [a, b) holds no set cell; 0 <= a < b <= C. */
    bool
    rangeFree(long a, long b) const
    {
        const std::size_t wa = std::size_t(a >> 6);
        const std::size_t wb = std::size_t((b - 1) >> 6);
        if (wa == wb)
            return !(words_[wa] & bitsMask(a & 63, (b - 1) & 63));
        if (words_[wa] & bitsMask(a & 63, 63))
            return false;
        for (std::size_t w = wa + 1; w < wb; ++w) {
            if (words_[w])
                return false;
        }
        return !(words_[wb] & bitsMask(0, (b - 1) & 63));
    }

    /** Set linear [a, b); 0 <= a < b <= C. */
    void
    setRange(long a, long b)
    {
        const std::size_t wa = std::size_t(a >> 6);
        const std::size_t wb = std::size_t((b - 1) >> 6);
        if (wa == wb) {
            words_[wa] |= bitsMask(a & 63, (b - 1) & 63);
            return;
        }
        words_[wa] |= bitsMask(a & 63, 63);
        for (std::size_t w = wa + 1; w < wb; ++w)
            words_[w] = ~std::uint64_t(0);
        words_[wb] |= bitsMask(0, (b - 1) & 63);
    }

    /** Highest set cell <= pos, or -1. */
    long
    lastSetAtOrBefore(long pos) const
    {
        std::size_t w = std::size_t(pos >> 6);
        std::uint64_t bits = words_[w] & bitsMask(0, pos & 63);
        while (!bits) {
            if (w == 0)
                return -1;
            bits = words_[--w];
        }
        return long(w) * 64 + 63 - countLeadingZeros(bits);
    }

    /** Lowest set cell >= pos, or -1; pos < C. */
    long
    firstSetAtOrAfter(long pos) const
    {
        std::size_t w = std::size_t(pos >> 6);
        std::uint64_t bits = words_[w] & bitsMask(pos & 63, 63);
        while (!bits) {
            if (++w == words_.size())
                return -1;
            bits = words_[w];
        }
        return long(w) * 64 + countTrailingZeros(bits);
    }

    long cells_ = 0;
    bool empty_ = true;
    std::vector<std::uint64_t> words_;
};

/** The live, non-empty lifetimes in the order they are packed. */
std::vector<const Lifetime *>
packOrder(const LifetimeInfo &lifetimes, AllocOrder order)
{
    std::vector<const Lifetime *> values;
    for (const Lifetime &lt : lifetimes.lifetimes) {
        if (lt.live && lt.length() > 0)
            values.push_back(&lt);
    }

    switch (order) {
      case AllocOrder::Adjacency:
        std::stable_sort(values.begin(), values.end(),
                         [](const Lifetime *a, const Lifetime *b) {
                             if (a->start != b->start)
                                 return a->start < b->start;
                             return a->length() > b->length();
                         });
        break;
      case AllocOrder::DescendingLength:
        std::stable_sort(values.begin(), values.end(),
                         [](const Lifetime *a, const Lifetime *b) {
                             if (a->length() != b->length())
                                 return a->length() > b->length();
                             return a->start < b->start;
                         });
        break;
    }
    return values;
}

/**
 * Pack `values` (in order) into `num_regs` rotating registers, writing
 * offset[producer] as each value is placed. Returns false at the first
 * value that fits nowhere; the offsets placed so far are kept.
 */
bool
pack(const std::vector<const Lifetime *> &values, long ii, int num_regs,
     FitStrategy strategy, Circle &circle, std::vector<int> &offset)
{
    const long circ = long(num_regs) * ii;
    circle.reset(circ);
    for (const Lifetime *lt : values) {
        const long len = lt->length();
        if (len > circ)
            return false;  // A single value exceeds the whole file.

        // Offset o anchors the arc at q = (start - o*II) mod C.
        long q = lt->start % circ;
        long bestQ = -1;
        long bestKey = -1;
        for (int o = 0; o < num_regs; ++o, q -= ii) {
            if (q < 0)
                q += circ;
            if (!circle.isFree(q, len))
                continue;

            long key = 0;
            switch (strategy) {
              case FitStrategy::FirstFit:
                key = 0;  // First feasible offset wins.
                break;
              case FitStrategy::EndFit:
                key = circle.leftGap(q);
                break;
              case FitStrategy::BestFit:
                key = circle.leftGap(q) + circle.rightGap(q + len);
                break;
            }
            if (bestQ < 0 || key < bestKey) {
                bestQ = q;
                bestKey = key;
                offset[std::size_t(lt->producer)] = o;
            }
            // A zero gap cannot be improved on, and on an empty circle
            // every offset fits with the same key.
            if (key == 0 || circle.empty())
                break;
        }
        if (bestQ < 0)
            return false;  // No feasible position: allocation fails.
        circle.occupy(bestQ, len);
    }
    return true;
}

/**
 * The R scan shared by minRotatingRegs and RegisterScan: for R from
 * max(first, 1, MaxLive) up to `limit`, pack each of `orders` in turn,
 * and the first (R, order) that packs wins. An earlier order therefore
 * wins ties, and a later one wins only at a strictly smaller R. Each
 * order is sorted once, on first use, and all packs share one circle
 * and `offset`, which ends holding the winning pack's offsets (all -1
 * when nothing is live; unspecified when no pack up to `limit`
 * succeeds). Returns the winning R, or limit+1.
 */
int
scanRegs(const LifetimeInfo &lifetimes, FitStrategy strategy,
         std::initializer_list<AllocOrder> orders, int first, int limit,
         std::vector<int> &offset)
{
    offset.assign(lifetimes.lifetimes.size(), -1);
    std::vector<std::vector<const Lifetime *>> values(orders.size());
    values[0] = packOrder(lifetimes, *orders.begin());
    if (values[0].empty())
        return 0;

    Circle circle;
    for (int r = std::max({first, 1, lifetimes.maxLive}); r <= limit;
         ++r) {
        std::size_t k = 0;
        for (const AllocOrder order : orders) {
            if (values[k].empty())
                values[k] = packOrder(lifetimes, order);
            if (pack(values[k], lifetimes.ii, r, strategy, circle, offset))
                return r;
            ++k;
        }
    }
    return limit + 1;
}

/**
 * The register scan's upper bound for a budget. budget * 4 would
 * overflow for the effectively unlimited budget of ideal runs
 * (INT_MAX / 2); such budgets never bind the search — maxLive + 64
 * keeps it viable — so the term applies only when representable.
 */
int
regsCap(int budget, int maxLive)
{
    const int maxScalableBudget = std::numeric_limits<int>::max() / 4;
    return budget > maxScalableBudget
               ? std::max(maxLive + 64, 64)
               : std::max({budget * 4, maxLive + 64, 64});
}

/**
 * Allocate the loop variants with both orderings, scanning R no
 * further than `limit` (<= the cap). Both orderings are cheap next to
 * scheduling; whichever packs tighter wins (adjacency is Rau's
 * reference ordering, descending length often wins on fan-out-heavy
 * lifetimes). A scan that fails up to `limit` reports the cap's
 * overflow count cap+1, as the exact scan does.
 */
AllocationOutcome
allocateUpTo(const LifetimeInfo &info, int budget, FitStrategy strategy,
             int limit)
{
    RegisterScan scan(info);
    const int bound = scan.bound(budget, limit);
    scan.extend(info, strategy, bound);
    return std::move(scan).outcome(budget, bound);
}

} // namespace

const char *
fitStrategyName(FitStrategy s)
{
    switch (s) {
      case FitStrategy::EndFit: return "end-fit";
      case FitStrategy::FirstFit: return "first-fit";
      case FitStrategy::BestFit: return "best-fit";
    }
    SWP_PANIC("unknown fit strategy ", int(s));
}

RotAllocResult
allocateRotating(const LifetimeInfo &lifetimes, int num_regs,
                 FitStrategy strategy, AllocOrder order)
{
    RotAllocResult result;
    result.offset.assign(lifetimes.lifetimes.size(), -1);
    result.registers = num_regs;
    Circle circle;
    result.ok = pack(packOrder(lifetimes, order), lifetimes.ii, num_regs,
                     strategy, circle, result.offset);
    return result;
}

int
minRotatingRegs(const LifetimeInfo &lifetimes, FitStrategy strategy,
                AllocOrder order, int cap)
{
    std::vector<int> offset;
    return scanRegs(lifetimes, strategy, {order}, 1, cap, offset);
}

RegisterScan::RegisterScan(const LifetimeInfo &info)
    : maxLive_(info.maxLive),
      invariants_(info.invariantCount),
      scanned_(std::max(1, info.maxLive) - 1)
{
    const bool anyLive =
        std::any_of(info.lifetimes.begin(), info.lifetimes.end(),
                    [](const Lifetime &lt) {
                        return lt.live && lt.length() > 0;
                    });
    if (!anyLive) {
        // Nothing to pack: zero registers fit every request whose
        // limit admits them, and no R is ever packed.
        winner_ = 0;
        offset_.assign(info.lifetimes.size(), -1);
    }
}

int
RegisterScan::bound(int budget, int limit) const
{
    return std::min(limit, regsCap(budget, maxLive_));
}

void
RegisterScan::extend(const LifetimeInfo &info, FitStrategy strategy,
                     int bound)
{
    if (covers(bound))
        return;
    std::vector<int> offset;
    const int r =
        scanRegs(info, strategy,
                 {AllocOrder::Adjacency, AllocOrder::DescendingLength},
                 scanned_ + 1, bound, offset);
    if (r <= bound) {
        winner_ = r;
        offset_ = std::move(offset);
    } else {
        scanned_ = bound;
    }
}

AllocationOutcome
RegisterScan::decided(int budget, int bound) const
{
    SWP_ASSERT(covers(bound), "register scan stopped at R=", scanned_,
               " below the requested bound ", bound);
    AllocationOutcome outcome;
    outcome.maxLive = maxLive_;
    outcome.invariants = invariants_;
    if (winner_ >= 0 && winner_ <= bound) {
        outcome.rotating = winner_;
        outcome.rotAlloc.ok = true;
        outcome.rotAlloc.registers = winner_;
    } else {
        outcome.rotating = regsCap(budget, maxLive_) + 1;
    }
    outcome.regsRequired = outcome.rotating + outcome.invariants;
    outcome.fits = outcome.regsRequired <= budget;
    return outcome;
}

AllocationOutcome
RegisterScan::outcome(int budget, int bound) const &
{
    AllocationOutcome outcome = decided(budget, bound);
    if (outcome.rotAlloc.ok)
        outcome.rotAlloc.offset = offset_;
    return outcome;
}

AllocationOutcome
RegisterScan::outcome(int budget, int bound) &&
{
    AllocationOutcome outcome = decided(budget, bound);
    if (outcome.rotAlloc.ok)
        outcome.rotAlloc.offset = std::move(offset_);
    return outcome;
}

AllocationOutcome
allocateLoop(const Ddg &g, const Schedule &sched, int budget,
             FitStrategy strategy)
{
    return allocateLoop(analyzeLifetimes(g, sched), budget, strategy);
}

AllocationOutcome
allocateLoop(const LifetimeInfo &info, int budget, FitStrategy strategy)
{
    return allocateUpTo(info, budget, strategy,
                        std::numeric_limits<int>::max());
}

std::optional<AllocationOutcome>
allocateWithinBudget(const LifetimeInfo &info, int budget,
                     FitStrategy strategy)
{
    // A rotating count above budget - invariants cannot fit, so the
    // scan stops there; with no room at all it packs nothing.
    AllocationOutcome outcome =
        allocateUpTo(info, budget, strategy, budget - info.invariantCount);
    if (!outcome.fits)
        return std::nullopt;
    return outcome;
}

bool
allocationConflictFree(const LifetimeInfo &lifetimes,
                       const RotAllocResult &alloc, std::string *why)
{
    if (alloc.offset.size() != lifetimes.lifetimes.size()) {
        if (why) {
            *why = strprintf("%zu offsets for %zu lifetimes",
                             alloc.offset.size(),
                             lifetimes.lifetimes.size());
        }
        return false;
    }

    const long ii = lifetimes.ii;
    const long circ = long(alloc.registers) * ii;

    std::vector<const Lifetime *> values;
    for (const Lifetime &lt : lifetimes.lifetimes) {
        if (lt.live && lt.length() > 0)
            values.push_back(&lt);
    }
    if (!values.empty() && circ <= 0) {
        if (why) {
            *why = strprintf("%zu live values on a %d-register, II %d "
                             "file",
                             values.size(), alloc.registers,
                             lifetimes.ii);
        }
        return false;
    }

    for (std::size_t i = 0; i < values.size(); ++i) {
        const Lifetime *a = values[i];
        const int oa = alloc.offset[std::size_t(a->producer)];
        if (oa < 0) {
            if (why)
                *why = strprintf("value n%d unallocated", a->producer);
            return false;
        }
        const long qa = fmod2(a->start - long(oa) * ii, circ);
        for (std::size_t j = i + 1; j < values.size(); ++j) {
            const Lifetime *b = values[j];
            const int ob = alloc.offset[std::size_t(b->producer)];
            if (ob < 0)
                continue;  // Reported when j reaches it.
            const long qb = fmod2(b->start - long(ob) * ii, circ);
            if (arcsOverlap(qa, a->length(), qb, b->length(), circ)) {
                if (why) {
                    *why = strprintf("values n%d and n%d overlap",
                                     a->producer, b->producer);
                }
                return false;
            }
        }
    }
    return true;
}

} // namespace swp
