#include "rotalloc_reference.hh"

#include <algorithm>

namespace rotalloc_ref
{

using swp::AllocOrder;
using swp::FitStrategy;
using swp::Lifetime;
using swp::LifetimeInfo;
using swp::RotAllocResult;

namespace
{

/** An occupied arc [start, start+len) on the allocation circle. */
struct Arc
{
    long start;
    long len;
};

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

/** Gap from q backwards to the end of the nearest occupied arc. */
long
leftGap(const std::vector<Arc> &occupied, long q, long circ)
{
    long best = circ;
    for (const Arc &a : occupied)
        best = std::min(best, fmod2(q - (a.start + a.len), circ));
    return best;
}

/** Gap from q+len forward to the start of the nearest occupied arc. */
long
rightGap(const std::vector<Arc> &occupied, long q, long len, long circ)
{
    long best = circ;
    for (const Arc &a : occupied)
        best = std::min(best, fmod2(a.start - (q + len), circ));
    return best;
}

} // namespace

RotAllocResult
allocateRotating(const LifetimeInfo &lifetimes, int num_regs,
                 FitStrategy strategy, AllocOrder order)
{
    RotAllocResult result;
    result.offset.assign(lifetimes.lifetimes.size(), -1);
    result.registers = num_regs;

    const long ii = lifetimes.ii;
    const long circ = long(num_regs) * ii;

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

    std::vector<Arc> occupied;
    for (const Lifetime *lt : values) {
        const long len = lt->length();
        if (len > circ)
            return result;  // A single value exceeds the whole file.

        long bestQ = -1;
        long bestKey = -1;
        for (int o = 0; o < num_regs; ++o) {
            const long q = fmod2(lt->start - long(o) * ii, circ);
            bool fits = true;
            for (const Arc &a : occupied) {
                if (arcsOverlap(q, len, a.start, a.len, circ)) {
                    fits = false;
                    break;
                }
            }
            if (!fits)
                continue;

            long key = 0;
            switch (strategy) {
              case FitStrategy::FirstFit:
                key = 0;  // First feasible offset wins.
                break;
              case FitStrategy::EndFit:
                key = leftGap(occupied, q, circ);
                break;
              case FitStrategy::BestFit:
                key = leftGap(occupied, q, circ) +
                      rightGap(occupied, q, len, circ);
                break;
            }
            if (bestQ < 0 || key < bestKey) {
                bestQ = q;
                bestKey = key;
                result.offset[std::size_t(lt->producer)] = o;
            }
            if (strategy == FitStrategy::FirstFit)
                break;
            if (key == 0)
                break;  // Cannot improve on a zero gap.
        }
        if (bestQ < 0)
            return result;  // No feasible position: allocation fails.
        occupied.push_back({bestQ, len});
    }

    result.ok = true;
    return result;
}

int
minRotatingRegs(const LifetimeInfo &lifetimes, FitStrategy strategy,
                AllocOrder order, int cap)
{
    bool anyLive = false;
    for (const Lifetime &lt : lifetimes.lifetimes) {
        if (lt.live && lt.length() > 0) {
            anyLive = true;
            break;
        }
    }
    if (!anyLive)
        return 0;

    for (int r = std::max(1, lifetimes.maxLive); r <= cap; ++r) {
        // Qualified: ADL on the swp arguments also finds swp's version.
        if (rotalloc_ref::allocateRotating(lifetimes, r, strategy, order).ok)
            return r;
    }
    return cap + 1;
}

} // namespace rotalloc_ref
