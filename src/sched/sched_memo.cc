#include "sched/sched_memo.hh"

#include "sched/fingerprint.hh"
#include "support/diag.hh"

namespace swp
{

std::optional<Schedule>
ScheduleMemo::scheduleAt(ModuloScheduler &inner, SchedulerKind kind,
                         const Ddg &g, const Machine &m, int ii,
                         std::uint64_t machineFp)
{
    if (machineFp == 0) {
        machineFp = machineFingerprint(m);
    } else if (verifyKeys_) {
        SWP_ASSERT(machineFp == machineFingerprint(m),
                   "schedule memo: stale machine fingerprint for '",
                   m.name(), "'");
    }
    const Key key{graphFingerprint(g), machineFp, ii, int(kind)};
    CachedProbe probe = cache_.getOrCompute(
        key,
        [&]() {
            CachedProbe p;
            p.sched = inner.scheduleAt(g, m, ii);
            if (verifyKeys_)
                p.witness.record(g, m);
            return p;
        },
        [&](const CachedProbe &hit) {
            if (verifyKeys_)
                hit.witness.verify(g, m, "schedule memo");
        });
    return std::move(probe.sched);
}

} // namespace swp
