#include "schedule_reference.hh"

#include <map>
#include <tuple>

#include "sched/groups.hh"
#include "support/strutil.hh"

namespace schedule_ref
{

using swp::Ddg;
using swp::Edge;
using swp::EdgeId;
using swp::Machine;
using swp::NodeId;
using swp::Opcode;
using swp::Schedule;
using swp::strprintf;

bool
validateSchedule(const Ddg &g, const Machine &m, const Schedule &s,
                 std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    if (s.numNodes() != g.numNodes())
        return fail("schedule size does not match graph");
    if (!s.complete())
        return fail("schedule is incomplete");

    const int ii = s.ii();

    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &edge = g.edge(e);
        if (!edge.alive)
            continue;
        const int lat = m.latency(g.node(edge.src).op);
        const int earliest = s.time(edge.src) + lat - ii * edge.distance;
        if (s.time(edge.dst) < earliest) {
            return fail(strprintf(
                "dependence %s -> %s violated: t=%d < %d",
                g.node(edge.src).name.c_str(), g.node(edge.dst).name.c_str(),
                s.time(edge.dst), earliest));
        }
        if (edge.nonSpillable) {
            const int delay = swp::fusedDelayOf(g, m, edge);
            if (s.time(edge.dst) != s.time(edge.src) + delay) {
                return fail(strprintf(
                    "fused edge %s -> %s not at exact offset %d",
                    g.node(edge.src).name.c_str(),
                    g.node(edge.dst).name.c_str(), delay));
            }
        }
    }

    std::map<std::tuple<int, int, int>, NodeId> slots;
    for (NodeId n = 0; n < g.numNodes(); ++n) {
        const Opcode op = g.node(n).op;
        const int cls = m.classOf(op);
        const int u = s.unit(n);
        if (u < 0 || u >= m.unitsInClass(cls)) {
            return fail(strprintf("node %s has bad unit %d",
                                  g.node(n).name.c_str(), u));
        }
        const int occ = m.occupancy(op);
        if (occ > ii) {
            return fail(strprintf(
                "node %s occupies its unit %d cycles > II=%d",
                g.node(n).name.c_str(), occ, ii));
        }
        for (int c = 0; c < occ; ++c) {
            const int row = Schedule::floorMod(s.time(n) + c, ii);
            const auto key = std::make_tuple(cls, u, row);
            const auto [it, inserted] = slots.emplace(key, n);
            if (!inserted) {
                return fail(strprintf(
                    "resource conflict on %s unit %d row %d: %s vs %s",
                    m.className(cls).c_str(), u, row,
                    g.node(it->second).name.c_str(),
                    g.node(n).name.c_str()));
            }
        }
    }
    return true;
}

} // namespace schedule_ref
