/**
 * @file
 * Test-only node-level recurrence reference: whole-graph Bellman-Ford
 * positive-cycle detection, with no SCC decomposition, no complex
 * groups and no per-graph plan. The library's RecMII (per-SCC binary
 * search) and the schedulers' shared plan-based recurrence check are
 * differentially tested against it (test_mii, test_hrms).
 *
 * Like the other references it lives outside namespace swp; call it as
 * recurrence_ref::iiFeasibleForRecurrences(...).
 */

#ifndef SWP_TESTS_RECURRENCE_REFERENCE_HH
#define SWP_TESTS_RECURRENCE_REFERENCE_HH

#include "ir/ddg.hh"
#include "machine/machine.hh"

namespace recurrence_ref
{

/**
 * True if scheduling the graph at `ii` admits no positive dependence
 * cycle (edge weight latency(src) - ii * distance), i.e. ii >= RecMII.
 */
bool iiFeasibleForRecurrences(const swp::Ddg &g, const swp::Machine &m,
                              int ii);

/** Smallest feasible II, by binary search over the check above. */
int recMii(const swp::Ddg &g, const swp::Machine &m);

} // namespace recurrence_ref

#endif // SWP_TESTS_RECURRENCE_REFERENCE_HH
