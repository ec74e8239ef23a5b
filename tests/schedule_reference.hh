/**
 * @file
 * Test-only reference for schedule validation: the original validator,
 * which tracks resource occupants in a std::map keyed by (class, unit,
 * kernel row). The library's flat-array validator must return the same
 * verdict and the same first-violation message (test_schedule's
 * differential test).
 *
 * Like rotalloc_reference, it lives outside namespace swp so that
 * argument-dependent lookup never picks it; call it as
 * schedule_ref::validateSchedule(...).
 */

#ifndef SWP_TESTS_SCHEDULE_REFERENCE_HH
#define SWP_TESTS_SCHEDULE_REFERENCE_HH

#include <string>

#include "ir/ddg.hh"
#include "machine/machine.hh"
#include "sched/schedule.hh"

namespace schedule_ref
{

/** Map-based counterpart of swp::validateSchedule. */
bool validateSchedule(const swp::Ddg &g, const swp::Machine &m,
                      const swp::Schedule &s, std::string *why = nullptr);

} // namespace schedule_ref

#endif // SWP_TESTS_SCHEDULE_REFERENCE_HH
