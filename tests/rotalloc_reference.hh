/**
 * @file
 * Test-only reference for rotating register allocation: the original
 * arc-list allocator, which tests every candidate offset against the
 * whole list of occupied arcs. The library's bitmap allocator must
 * reproduce its results exactly (test_regalloc's differential tests).
 *
 * It lives in its own namespace, outside swp, so that unqualified
 * calls with swp arguments never find it through argument-dependent
 * lookup; call it as rotalloc_ref::allocateRotating(...).
 */

#ifndef SWP_TESTS_ROTALLOC_REFERENCE_HH
#define SWP_TESTS_ROTALLOC_REFERENCE_HH

#include "liferange/lifetimes.hh"
#include "regalloc/rotalloc.hh"

namespace rotalloc_ref
{

/** Arc-list counterpart of swp::allocateRotating. */
swp::RotAllocResult allocateRotating(const swp::LifetimeInfo &lifetimes,
                                     int num_regs,
                                     swp::FitStrategy strategy,
                                     swp::AllocOrder order);

/** Arc-list counterpart of swp::minRotatingRegs. */
int minRotatingRegs(const swp::LifetimeInfo &lifetimes,
                    swp::FitStrategy strategy, swp::AllocOrder order,
                    int cap);

} // namespace rotalloc_ref

#endif // SWP_TESTS_ROTALLOC_REFERENCE_HH
