/**
 * @file
 * Text serialization of loop dependence graphs (.ddg format).
 *
 * The format is line oriented; '#' starts a comment. A stream may hold
 * any number of loops:
 *
 * @code
 * loop daxpy
 * iterations 1000
 * node Ld1 ld
 * node Mul mul
 * node Add add
 * node St  st
 * inv  alpha
 * edge Ld1 Mul reg 0
 * edge Mul Add reg 0
 * edge Add St  reg 0
 * edge Add Add reg 1     # loop-carried self dependence
 * use  alpha Mul
 * end
 * @endcode
 *
 * Trip counts lie in [1, 10^12] and edge distances in [0, 65536]; a
 * value outside its range, or one that is not a base-10 integer, is
 * refused with the line number like every other malformed line.
 */

#ifndef SWP_WORKLOAD_DDGIO_HH
#define SWP_WORKLOAD_DDGIO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/suitegen.hh"

namespace swp
{

/** Parse every loop in a stream; throws FatalError on malformed input. */
std::vector<SuiteLoop> parseDdgStream(std::istream &in);

/** Parse a .ddg file from disk. */
std::vector<SuiteLoop> parseDdgFile(const std::string &path);

/** Serialize one loop (only live edges and unspilled invariants). */
void writeDdg(std::ostream &out, const SuiteLoop &loop);

} // namespace swp

#endif // SWP_WORKLOAD_DDGIO_HH
