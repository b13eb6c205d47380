// String-keyed factory for distribution methods.
//
// Benchmarks, examples and tests construct methods from compact specs:
//   "fx-basic"            Basic FX (no transformation)
//   "fx-iu1" / "fx-iu2"   Extended FX with the automatic planner
//   "fx:[I,U,IU1]"        Extended FX with an explicit per-field plan
//   "modulo"              Disk Modulo
//   "gdm:2,3,5,7,11,13"   GDM with explicit multipliers
//   "gdm1" "gdm2" "gdm3"  GDM with the paper's multiplier sets (6 fields,
//                         repeated cyclically for other arities)
//   "rot<k>:<inner>"      Inner method with every device shifted by k mod M
//                         (complementary replica placement, e.g. "rot4:fx-iu2")

#ifndef FXDIST_CORE_REGISTRY_H_
#define FXDIST_CORE_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/distribution.h"
#include "util/status.h"

namespace fxdist {

/// Parses `spec_string` and instantiates the method for `spec`.
Result<std::unique_ptr<DistributionMethod>> MakeDistribution(
    const FieldSpec& spec, const std::string& spec_string);

/// All spec strings understood by MakeDistribution that need no argument
/// (for --help output and sweep benches).
std::vector<std::string> KnownDistributionNames();

/// Splits a "prefix:rest" spec at the first colon ("rot4:fx-iu2" ->
/// {"rot4", "fx-iu2"}, "packed:/a:b.fxpk" -> {"packed", "/a:b.fxpk"}).
/// Returns false (outputs untouched) when there is no colon.  Shared by
/// the distribution registry and the storage-backend child specs.
bool SplitSpecPrefix(const std::string& spec_string, std::string* prefix,
                     std::string* rest);

}  // namespace fxdist

#endif  // FXDIST_CORE_REGISTRY_H_
