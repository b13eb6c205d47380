// Child-backend spec strings: how tools and benches say what storage a
// shard server or a composite's child is.
//
//   "flat"          in-process ParallelFile
//   "paged"         in-process PagedParallelFile, page_size records/page
//   "dynamic"       in-process DynamicParallelFile, page_capacity keys per
//                   page, directories provisioned to the schema's sizes
//                   (a composite's frozen plane must not grow)
//   "packed:path"   read-only PackedBackend mapped from a packed file (see
//                   `fxdistctl pack`); arrives full, so a composite
//                   accepts it pre-loaded

#ifndef FXDIST_NET_BACKEND_SPEC_H_
#define FXDIST_NET_BACKEND_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>

#include "hashing/multikey_hash.h"
#include "sim/storage_backend.h"
#include "util/status.h"

namespace fxdist {

struct ChildBackendOptions {
  std::uint64_t page_size = 8;      ///< "paged" records per page
  std::uint64_t page_capacity = 64; ///< "dynamic" keys per page
};

/// Builds one backend from `child_spec`.  Local kinds are constructed
/// from the schema/method/seed; a packed file must agree on device count
/// and field arity.  InvalidArgument for any other spec.
Result<std::unique_ptr<StorageBackend>> MakeChildBackend(
    const std::string& child_spec, const Schema& schema,
    std::uint64_t num_devices, const std::string& method_spec,
    std::uint64_t seed, const ChildBackendOptions& options = {});

}  // namespace fxdist

#endif  // FXDIST_NET_BACKEND_SPEC_H_
