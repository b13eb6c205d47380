#include "net/backend_spec.h"

#include <utility>
#include <vector>

#include "core/registry.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/packed_backend.h"
#include "sim/paged_parallel_file.h"
#include "sim/parallel_file.h"

namespace fxdist {

namespace {

unsigned Log2OfPow2(std::uint64_t v) {
  unsigned bits = 0;
  while (v > 1) {
    v >>= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

Result<std::unique_ptr<StorageBackend>> MakeChildBackend(
    const std::string& child_spec, const Schema& schema,
    std::uint64_t num_devices, const std::string& method_spec,
    std::uint64_t seed, const ChildBackendOptions& options) {
  if (child_spec == "flat") {
    auto file = ParallelFile::Create(schema, num_devices, method_spec, seed);
    FXDIST_RETURN_NOT_OK(file.status());
    return std::unique_ptr<StorageBackend>(
        std::make_unique<ParallelFile>(*std::move(file)));
  }
  if (child_spec == "paged") {
    auto file = PagedParallelFile::Create(
        schema, num_devices, method_spec,
        static_cast<std::size_t>(options.page_size), seed);
    FXDIST_RETURN_NOT_OK(file.status());
    return std::unique_ptr<StorageBackend>(
        std::make_unique<PagedParallelFile>(*std::move(file)));
  }
  if (child_spec == "dynamic") {
    // Provision each directory to the schema's size so the composite's
    // frozen plane has room (see composite_backend.h).
    std::vector<DynamicFieldDecl> fields;
    std::vector<unsigned> depths;
    fields.reserve(schema.num_fields());
    depths.reserve(schema.num_fields());
    for (unsigned i = 0; i < schema.num_fields(); ++i) {
      fields.push_back({schema.field(i).name, schema.field(i).type});
      depths.push_back(Log2OfPow2(schema.field(i).directory_size));
    }
    const PlanFamily family =
        method_spec == "fx-iu1" ? PlanFamily::kIU1 : PlanFamily::kIU2;
    auto file = DynamicParallelFile::Create(
        std::move(fields), num_devices,
        static_cast<std::size_t>(options.page_capacity), family, seed,
        std::move(depths));
    FXDIST_RETURN_NOT_OK(file.status());
    return std::unique_ptr<StorageBackend>(
        std::make_unique<DynamicParallelFile>(*std::move(file)));
  }
  std::string kind;
  std::string path;
  if (SplitSpecPrefix(child_spec, &kind, &path) && kind == "packed") {
    if (path.empty()) {
      return Status::InvalidArgument("packed spec needs a path: packed:<path>");
    }
    auto packed = PackedBackend::Open(path);
    FXDIST_RETURN_NOT_OK(packed.status());
    if ((*packed)->num_devices() != num_devices) {
      return Status::InvalidArgument(
          "packed file " + path + " is built for " +
          std::to_string((*packed)->num_devices()) + " devices, want " +
          std::to_string(num_devices));
    }
    if ((*packed)->spec().num_fields() != schema.num_fields()) {
      return Status::InvalidArgument(
          "packed file " + path + " has " +
          std::to_string((*packed)->spec().num_fields()) +
          " fields, want " + std::to_string(schema.num_fields()));
    }
    return std::unique_ptr<StorageBackend>(*std::move(packed));
  }
  return Status::InvalidArgument(
      "unknown child backend spec (want flat|paged|dynamic|packed:path): " +
      child_spec);
}

}  // namespace fxdist
