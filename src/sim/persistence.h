// Backend persistence: a simple versioned, self-describing text format.
//
// A saved file records the construction parameters (device count,
// distribution/plan, hash seed, kind-specific extras) and the schema,
// followed by every live record.  Loading replays the inserts; because
// all hashing and placement is deterministic in the seed, the reloaded
// backend is placed identically to the saved one (the dynamic backend's
// directory growth replays identically too).
//
// v2 (any monolithic StorageBackend; still loadable):
//
//   fxdist-backend v2
//   kind <flat|paged|dynamic>
//   <kind-specific params written by StorageBackend::SaveParams>
//   records <count>
//   i:<value> | d:<hex-bits> | s:<len>:<bytes>                  (x n per record)
//
// Kind-specific params: "flat" writes
//
//   devices <M>
//   distribution <len>:<spec-string>
//   seed <seed>
//   fields <n>
//   field <len>:<name> <int64|double|string> <directory-size>   (x n)
//
// "paged" adds a "pagesize <P>" line after the seed; "dynamic" writes
// family/pagecap/seed and field declarations without directory sizes
// (its directories grow from the replay).
//
// v3 (what SaveBackend writes) extends v2 with composite kinds and
// provisioned dynamic directories:
//
//   * "dynamic" params end with "depths <g_1> ... <g_n>" — the initial
//     per-field directory depths.
//   * kind "sharded" writes "child <kind>" plus ONE child's params (all
//     M children are identical); loading builds M empty children and
//     replays the records through the composite's routing Insert.
//   * kind "replicated" writes "placement <mirrored|chained>",
//     "down <count> <device>...", then "child <kind>" plus the primary's
//     params; loading rebuilds the rotated replica from the same
//     blueprint, replays into both copies, then re-applies the down set.
//   * kind "packed" writes "child <kind>" plus the *source* backend's
//     params (the blueprint embedded in the packed file); loading
//     "unpacks" — it builds an empty backend of the source kind and
//     replays the records into it.  The packed file itself is rebuilt
//     with PackBackend, not by replay.
//
// v4 extends v3 with one kind, written ONLY while a live migration is
// in flight (an idle MigratingBackend saves as its active plane, in
// v3):
//
//   * kind "migrating" writes "phase <copying|idle>", "cursor <b>",
//     (while copying) "target <kind>" plus the target's params, then
//     "source <kind>" plus the source's params.  The records section
//     holds the SOURCE's records — the target's contents are derivable
//     (they are exactly the copy of buckets [0, cursor)), so loading
//     replays the source, restarts the migration, and re-copies to the
//     saved cursor.  Dual-written records re-materialize identically:
//     a forwarded record sits at the end of its source bucket, which is
//     where the re-copy replays it.
//
//   Loading a v4 blob with a v3-era reader fails with InvalidArgument
//   ("unsupported backend format version"), never a crash; "migrating"
//   under v2/v3 headers is likewise rejected.
//
// The retired "fxdist-file v1" flat-file format is not loadable:
// LoadBackend refuses it with an error.

#ifndef FXDIST_SIM_PERSISTENCE_H_
#define FXDIST_SIM_PERSISTENCE_H_

#include <memory>
#include <string>

#include "sim/parallel_file.h"
#include "sim/storage_backend.h"
#include "util/status.h"

namespace fxdist {

/// Writes any backend to `path` in the v3 (v4 mid-migration) format,
/// overwriting.
Status SaveBackend(const StorageBackend& backend, const std::string& path);

/// Reconstructs a backend saved by SaveBackend, dispatching on its kind
/// token.
Result<std::unique_ptr<StorageBackend>> LoadBackend(const std::string& path);

/// "kind <k>\n" plus the backend's SaveParams tokens — the v3 header body
/// without the records section.  This is the construction blueprint the
/// wire handshake ships so a RemoteBackend can build a placement-identical
/// local twin (all placement is deterministic in the blueprint).
std::string BackendBlueprintText(const StorageBackend& backend);

/// Builds an *empty* backend from BackendBlueprintText output.  Replicated
/// blueprints re-apply their down set immediately (there are no records to
/// replay first).
Result<std::unique_ptr<StorageBackend>> BuildBackendFromBlueprintText(
    const std::string& text);

/// Builds an empty *reshard target* from `source`'s blueprint: the same
/// kind and schema over the same bucket space, re-cut for `new_devices`
/// and (when non-empty) distribution spec `new_distribution`.  A sharded
/// source yields a sharded target with `new_devices` children.  Dynamic
/// and packed sources are rejected (their placement is not a free
/// parameter of the blueprint).
Result<std::unique_ptr<StorageBackend>> BuildRetargetedEmptyBackend(
    const StorageBackend& source, std::uint64_t new_devices,
    const std::string& new_distribution);

}  // namespace fxdist

#endif  // FXDIST_SIM_PERSISTENCE_H_
