#include "sim/persistence.h"

#include <fstream>
#include <optional>
#include <sstream>

#include "hashing/value_codec.h"
#include "sim/composite_backend.h"
#include "sim/dynamic_parallel_file.h"
#include "sim/migration.h"
#include "sim/paged_parallel_file.h"

namespace fxdist {

namespace {

/// Token-stream reader with length-prefixed string support.
class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  Result<std::string> Word() {
    std::string w;
    if (!(in_ >> w)) return Status::InvalidArgument("unexpected EOF");
    return w;
  }

  Result<std::uint64_t> U64() {
    std::uint64_t v = 0;
    if (!(in_ >> v)) return Status::InvalidArgument("expected integer");
    return v;
  }

  /// Reads "<len>:<bytes>".
  Result<std::string> LengthPrefixed() { return DecodeLengthPrefixed(in_); }

  /// Expects the literal `word` next.
  Status Expect(const std::string& word) {
    auto w = Word();
    FXDIST_RETURN_NOT_OK(w.status());
    if (*w != word) {
      return Status::InvalidArgument("expected '" + word + "', got '" +
                                     *w + "'");
    }
    return Status::OK();
  }

 private:
  std::istream& in_;
};

/// Reads "fields <n>" plus n "field <name> <type> <dirsize>" lines.
Result<Schema> ReadSchema(Reader& reader) {
  FXDIST_RETURN_NOT_OK(reader.Expect("fields"));
  auto num_fields = reader.U64();
  FXDIST_RETURN_NOT_OK(num_fields.status());
  std::vector<FieldDecl> fields;
  for (std::uint64_t i = 0; i < *num_fields; ++i) {
    FXDIST_RETURN_NOT_OK(reader.Expect("field"));
    auto name = reader.LengthPrefixed();
    FXDIST_RETURN_NOT_OK(name.status());
    auto type_tag = reader.Word();
    FXDIST_RETURN_NOT_OK(type_tag.status());
    auto type = ParseValueTypeTag(*type_tag);
    FXDIST_RETURN_NOT_OK(type.status());
    auto size = reader.U64();
    FXDIST_RETURN_NOT_OK(size.status());
    fields.push_back({*std::move(name), *type, *size});
  }
  return Schema::Create(std::move(fields));
}

/// Reads "records <n>" and replays every record into `backend`.
Status ReplayRecords(Reader& reader, std::istream& in, unsigned arity,
                     StorageBackend& backend) {
  FXDIST_RETURN_NOT_OK(reader.Expect("records"));
  auto count = reader.U64();
  FXDIST_RETURN_NOT_OK(count.status());
  for (std::uint64_t r = 0; r < *count; ++r) {
    Record record;
    record.reserve(arity);
    for (unsigned f = 0; f < arity; ++f) {
      auto value = DecodeValue(in);
      FXDIST_RETURN_NOT_OK(value.status());
      record.push_back(*std::move(value));
    }
    FXDIST_RETURN_NOT_OK(backend.Insert(std::move(record)));
  }
  return Status::OK();
}

/// Parses the shared flat-body prefix: devices/distribution/seed.
struct FlatHeader {
  std::uint64_t devices = 0;
  std::string distribution;
  std::uint64_t seed = 0;
};

Result<FlatHeader> ReadFlatHeader(Reader& reader) {
  FlatHeader h;
  FXDIST_RETURN_NOT_OK(reader.Expect("devices"));
  auto devices = reader.U64();
  FXDIST_RETURN_NOT_OK(devices.status());
  h.devices = *devices;
  FXDIST_RETURN_NOT_OK(reader.Expect("distribution"));
  auto distribution = reader.LengthPrefixed();
  FXDIST_RETURN_NOT_OK(distribution.status());
  h.distribution = *std::move(distribution);
  FXDIST_RETURN_NOT_OK(reader.Expect("seed"));
  auto seed = reader.U64();
  FXDIST_RETURN_NOT_OK(seed.status());
  h.seed = *seed;
  return h;
}

Status WriteRecords(std::ostream& out, const StorageBackend& backend) {
  const std::uint64_t count = backend.num_records();
  out << "records " << count << '\n';
  return ListEveryRecord(backend, count, [&](const Record& r) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      if (i != 0) out << ' ';
      EncodeValue(out, r[i]);
    }
    out << '\n';
  });
}

/// Construction parameters of one monolithic backend, parsed from its
/// SaveParams block.  Composite kinds read a single blueprint and build
/// several identically-parameterized children from it (the sharded
/// plane's M copies, the replicated pair's rotated twin).
struct BackendBlueprint {
  std::string kind;
  std::uint64_t devices = 0;
  std::string distribution;  // flat / paged
  std::uint64_t seed = 0;
  std::uint64_t pagesize = 0;  // paged
  std::optional<Schema> schema;  // flat / paged
  PlanFamily family = PlanFamily::kIU2;  // dynamic
  std::uint64_t pagecap = 0;             // dynamic
  std::vector<unsigned> depths;          // dynamic, v3+
  std::vector<DynamicFieldDecl> dyn_fields;  // dynamic

  unsigned arity() const {
    return schema.has_value() ? schema->num_fields()
                              : static_cast<unsigned>(dyn_fields.size());
  }

  /// Builds an empty backend from the blueprint.  A non-empty
  /// `distribution_override` replaces the distribution spec (how the
  /// replicated loader derives the rotated replica); dynamic backends
  /// have no distribution spec and reject an override.
  Result<std::unique_ptr<StorageBackend>> Build(
      const std::string& distribution_override = "") const {
    const std::string& dist =
        distribution_override.empty() ? distribution : distribution_override;
    if (kind == "flat") {
      auto file = ParallelFile::Create(*schema, devices, dist, seed);
      FXDIST_RETURN_NOT_OK(file.status());
      return std::unique_ptr<StorageBackend>(
          std::make_unique<ParallelFile>(*std::move(file)));
    }
    if (kind == "paged") {
      auto file = PagedParallelFile::Create(
          *schema, devices, dist, static_cast<std::size_t>(pagesize), seed);
      FXDIST_RETURN_NOT_OK(file.status());
      return std::unique_ptr<StorageBackend>(
          std::make_unique<PagedParallelFile>(*std::move(file)));
    }
    if (kind == "dynamic") {
      if (!distribution_override.empty()) {
        return Status::InvalidArgument(
            "dynamic backends have no distribution spec to override");
      }
      auto file = DynamicParallelFile::Create(
          dyn_fields, devices, static_cast<std::size_t>(pagecap), family,
          seed, depths);
      FXDIST_RETURN_NOT_OK(file.status());
      return std::unique_ptr<StorageBackend>(
          std::make_unique<DynamicParallelFile>(*std::move(file)));
    }
    return Status::InvalidArgument("unknown child backend kind: " + kind);
  }
};

/// Parses the SaveParams block of a monolithic `kind` written by
/// format version `version`.
Result<BackendBlueprint> ReadBlueprint(Reader& reader, int version,
                                       const std::string& kind) {
  BackendBlueprint bp;
  bp.kind = kind;
  if (kind == "flat" || kind == "paged") {
    auto header = ReadFlatHeader(reader);
    FXDIST_RETURN_NOT_OK(header.status());
    bp.devices = header->devices;
    bp.distribution = header->distribution;
    bp.seed = header->seed;
    if (kind == "paged") {
      FXDIST_RETURN_NOT_OK(reader.Expect("pagesize"));
      auto pagesize = reader.U64();
      FXDIST_RETURN_NOT_OK(pagesize.status());
      bp.pagesize = *pagesize;
    }
    auto schema = ReadSchema(reader);
    FXDIST_RETURN_NOT_OK(schema.status());
    bp.schema = *std::move(schema);
    return bp;
  }
  if (kind == "dynamic") {
    FXDIST_RETURN_NOT_OK(reader.Expect("devices"));
    auto devices = reader.U64();
    FXDIST_RETURN_NOT_OK(devices.status());
    bp.devices = *devices;
    FXDIST_RETURN_NOT_OK(reader.Expect("family"));
    auto family_tag = reader.Word();
    FXDIST_RETURN_NOT_OK(family_tag.status());
    if (*family_tag == "iu1") {
      bp.family = PlanFamily::kIU1;
    } else if (*family_tag == "iu2") {
      bp.family = PlanFamily::kIU2;
    } else {
      return Status::InvalidArgument("unknown plan family: " + *family_tag);
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("pagecap"));
    auto pagecap = reader.U64();
    FXDIST_RETURN_NOT_OK(pagecap.status());
    bp.pagecap = *pagecap;
    FXDIST_RETURN_NOT_OK(reader.Expect("seed"));
    auto seed = reader.U64();
    FXDIST_RETURN_NOT_OK(seed.status());
    bp.seed = *seed;
    FXDIST_RETURN_NOT_OK(reader.Expect("fields"));
    auto num_fields = reader.U64();
    FXDIST_RETURN_NOT_OK(num_fields.status());
    for (std::uint64_t i = 0; i < *num_fields; ++i) {
      FXDIST_RETURN_NOT_OK(reader.Expect("field"));
      auto name = reader.LengthPrefixed();
      FXDIST_RETURN_NOT_OK(name.status());
      auto type_tag = reader.Word();
      FXDIST_RETURN_NOT_OK(type_tag.status());
      auto type = ParseValueTypeTag(*type_tag);
      FXDIST_RETURN_NOT_OK(type.status());
      bp.dyn_fields.push_back({*std::move(name), *type});
    }
    if (version >= 3) {
      FXDIST_RETURN_NOT_OK(reader.Expect("depths"));
      for (std::uint64_t i = 0; i < *num_fields; ++i) {
        auto depth = reader.U64();
        FXDIST_RETURN_NOT_OK(depth.status());
        bp.depths.push_back(static_cast<unsigned>(*depth));
      }
    }
    return bp;
  }
  return Status::InvalidArgument("unknown backend kind: " + kind);
}

/// An empty backend rebuilt from its blueprint, plus what the caller
/// still has to do: replay `arity`-field records, then (replicated) mark
/// the `down` devices — degraded mode is read-only, so down state is
/// applied only once both copies hold their records again.
struct EmptyBackend {
  std::unique_ptr<StorageBackend> backend;
  unsigned arity = 0;
  std::vector<std::uint64_t> down;
  /// An interrupted migration to resume after the replay: records go
  /// into the wrapper while it is idle (source only), then the target
  /// is attached and the copy re-run to the saved cursor — replaying
  /// through a live dual-write would double the copied prefix.
  std::unique_ptr<StorageBackend> pending_target;
  std::uint64_t pending_cursor = 0;
};

/// Dispatches on the kind token already consumed by the caller and builds
/// the empty backend: monolithic kinds directly from their blueprint,
/// "sharded" as M identical children, "replicated" as the primary plus
/// its rotated twin.
Result<EmptyBackend> BuildEmptyBackend(Reader& reader, int version,
                                       const std::string& kind) {
  EmptyBackend out;
  if (kind == "sharded") {
    if (version < 3) {
      return Status::InvalidArgument("sharded backends need format v3");
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("child"));
    auto child_kind = reader.Word();
    FXDIST_RETURN_NOT_OK(child_kind.status());
    auto bp = ReadBlueprint(reader, version, *child_kind);
    FXDIST_RETURN_NOT_OK(bp.status());
    std::vector<std::unique_ptr<StorageBackend>> children;
    for (std::uint64_t d = 0; d < bp->devices; ++d) {
      auto child = bp->Build();
      FXDIST_RETURN_NOT_OK(child.status());
      children.push_back(*std::move(child));
    }
    auto sharded = ShardedBackend::Create(std::move(children));
    FXDIST_RETURN_NOT_OK(sharded.status());
    out.backend = std::make_unique<ShardedBackend>(*std::move(sharded));
    out.arity = bp->arity();
    return out;
  }
  if (kind == "replicated") {
    if (version < 3) {
      return Status::InvalidArgument("replicated backends need format v3");
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("placement"));
    auto placement_tag = reader.Word();
    FXDIST_RETURN_NOT_OK(placement_tag.status());
    ReplicaPlacement placement;
    if (*placement_tag == "mirrored") {
      placement = ReplicaPlacement::kMirrored;
    } else if (*placement_tag == "chained") {
      placement = ReplicaPlacement::kChained;
    } else {
      return Status::InvalidArgument("unknown replica placement: " +
                                     *placement_tag);
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("down"));
    auto down_count = reader.U64();
    FXDIST_RETURN_NOT_OK(down_count.status());
    for (std::uint64_t i = 0; i < *down_count; ++i) {
      auto d = reader.U64();
      FXDIST_RETURN_NOT_OK(d.status());
      out.down.push_back(*d);
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("child"));
    auto child_kind = reader.Word();
    FXDIST_RETURN_NOT_OK(child_kind.status());
    auto bp = ReadBlueprint(reader, version, *child_kind);
    FXDIST_RETURN_NOT_OK(bp.status());
    auto primary = bp->Build();
    FXDIST_RETURN_NOT_OK(primary.status());
    const std::uint64_t offset =
        ReplicatedBackend::ReplicaOffset(placement, bp->devices);
    auto replica =
        bp->Build("rot" + std::to_string(offset) + ":" + bp->distribution);
    FXDIST_RETURN_NOT_OK(replica.status());
    auto replicated = ReplicatedBackend::Create(
        *std::move(primary), *std::move(replica), placement);
    FXDIST_RETURN_NOT_OK(replicated.status());
    out.backend = std::make_unique<ReplicatedBackend>(*std::move(replicated));
    out.arity = bp->arity();
    return out;
  }
  if (kind == "migrating") {
    if (version < 4) {
      return Status::InvalidArgument("migrating backends need format v4");
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("phase"));
    auto phase = reader.Word();
    FXDIST_RETURN_NOT_OK(phase.status());
    if (*phase != "copying" && *phase != "idle") {
      return Status::InvalidArgument("unknown migration phase: " + *phase);
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("cursor"));
    auto cursor = reader.U64();
    FXDIST_RETURN_NOT_OK(cursor.status());
    std::unique_ptr<StorageBackend> target;
    if (*phase == "copying") {
      FXDIST_RETURN_NOT_OK(reader.Expect("target"));
      auto target_kind = reader.Word();
      FXDIST_RETURN_NOT_OK(target_kind.status());
      auto built = BuildEmptyBackend(reader, version, *target_kind);
      FXDIST_RETURN_NOT_OK(built.status());
      if (!built->down.empty()) {
        return Status::InvalidArgument(
            "migration target cannot carry a down set");
      }
      target = std::move(built->backend);
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("source"));
    auto source_kind = reader.Word();
    FXDIST_RETURN_NOT_OK(source_kind.status());
    auto source = BuildEmptyBackend(reader, version, *source_kind);
    FXDIST_RETURN_NOT_OK(source.status());
    if (!source->down.empty()) {
      return Status::InvalidArgument(
          "cannot resume a migration over a degraded replicated backend");
    }
    auto wrapper = MigratingBackend::Create(std::move(source->backend));
    FXDIST_RETURN_NOT_OK(wrapper.status());
    out.backend = *std::move(wrapper);
    out.arity = source->arity;
    out.pending_target = std::move(target);
    out.pending_cursor = *cursor;
    return out;
  }
  if (kind == "packed") {
    // A packed save carries its source backend's blueprint ("child
    // <kind>" + params): loading "unpacks" back to the source kind —
    // the packed file itself is immutable, so replaying records into a
    // fresh PackedBackend is impossible by design.  Recurse so nested
    // composite sources round-trip too.
    if (version < 3) {
      return Status::InvalidArgument("packed backends need format v3");
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("child"));
    auto child_kind = reader.Word();
    FXDIST_RETURN_NOT_OK(child_kind.status());
    return BuildEmptyBackend(reader, version, *child_kind);
  }
  auto bp = ReadBlueprint(reader, version, kind);
  FXDIST_RETURN_NOT_OK(bp.status());
  auto built = bp->Build();
  FXDIST_RETURN_NOT_OK(built.status());
  out.backend = *std::move(built);
  out.arity = bp->arity();
  return out;
}

}  // namespace

Status SaveBackend(const StorageBackend& backend, const std::string& path) {
  const bool migrating = backend.backend_name() == "migrating";
  if (migrating) {
    // An idle wrapper is indistinguishable from its active plane; save
    // that as an ordinary blob so v4 only ever holds in-flight state.
    const auto* wrapper = dynamic_cast<const MigratingBackend*>(&backend);
    if (wrapper != nullptr && !wrapper->IsMigrating()) {
      return SaveBackend(backend.ServingPlane(), path);
    }
  }
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << (migrating ? "fxdist-backend v4\n" : "fxdist-backend v3\n");
  out << "kind " << backend.backend_name() << '\n';
  backend.SaveParams(out);
  FXDIST_RETURN_NOT_OK(WriteRecords(out, backend));
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

Result<std::unique_ptr<StorageBackend>> LoadBackend(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open: " + path);
  }
  Reader reader(in);
  FXDIST_RETURN_NOT_OK(reader.Expect("fxdist-backend"));
  auto version_tag = reader.Word();
  FXDIST_RETURN_NOT_OK(version_tag.status());
  int version = 0;
  if (*version_tag == "v2") {
    version = 2;
  } else if (*version_tag == "v3") {
    version = 3;
  } else if (*version_tag == "v4") {
    version = 4;
  } else {
    return Status::InvalidArgument("unsupported backend format version: " +
                                   *version_tag);
  }
  FXDIST_RETURN_NOT_OK(reader.Expect("kind"));
  auto kind = reader.Word();
  FXDIST_RETURN_NOT_OK(kind.status());

  auto empty = BuildEmptyBackend(reader, version, *kind);
  FXDIST_RETURN_NOT_OK(empty.status());
  FXDIST_RETURN_NOT_OK(
      ReplayRecords(reader, in, empty->arity, *empty->backend));
  if (!empty->down.empty()) {
    auto* replicated = dynamic_cast<ReplicatedBackend*>(empty->backend.get());
    if (replicated == nullptr) {
      return Status::Internal("down set on a non-replicated backend");
    }
    for (std::uint64_t d : empty->down) {
      FXDIST_RETURN_NOT_OK(replicated->MarkDown(d));
    }
  }
  if (empty->pending_target != nullptr) {
    // Resume the interrupted migration: the records above replayed into
    // the idle wrapper (source only); re-attach a fresh target and
    // re-copy to the saved cursor — which reproduces the target's
    // contents exactly, dual-written records included.
    auto* wrapper = dynamic_cast<MigratingBackend*>(empty->backend.get());
    if (wrapper == nullptr) {
      return Status::Internal("pending migration on a non-migrating backend");
    }
    FXDIST_RETURN_NOT_OK(
        wrapper->BeginMigration(std::move(empty->pending_target)));
    FXDIST_RETURN_NOT_OK(wrapper->CopyUntil(empty->pending_cursor));
  }
  return std::move(empty->backend);
}

std::string BackendBlueprintText(const StorageBackend& backend) {
  std::ostringstream out;
  out << "kind " << backend.backend_name() << '\n';
  backend.SaveParams(out);
  return out.str();
}

Result<std::unique_ptr<StorageBackend>> BuildBackendFromBlueprintText(
    const std::string& text) {
  std::istringstream in(text);
  Reader reader(in);
  FXDIST_RETURN_NOT_OK(reader.Expect("kind"));
  auto kind = reader.Word();
  FXDIST_RETURN_NOT_OK(kind.status());
  auto empty = BuildEmptyBackend(reader, /*version=*/3, *kind);
  FXDIST_RETURN_NOT_OK(empty.status());
  if (!empty->down.empty()) {
    auto* replicated = dynamic_cast<ReplicatedBackend*>(empty->backend.get());
    if (replicated == nullptr) {
      return Status::Internal("down set on a non-replicated backend");
    }
    for (std::uint64_t d : empty->down) {
      FXDIST_RETURN_NOT_OK(replicated->MarkDown(d));
    }
  }
  return std::move(empty->backend);
}

Result<std::unique_ptr<StorageBackend>> BuildRetargetedEmptyBackend(
    const StorageBackend& source, std::uint64_t new_devices,
    const std::string& new_distribution) {
  if (new_devices == 0) {
    return Status::InvalidArgument("reshard target needs devices > 0");
  }
  std::istringstream in(BackendBlueprintText(source.ServingPlane()));
  Reader reader(in);
  FXDIST_RETURN_NOT_OK(reader.Expect("kind"));
  auto kind_token = reader.Word();
  FXDIST_RETURN_NOT_OK(kind_token.status());
  std::string kind = *kind_token;
  // A packed plane is immutable; its blueprint carries the mutable
  // source kind — retarget onto that.
  while (kind == "packed") {
    FXDIST_RETURN_NOT_OK(reader.Expect("child"));
    auto inner = reader.Word();
    FXDIST_RETURN_NOT_OK(inner.status());
    kind = *inner;
  }
  if (kind == "dynamic") {
    return Status::InvalidArgument(
        "reshard target for dynamic backends is not supported (their "
        "placement is derived from directory depths, not a blueprint "
        "parameter)");
  }
  if (kind == "flat" || kind == "paged") {
    auto bp = ReadBlueprint(reader, /*version=*/3, kind);
    FXDIST_RETURN_NOT_OK(bp.status());
    bp->devices = new_devices;
    if (!new_distribution.empty()) bp->distribution = new_distribution;
    return bp->Build();
  }
  if (kind == "sharded") {
    FXDIST_RETURN_NOT_OK(reader.Expect("child"));
    auto child_kind = reader.Word();
    FXDIST_RETURN_NOT_OK(child_kind.status());
    if (*child_kind == "dynamic") {
      return Status::InvalidArgument(
          "reshard target for dynamic-child shards is not supported");
    }
    auto bp = ReadBlueprint(reader, /*version=*/3, *child_kind);
    FXDIST_RETURN_NOT_OK(bp.status());
    bp->devices = new_devices;
    if (!new_distribution.empty()) bp->distribution = new_distribution;
    std::vector<std::unique_ptr<StorageBackend>> children;
    for (std::uint64_t d = 0; d < new_devices; ++d) {
      auto child = bp->Build();
      FXDIST_RETURN_NOT_OK(child.status());
      children.push_back(*std::move(child));
    }
    auto sharded = ShardedBackend::Create(std::move(children));
    FXDIST_RETURN_NOT_OK(sharded.status());
    return std::unique_ptr<StorageBackend>(
        std::make_unique<ShardedBackend>(*std::move(sharded)));
  }
  if (kind == "replicated") {
    FXDIST_RETURN_NOT_OK(reader.Expect("placement"));
    auto placement_tag = reader.Word();
    FXDIST_RETURN_NOT_OK(placement_tag.status());
    ReplicaPlacement placement;
    if (*placement_tag == "mirrored") {
      placement = ReplicaPlacement::kMirrored;
    } else if (*placement_tag == "chained") {
      placement = ReplicaPlacement::kChained;
    } else {
      return Status::InvalidArgument("unknown replica placement: " +
                                     *placement_tag);
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("down"));
    auto down_count = reader.U64();
    FXDIST_RETURN_NOT_OK(down_count.status());
    if (*down_count != 0) {
      return Status::FailedPrecondition(
          "cannot reshard a degraded replicated backend (mark devices up "
          "first)");
    }
    FXDIST_RETURN_NOT_OK(reader.Expect("child"));
    auto child_kind = reader.Word();
    FXDIST_RETURN_NOT_OK(child_kind.status());
    auto bp = ReadBlueprint(reader, /*version=*/3, *child_kind);
    FXDIST_RETURN_NOT_OK(bp.status());
    bp->devices = new_devices;
    if (!new_distribution.empty()) bp->distribution = new_distribution;
    auto primary = bp->Build();
    FXDIST_RETURN_NOT_OK(primary.status());
    const std::uint64_t offset =
        ReplicatedBackend::ReplicaOffset(placement, new_devices);
    auto replica =
        bp->Build("rot" + std::to_string(offset) + ":" + bp->distribution);
    FXDIST_RETURN_NOT_OK(replica.status());
    auto replicated = ReplicatedBackend::Create(
        *std::move(primary), *std::move(replica), placement);
    FXDIST_RETURN_NOT_OK(replicated.status());
    return std::unique_ptr<StorageBackend>(
        std::make_unique<ReplicatedBackend>(*std::move(replicated)));
  }
  return Status::InvalidArgument("cannot retarget backend kind: " + kind);
}

}  // namespace fxdist
