#include "engine/query_engine.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <utility>

#include "analysis/batch.h"
#include "core/query_key.h"
#include "hashing/query_key.h"

namespace fxdist {

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Everything one device contributes to a batch.  Each device task writes
/// only its own slot, so the fan-out needs no synchronization.
struct DeviceOutcome {
  std::vector<std::uint64_t> qualified;      // per rep., served here
  std::vector<std::uint64_t> examined;       // per representative
  std::vector<std::vector<Record>> matched;  // per rep., solo order
  /// Per representative: (serving device, bucket count) for buckets this
  /// device planned but a degraded backend served elsewhere.  Only
  /// populated while the backend re-routes.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> rerouted;
  std::uint64_t buckets_scanned = 0;
  std::uint64_t reroutes = 0;        // scans served away from this device
  std::uint64_t routed_queries = 0;  // reps with any qualified bucket here
  double busy_ms = 0.0;
};

/// Moves `from`'s records onto the end of `to`, taking over the whole
/// buffer while `to` is still empty (the common one-bucket case).
void AppendMoved(std::vector<Record>& to, std::vector<Record>& from) {
  if (to.empty()) {
    to = std::move(from);
  } else {
    to.insert(to.end(), std::make_move_iterator(from.begin()),
              std::make_move_iterator(from.end()));
  }
}

}  // namespace

QueryEngine::QueryEngine(const StorageBackend& backend, EngineOptions options)
    : backend_(backend), options_(options), pool_(options_.num_threads),
      start_(Clock::now()) {
  device_counters_.reserve(backend_.num_devices());
  for (std::uint64_t d = 0; d < backend_.num_devices(); ++d) {
    device_counters_.push_back(std::make_unique<DeviceCounters>());
  }
}

Result<std::vector<QueryResult>> QueryEngine::ExecuteBatch(
    const std::vector<ValueQuery>& batch) {
  if (batch.empty()) return std::vector<QueryResult>{};
  const auto start = Clock::now();
  // Only the field *sizes* matter here (budget accounting); they are
  // invariant across a topology cutover, unlike the device count.
  const FieldSpec& spec = backend_.spec();

  std::vector<PartialMatchQuery> hashed;
  hashed.reserve(batch.size());
  std::uint64_t requested = 0;
  for (const ValueQuery& query : batch) {
    auto h = backend_.HashQuery(query);
    if (!h.ok()) {
      queries_failed_.Increment(batch.size());
      return h.status();
    }
    requested += h->NumQualifiedBuckets(spec);
    if (requested > options_.enumeration_budget) {
      queries_failed_.Increment(batch.size());
      return Status::InvalidArgument(
          "batch enumeration exceeds the engine budget");
    }
    hashed.push_back(*std::move(h));
  }

  batches_executed_.Increment();
  max_batch_size_seen_.UpdateMax(static_cast<std::int64_t>(batch.size()));

  // Collapse value-identical queries: representatives execute, duplicates
  // copy the representative's result.  Keyed on the canonical QueryKey —
  // one hash probe per query instead of the old pairwise ValueQuery==
  // sweep, and the same identity the front-door result cache uses, so
  // collapse and cache hits agree on what "the same query" means.  (Key
  // equality is bit-level: a +0.0/-0.0 pair stays uncollapsed — a
  // harmless missed share — while bit-identical NaN queries collapse
  // safely, both filtering identically.)
  std::vector<std::uint32_t> rep_of(batch.size(), 0);
  std::vector<std::uint32_t> reps;
  std::unordered_map<QueryKey, std::uint32_t, QueryKeyHash> rep_index;
  rep_index.reserve(batch.size());
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    auto [slot, inserted] = rep_index.try_emplace(
        CanonicalQueryKey(batch[i]), static_cast<std::uint32_t>(reps.size()));
    rep_of[i] = slot->second;
    if (inserted) reps.push_back(i);
  }
  duplicates_collapsed_.Increment(batch.size() - reps.size());

  // A representative that shares no bucket with any other gains nothing
  // from a shared plan: it pays its own largest response either way, so
  // it runs the backend's own Execute (no planning, no per-slot match
  // lists) and only the rest go through the per-device gather.  The
  // test is exact in the hashed domain and enumerates nothing.  On
  // backends whose scans are round trips (ScanPrefersFanout) every
  // representative stays in the gather: a composite over remote children
  // would turn each Execute into one frame per child instead of one per
  // device for the whole batch.
  std::vector<std::uint32_t> solo, shared;  // indices into reps
  const bool round_trips = backend_.ScanPrefersFanout();
  for (std::uint32_t a = 0; a < reps.size(); ++a) {
    bool overlaps = round_trips;
    for (std::uint32_t b = 0; b < reps.size() && !overlaps; ++b) {
      overlaps = b != a && hashed[reps[a]].SharesBucketWith(hashed[reps[b]]);
    }
    (overlaps ? shared : solo).push_back(a);
  }
  std::vector<PartialMatchQuery> shared_hashed;
  std::vector<const ValueQuery*> shared_queries;
  shared_hashed.reserve(shared.size());
  shared_queries.reserve(shared.size());
  for (std::uint32_t q : shared) {
    shared_hashed.push_back(hashed[reps[q]]);
    shared_queries.push_back(&batch[reps[q]]);
  }

  // Topology-stable execution (seqlock-style): each attempt runs the
  // whole plan/scan/merge against ONE DeviceMap captured up front, with
  // the backend's TopologyVersion loaded before and re-checked after.
  // A migrating backend that cut over mid-attempt may have served later
  // scans from the new placement while the plan addressed the old one —
  // those results are untrustworthy, so the attempt is discarded and
  // the batch re-planned against the new map.  Solo queries run inside
  // the attempt too, so a cutover re-runs them as well.  The retired
  // plane stays allocated inside the wrapper, so references captured
  // just before the swap stay valid (stale) rather than dangling.
  // Cutovers are rare; more than a few inside one batch means something
  // is thrashing and the batch fails honestly instead of spinning.
  constexpr int kMaxTopologyRetries = 4;

  std::vector<QueryResult> rep_results;
  std::uint64_t performed = 0, examined_total = 0, matched_total = 0;

  auto attempt = [&]() -> Status {
    rep_results.assign(reps.size(), QueryResult{});
    performed = examined_total = matched_total = 0;

    // Solo queries: one per worker when there are several.  Each task
    // writes only its own result and status slot.
    std::vector<Status> solo_status(solo.size());
    auto run_solo = [&](std::uint64_t i) {
      auto result = backend_.Execute(batch[reps[solo[i]]]);
      if (result.ok()) {
        rep_results[solo[i]] = *std::move(result);
      } else {
        solo_status[i] = result.status();
      }
    };
    if (pool_.num_threads() > 1 && solo.size() > 1) {
      pool_.ParallelFor(solo.size(), run_solo);
    } else {
      for (std::size_t i = 0; i < solo.size(); ++i) run_solo(i);
    }
    for (std::size_t i = 0; i < solo.size(); ++i) {
      FXDIST_RETURN_NOT_OK(solo_status[i]);
      const QueryStats& stats = rep_results[solo[i]].stats;
      // Sharing nothing, a solo query scans its own |R(q)| distinct
      // buckets.
      performed += hashed[reps[solo[i]]].NumQualifiedBuckets(spec);
      examined_total += stats.records_examined;
      matched_total += stats.records_matched;
    }
    if (shared.empty()) return backend_.Health();

    // One map, one spec, one device count for the whole attempt: every
    // index below (outcomes, qualified_per_device, counters) derives
    // from this single capture, so a cutover landing between two loads
    // can never mix sizes from two placements.
    const DeviceMap& map = backend_.device_map();
    const FieldSpec& map_spec = map.spec();
    const std::uint64_t num_devices = map_spec.num_devices();
    EnsureDeviceCounters(num_devices);

    // Degraded re-routing and the sparse live-bucket filter are mutually
    // exclusive by design: a filtered (dead) bucket never learns its
    // serving device, and a re-routing backend needs every bucket charged
    // to its server.  Healthy backends route in place, so the filter is
    // safe whenever the bucket space dwarfs the live records (grown
    // dynamic directories) — skipping dead buckets changes no results,
    // only the plan bookkeeping that was losing to the serial fast path.
    // Round-trip backends never filter: their liveness probe answers true
    // without asking, so it could drop nothing, while num_records() would
    // cost a round trip of its own.
    const bool rerouting = backend_.HasDegradedRouting();
    const bool sparse =
        !round_trips && !rerouting &&
        map_spec.TotalBuckets() >
            4 * std::max<std::uint64_t>(1, backend_.num_records());

    // Per-device shared scans over the overlapping queries: plan each
    // device's distinct buckets, make one pass per bucket, evaluate
    // every covering query against its records.  Below, q indexes the
    // overlapping queries (shared_hashed), not the representatives.
    const auto scan_start = Clock::now();
    std::vector<DeviceOutcome> outcomes(num_devices);
    auto run_device = [&](std::uint64_t d) {
      const auto device_start = Clock::now();
      const DeviceBatchPlan plan =
          sparse ? PlanDeviceBatch(
                       map, shared_hashed, d,
                       [&](std::uint64_t linear) {
                         return backend_.IsBucketLive(d, linear);
                       })
                 : PlanDeviceBatch(map, shared_hashed, d);
      DeviceOutcome& out = outcomes[d];
      const std::size_t num_shared = shared.size();
      out.qualified.assign(num_shared, 0);
      out.examined.assign(num_shared, 0);
      out.matched.resize(num_shared);
      // Resolve each scanned bucket's serving device once; the scan
      // itself already fetches from the right copy (backend_.ScanBucket
      // routes), so this is purely the accounting side of degraded mode.
      std::vector<std::uint32_t> server_of;
      if (rerouting) {
        out.rerouted.resize(num_shared);
        server_of.resize(plan.scan_buckets.size());
        for (std::size_t s = 0; s < plan.scan_buckets.size(); ++s) {
          server_of[s] = static_cast<std::uint32_t>(
              backend_.ServingDevice(d, plan.scan_buckets[s]));
          if (server_of[s] != d) ++out.reroutes;
        }
      }
      // Gather every planned bucket ONCE with the device's batch as a
      // single ScanMany scatter — a remote shard sees one frame per
      // chunk instead of one round trip per (bucket, covering slot) —
      // and evaluate every covering query inside the callback.  Scan
      // references die with the callback, so only owned copies of the
      // matches outlive it.  Fanned-out backends deliver distinct
      // indices concurrently: the callback writes only its own scan
      // index's state (a record count and one match list per covering
      // slot), and per-query totals are summed after the gather.  On
      // round-trip backends each ref also carries its covering queries,
      // so a remote shard filters where it reads and ships only the
      // matches plus a count of what it skipped: examined stays
      // delivered + skipped, exactly what an unfiltered gather counts.
      std::vector<BucketRef> refs;
      refs.reserve(plan.scan_buckets.size());
      for (std::uint64_t linear : plan.scan_buckets) {
        refs.push_back({d, linear});
      }
      std::vector<ScanFilter> filters;
      if (round_trips) {
        filters.reserve(refs.size());
        for (std::size_t s = 0; s < refs.size(); ++s) {
          filters.push_back({shared_queries, plan.scan_queries[s]});
          refs[s].filter = &filters[s];
        }
      }
      std::vector<std::uint64_t> scan_records(refs.size(), 0);
      std::vector<std::vector<std::vector<Record>>> scan_matches(
          refs.size());
      for (std::size_t s = 0; s < refs.size(); ++s) {
        scan_matches[s].resize(plan.scan_queries[s].size());
      }
      scan_many_calls_.Increment();
      backend_.ScanMany(refs, [&](std::size_t s, const Record& record) {
        ++scan_records[s];
        const auto& covering = plan.scan_queries[s];
        for (std::size_t slot = 0; slot < covering.size(); ++slot) {
          if (RecordMatchesValueQuery(*shared_queries[covering[slot]],
                                      record)) {
            scan_matches[s][slot].push_back(record);
          }
        }
        return true;
      });
      for (std::size_t s = 0; s < filters.size(); ++s) {
        scan_records[s] += filters[s].skipped;
      }
      // Reassemble each query's matches in its solo enumeration order.
      // qualified_counts (not slot counts) feed the stats: a sparse plan
      // filters dead buckets out of the scan list but solo Execute still
      // counts them; a re-routing backend instead splits each count
      // between this device and the server that actually fetched.
      std::uint64_t device_examined = 0;
      for (std::size_t q = 0; q < num_shared; ++q) {
        if (plan.qualified_counts[q] > 0) ++out.routed_queries;
        if (rerouting) {
          auto& moved = out.rerouted[q];
          for (const auto& [scan, slot] : plan.query_slots[q]) {
            (void)slot;
            const std::uint32_t server = server_of[scan];
            if (server == static_cast<std::uint32_t>(d)) {
              ++out.qualified[q];
              continue;
            }
            auto it = std::find_if(
                moved.begin(), moved.end(),
                [server](const auto& p) { return p.first == server; });
            if (it == moved.end()) {
              moved.emplace_back(server, 1);
            } else {
              ++it->second;
            }
          }
        } else {
          out.qualified[q] = plan.qualified_counts[q];
        }
        for (const auto& [scan, slot] : plan.query_slots[q]) {
          out.examined[q] += scan_records[scan];
          AppendMoved(out.matched[q], scan_matches[scan][slot]);
        }
        device_examined += out.examined[q];
      }
      out.buckets_scanned = plan.scan_buckets.size();
      out.busy_ms = MillisSince(device_start);
      // Fetch the cell pointer under the vector lock; the cell itself is
      // atomic and outlives any growth.
      DeviceCounters* counters;
      {
        std::shared_lock<std::shared_mutex> lock(counters_mutex_);
        counters = device_counters_[d].get();
      }
      counters->bucket_scans.Increment(out.buckets_scanned);
      counters->records_examined.Increment(device_examined);
      counters->routed_queries.Increment(out.routed_queries);
      counters->degraded_reroutes.Increment(out.reroutes);
      counters->busy_nanos.Increment(
          static_cast<std::uint64_t>(out.busy_ms * 1e6));
    };
    if (pool_.num_threads() > 1 && num_devices > 1) {
      pool_.ParallelFor(num_devices, run_device);
    } else {
      for (std::uint64_t d = 0; d < num_devices; ++d) run_device(d);
    }
    const double scan_wall_ms = MillisSince(scan_start);

    // ScanBucket cannot report errors, so a backend that lost storage
    // mid-sweep (remote shard past its retry budget, poisoned composite)
    // silently contributed nothing.  Re-check health and fail the batch
    // instead of returning partial results.
    FXDIST_RETURN_NOT_OK(backend_.Health());

    // Merge per-device shares into per-representative results.
    for (std::uint64_t d = 0; d < num_devices; ++d) {
      performed += outcomes[d].buckets_scanned;
    }
    for (std::size_t q = 0; q < shared.size(); ++q) {
      QueryResult& result = rep_results[shared[q]];
      QueryStats& stats = result.stats;
      stats.qualified_per_device.assign(num_devices, 0);
      stats.device_wall_ms.assign(num_devices, 0.0);
      for (std::uint64_t d = 0; d < num_devices; ++d) {
        const DeviceOutcome& out = outcomes[d];
        stats.qualified_per_device[d] += out.qualified[q];
        if (!out.rerouted.empty()) {
          // Degraded mode: charge re-routed buckets to their servers,
          // the same accounting the backend's own Execute reports.
          for (const auto& [server, count] : out.rerouted[q]) {
            stats.qualified_per_device[server] += count;
          }
        }
        stats.device_wall_ms[d] = out.busy_ms;
        stats.records_examined += out.examined[q];
        stats.records_matched += out.matched[q].size();
      }
      for (std::uint64_t d = 0; d < num_devices; ++d) {
        AppendMoved(result.records, outcomes[d].matched[q]);
      }
      FinishQueryStats(map_spec, shared_hashed[q], &stats);
      stats.wall_ms = scan_wall_ms;
      examined_total += stats.records_examined;
      matched_total += stats.records_matched;
    }
    return Status::OK();
  };

  for (int tries = 0;; ++tries) {
    const std::uint64_t version = backend_.TopologyVersion();
    if (Status st = attempt(); !st.ok()) {
      queries_failed_.Increment(batch.size());
      return st;
    }
    if (backend_.TopologyVersion() == version) break;
    topology_retries_.Increment();
    if (tries + 1 >= kMaxTopologyRetries) {
      queries_failed_.Increment(batch.size());
      return Status::Unavailable(
          "topology kept changing while the batch executed; resubmit");
    }
  }

  solo_queries_.Increment(solo.size());
  bucket_scans_requested_.Increment(requested);
  bucket_scans_performed_.Increment(performed);
  records_examined_.Increment(examined_total);
  records_matched_.Increment(matched_total);
  queries_completed_.Increment(batch.size());
  batch_latency_.Record(MicrosSince(start));

  // Expand representatives back to batch order (duplicates copy, the
  // representative's own slot takes the original by move).
  std::vector<QueryResult> results(batch.size());
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    if (reps[rep_of[i]] != i) results[i] = rep_results[rep_of[i]];
  }
  for (std::uint32_t j = 0; j < reps.size(); ++j) {
    results[reps[j]] = std::move(rep_results[j]);
  }
  const double micros = MicrosSince(start);
  for (std::size_t i = 0; i < batch.size(); ++i) query_latency_.Record(micros);
  return results;
}

void QueryEngine::EnsureDeviceCounters(std::uint64_t count) {
  {
    std::shared_lock<std::shared_mutex> lock(counters_mutex_);
    if (device_counters_.size() >= count) return;
  }
  std::unique_lock<std::shared_mutex> lock(counters_mutex_);
  while (device_counters_.size() < count) {
    device_counters_.push_back(std::make_unique<DeviceCounters>());
  }
}

StatsSnapshot QueryEngine::Snapshot() const {
  StatsSnapshot snap;
  snap.queries_completed = queries_completed_.Value();
  snap.queries_failed = queries_failed_.Value();
  snap.batches_executed = batches_executed_.Value();
  snap.max_batch_size =
      static_cast<std::uint64_t>(max_batch_size_seen_.Value());
  snap.duplicates_collapsed = duplicates_collapsed_.Value();
  snap.solo_queries = solo_queries_.Value();
  snap.bucket_scans_requested = bucket_scans_requested_.Value();
  snap.bucket_scans_performed = bucket_scans_performed_.Value();
  snap.scan_many_calls = scan_many_calls_.Value();
  snap.records_examined = records_examined_.Value();
  snap.records_matched = records_matched_.Value();
  snap.topology_retries = topology_retries_.Value();
  snap.topology_version = backend_.TopologyVersion();
  snap.migrating_buckets = backend_.BucketsInMigration();
  snap.uptime_ms = MillisSince(start_);
  snap.query_latency = query_latency_.Snapshot();
  snap.batch_latency = batch_latency_.Snapshot();
  std::shared_lock<std::shared_mutex> counters_lock(counters_mutex_);
  snap.devices.reserve(device_counters_.size());
  for (const auto& counters : device_counters_) {
    DeviceStats device;
    device.bucket_scans = counters->bucket_scans.Value();
    device.records_examined = counters->records_examined.Value();
    device.routed_queries = counters->routed_queries.Value();
    device.degraded_reroutes = counters->degraded_reroutes.Value();
    device.busy_ms =
        static_cast<double>(counters->busy_nanos.Value()) / 1e6;
    device.utilization =
        snap.uptime_ms <= 0.0 ? 0.0 : device.busy_ms / snap.uptime_ms;
    snap.routed_queries += device.routed_queries;
    snap.degraded_reroutes += device.degraded_reroutes;
    snap.devices.push_back(device);
  }
  return snap;
}

}  // namespace fxdist
