// Partitionable bucket-range response sweeps — the analysis kernel of
// the distributed plane.
//
// The fig 1-4 sweeps ask, per unspecified-field set ("mask"), how the
// qualified buckets of one representative query spread across devices.
// For shift-invariant methods (FX / Modulo / GDM) one representative per
// mask is exact, and per-device *counts over a linear bucket range* are
// mergeable partials: counts over [a,b) plus counts over [b,c) are the
// counts over [a,c), integer-exact, in any merge order.  That is what
// lets a coordinator split one mask's sweep across N shard servers (the
// kAnalyzeRange opcode) and still reproduce the serial checker's
// integers bit for bit.
//
// What is *not* mergeable is the derived statistic (worst excess = max
// per-device count minus the strict-optimal floor): a max of partial
// maxes is not the max of sums.  So the wire carries only the raw
// per-device counts; FinalizeMaskSweep derives excess/optimality once
// after the merge, exactly as the serial path does.
//
// AnalyzeBucketRange is deliberately a free function over DeviceMap so
// the shard server (server-side sweep) and the serial checker run the
// *same* code on the *same* placement plane — bit-identical by
// construction, not by testing luck.

#ifndef FXDIST_ANALYSIS_RANGE_SWEEP_H_
#define FXDIST_ANALYSIS_RANGE_SWEEP_H_

#include <cstdint>
#include <vector>

#include "analysis/optimality.h"
#include "analysis/probability.h"
#include "analysis/scheme_search.h"
#include "core/device_map.h"
#include "core/field_spec.h"
#include "util/status.h"

namespace fxdist {

/// Per-device qualified-bucket counts of one mask's representative query
/// restricted to a linear bucket range — the unit the wire carries.
struct RangePartial {
  std::vector<std::uint64_t> per_device;
  /// Qualified buckets in the range (== sum of per_device).
  std::uint64_t qualified = 0;
};

/// Counts, per device, the buckets of [start, end) that qualify for the
/// representative query of `unspecified_mask` (bit i set = field i
/// unspecified; specified fields pinned to 0).  `end` is exclusive and
/// must not exceed the spec's TotalBuckets; the mask must not have bits
/// at or beyond num_fields.  Works in both DeviceMap modes (precomputed
/// table or virtual fallback).
Result<RangePartial> AnalyzeBucketRange(const DeviceMap& map,
                                        std::uint64_t unspecified_mask,
                                        std::uint64_t start,
                                        std::uint64_t end);

/// Accumulates `part` into `*into` (element-wise sum).  InvalidArgument
/// on a device-arity mismatch; an empty `*into` adopts part's arity.
Status MergeRangePartial(RangePartial* into, const RangePartial& part);

/// One mask's merged sweep, finalized to the serial checker's terms.
struct MaskSweepStats {
  std::uint64_t unspecified_mask = 0;
  /// Merged per-device counts — ComputeResponseVector's integers.
  ResponseVector response;
  std::uint64_t qualified = 0;     ///< |R(q)|
  std::uint64_t bound = 0;         ///< ceil(|R(q)| / M), the strict floor
  std::uint64_t worst_excess = 0;  ///< max(response) - bound, clamped at 0
  bool strict_optimal = false;     ///< worst_excess == 0
};

/// Derives bound/excess/optimality from a fully merged partial.  The
/// caller asserts the merge covered the whole bucket space; qualified is
/// cross-checked against the closed form (product of unspecified sizes)
/// and a mismatch — a lost or duplicated range — is DataLoss.
Result<MaskSweepStats> FinalizeMaskSweep(const FieldSpec& spec,
                                         std::uint64_t unspecified_mask,
                                         const RangePartial& merged);

/// Folds per-mask sweeps into the fig 1-4 probability structure, with
/// the same weighting as OptimalityProbabilityOver (p^{#specified} *
/// (1-p)^{#unspecified} per mask).  The sweep list must cover each mask
/// at most once.
OptimalityProbability SweepOptimality(const FieldSpec& spec,
                                      const std::vector<MaskSweepStats>& masks,
                                      double specified_probability = 0.5);

/// Folds per-mask sweeps into scheme_search's score.  Valid for
/// shift-invariant methods only: each mask's representative stands for
/// (product of specified sizes) identical-excess queries, which is what
/// `queries` and `total_excess` count — the same totals ScoreScheme gets
/// by enumerating every specified-value combination.
AllocationScore SweepScore(const FieldSpec& spec,
                           const std::vector<MaskSweepStats>& masks);

}  // namespace fxdist

#endif  // FXDIST_ANALYSIS_RANGE_SWEEP_H_
