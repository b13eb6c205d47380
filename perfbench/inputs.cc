#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

std::size_t QueryHash::operator()(const Query& q) const {
  std::uint64_t h = 0xcbf29ce484222325ull ^ q.wildcards;
  for (std::int64_t v : q.values) {
    h = (h ^ static_cast<std::uint64_t>(v)) * 0x100000001b3ull;
  }
  return static_cast<std::size_t>(h);
}

namespace {

std::uint64_t SplitMix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  for (auto& word : s_) word = SplitMix(seed);
}

std::uint64_t Rng::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::Below(std::uint64_t bound) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double Rng::Unit() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

Zipf::Zipf(std::size_t n, double theta) : cdf_(n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

fxdist::Result<fxdist::Schema> BenchSchema() {
  std::vector<fxdist::FieldDecl> fields;
  for (unsigned f = 0; f < kFields; ++f) {
    std::string name = "f";
    name += std::to_string(f);
    fields.push_back(
        {std::move(name), fxdist::ValueType::kInt64, kDirectorySize[f]});
  }
  return fxdist::Schema::Create(std::move(fields));
}

Row RandomRow(Rng& rng) {
  Row row{};
  for (unsigned f = 0; f < kFields; ++f) {
    row[f] = static_cast<std::int64_t>(
        rng.Below(static_cast<std::uint64_t>(kDomain[f])));
  }
  return row;
}

std::uint64_t QualifiedBuckets(const Query& q) {
  std::uint64_t n = 1;
  for (unsigned f = 0; f < kFields; ++f) {
    if (!q.specified(f)) n *= kDirectorySize[f];
  }
  return n;
}

std::uint32_t RandomWildcards(Rng& rng, std::uint64_t max_qualified) {
  for (;;) {
    Query q;
    for (unsigned f = 0; f < kFields; ++f) {
      if (rng.Next() & 1u) q.wildcards |= 1u << f;
    }
    if (QualifiedBuckets(q) <= max_qualified) return q.wildcards;
  }
}

Query QueryFromRow(Rng& rng, const std::vector<Row>& rows,
                   std::uint32_t wildcards) {
  Query q;
  q.wildcards = wildcards;
  const Row& source = rows[rng.Below(rows.size())];
  for (unsigned f = 0; f < kFields; ++f) {
    if (q.specified(f)) q.values[f] = source[f];
  }
  return q;
}

Query RandomQuery(Rng& rng, const std::vector<Row>& rows,
                  std::uint64_t max_qualified) {
  const std::uint32_t wildcards = RandomWildcards(rng, max_qualified);
  return QueryFromRow(rng, rows, wildcards);
}

Query DistinctQuery(Rng& rng, const std::vector<Row>& rows,
                    std::uint64_t max_qualified,
                    std::unordered_set<Query, QueryHash>& seen) {
  for (;;) {
    Query q = RandomQuery(rng, rows, max_qualified);
    if (seen.insert(q).second) return q;
  }
}

fxdist::Record ToRecord(const Row& row) {
  fxdist::Record record;
  record.reserve(kFields);
  for (std::int64_t v : row) record.emplace_back(v);
  return record;
}

fxdist::ValueQuery ToValueQuery(const Query& q) {
  fxdist::ValueQuery query(kFields);
  for (unsigned f = 0; f < kFields; ++f) {
    if (q.specified(f)) query[f].emplace(q.values[f]);
  }
  return query;
}

}  // namespace perfbench
