#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

/// Innermost span this (non-client) thread has open.
thread_local std::uint64_t tl_open = 0;

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::uint64_t Tracer::NowNs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  span_.name = name;
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  client_ = tracer.OnClientThread();
  if (client_) {
    saved_ = tracer.client_open_.load(std::memory_order_relaxed);
    span_.parent = saved_;
    if (saved_ == 0) tracer.request_.store(span_.id, std::memory_order_release);
    tracer.client_open_.store(span_.id, std::memory_order_release);
  } else {
    saved_ = tl_open;
    span_.parent = saved_ != 0
                       ? saved_
                       : tracer.client_open_.load(std::memory_order_acquire);
    tl_open = span_.id;
  }
  span_.request = tracer.request_.load(std::memory_order_acquire);
  span_.start_ns = tracer.NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->NowNs();
  if (client_) {
    tracer_->client_open_.store(saved_, std::memory_order_release);
    if (saved_ == 0) tracer_->request_.store(0, std::memory_order_release);
  } else {
    tl_open = saved_;
  }
  tracer_->Record(span_);
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"count\":%llu}\n",
                 s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.count));
  }
  return std::fclose(out) == 0;
}

TracedBackend::Names TracedBackend::NamesFor(Boundary boundary) {
  switch (boundary) {
    case Boundary::kLocalStorage:
      return {"sim.scan", "sim.execute", "sim.insert",
              "sim.probe", "sim.hash",   nullptr};
    case Boundary::kRemoteClient:
      return {"net.call.scan",  "net.call.execute", "net.call.insert",
              "net.call.probe", "sim.hash",         "net.call.count"};
    case Boundary::kServedStorage:
      break;
  }
  return {"net.server.scan",  "net.server.execute", "net.server.insert",
          "net.server.probe", "net.server.hash",    nullptr};
}

TracedBackend::TracedBackend(fxdist::StorageBackend& inner, Tracer& tracer,
                             Boundary boundary)
    : inner_(inner), tracer_(tracer), names_(NamesFor(boundary)) {}

void TracedBackend::ArmGate() {
  std::lock_guard<std::mutex> lock(gate_mutex_);
  gate_held_ = false;
  gate_released_ = false;
  gate_armed_.store(true, std::memory_order_release);
}

bool TracedBackend::WaitGateHeld(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(gate_mutex_);
  const bool held =
      gate_cv_.wait_for(lock, timeout, [this] { return gate_held_; });
  if (!held) gate_armed_.store(false, std::memory_order_release);
  return held;
}

void TracedBackend::ReleaseGate() {
  std::lock_guard<std::mutex> lock(gate_mutex_);
  gate_released_ = true;
  gate_cv_.notify_all();
}

std::uint64_t TracedBackend::MutationEpoch() const {
  if (gate_armed_.load(std::memory_order_acquire) &&
      !tracer_.OnClientThread()) {
    std::unique_lock<std::mutex> lock(gate_mutex_);
    if (gate_armed_.load(std::memory_order_acquire)) {
      gate_armed_.store(false, std::memory_order_release);
      gate_held_ = true;
      gate_cv_.notify_all();
      gate_cv_.wait(lock, [this] { return gate_released_; });
    }
  }
  return inner_.MutationEpoch();
}

std::uint64_t TracedBackend::num_records() const {
  if (names_.count == nullptr) return inner_.num_records();
  Tracer::Scope span(tracer_, names_.count);
  return inner_.num_records();
}

fxdist::Status TracedBackend::Insert(fxdist::Record record) {
  Tracer::Scope span(tracer_, names_.insert);
  span.set_count(1);
  return inner_.Insert(std::move(record));
}

fxdist::Status TracedBackend::InsertBatch(std::vector<fxdist::Record> records) {
  Tracer::Scope span(tracer_, names_.insert);
  span.set_count(records.size());
  return inner_.InsertBatch(std::move(records));
}

fxdist::Result<fxdist::PartialMatchQuery> TracedBackend::HashQuery(
    const fxdist::ValueQuery& query) const {
  Tracer::Scope span(tracer_, names_.hash);
  return inner_.HashQuery(query);
}

bool TracedBackend::IsBucketLive(std::uint64_t device,
                                 std::uint64_t linear_bucket) const {
  Tracer::Scope span(tracer_, names_.probe);
  return inner_.IsBucketLive(device, linear_bucket);
}

void TracedBackend::ScanBucket(
    std::uint64_t device, std::uint64_t linear_bucket,
    const std::function<bool(const fxdist::Record&)>& fn) const {
  if (!tracer_.enabled()) return inner_.ScanBucket(device, linear_bucket, fn);
  Tracer::Scope span(tracer_, names_.scan);
  std::uint64_t records = 0;
  inner_.ScanBucket(device, linear_bucket,
                    [&records, &fn](const fxdist::Record& record) {
                      ++records;
                      return fn(record);
                    });
  span.set_count(records);
}

void TracedBackend::ScanMany(
    const std::vector<fxdist::BucketRef>& refs,
    const std::function<bool(std::size_t, const fxdist::Record&)>& fn) const {
  if (!tracer_.enabled()) return inner_.ScanMany(refs, fn);
  Tracer::Scope span(tracer_, names_.scan);
  // Distinct refs may be delivered concurrently (ScanMany's contract).
  std::atomic<std::uint64_t> records{0};
  inner_.ScanMany(refs, [&records, &fn](std::size_t index,
                                        const fxdist::Record& record) {
    records.fetch_add(1, std::memory_order_relaxed);
    return fn(index, record);
  });
  span.set_count(records.load(std::memory_order_relaxed));
}

fxdist::Result<fxdist::QueryResult> TracedBackend::Execute(
    const fxdist::ValueQuery& query) const {
  Tracer::Scope span(tracer_, names_.execute);
  auto result = inner_.Execute(query);
  if (result.ok()) span.set_count(result->stats.records_examined);
  return result;
}

fxdist::Result<std::string> TracedTransport::RoundTrip(
    const std::string& request) {
  Tracer::Scope span(tracer_, "net.roundtrip");
  auto reply = inner_->RoundTrip(request);
  span.set_count(request.size() + (reply.ok() ? reply->size() : 0));
  return reply;
}

}  // namespace perfbench
