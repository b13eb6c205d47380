// RemoteBackend over a real socket: ConnectTcp's one client shape (a
// MuxTransport on a SocketFrameChannel) against an EventShardServer on
// loopback.  Engine batches and Execute must equal the served file,
// malformed addresses fail before any dial, a restarted server is
// reached again through the channel's Reset, and a connection lost after
// an untagged insert went out is DataLoss: the insert may have executed,
// so it is never sent again, not even to a server restarted on the same
// port.

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/query_engine.h"
#include "net/event_shard_server.h"
#include "net/remote_backend.h"
#include "sim/parallel_file.h"
#include "workload/query_gen.h"
#include "workload/record_gen.h"

namespace fxdist {
namespace {

constexpr std::uint64_t kDevices = 4;
constexpr std::uint64_t kSeed = 23;

Schema TestSchema() {
  return Schema::Create({{"f0", ValueType::kInt64, 8},
                         {"f1", ValueType::kInt64, 8}})
      .value();
}

ParallelFile EmptyFile() {
  return ParallelFile::Create(TestSchema(), kDevices, "fx-iu2", kSeed)
      .value();
}

std::string Address(const EventShardServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

// The deterministic face of QueryStats; wall-clock fields are excluded.
void ExpectSameResult(const QueryResult& a, const QueryResult& b,
                      const std::string& context) {
  EXPECT_EQ(a.records, b.records) << context;
  EXPECT_EQ(a.stats.qualified_per_device, b.stats.qualified_per_device)
      << context;
  EXPECT_EQ(a.stats.total_qualified, b.stats.total_qualified) << context;
  EXPECT_EQ(a.stats.largest_response, b.stats.largest_response) << context;
  EXPECT_EQ(a.stats.optimal_bound, b.stats.optimal_bound) << context;
  EXPECT_EQ(a.stats.strict_optimal, b.stats.strict_optimal) << context;
  EXPECT_EQ(a.stats.records_examined, b.stats.records_examined) << context;
  EXPECT_EQ(a.stats.records_matched, b.stats.records_matched) << context;
}

struct LoadedFile {
  ParallelFile file = EmptyFile();
  std::vector<ValueQuery> queries;
};

LoadedFile Loaded(std::size_t num_records, std::size_t num_queries) {
  LoadedFile loaded;
  auto gen = RecordGenerator::Uniform(TestSchema(), kSeed).value();
  const std::vector<Record> records = gen.Take(num_records);
  for (const Record& record : records) {
    EXPECT_TRUE(loaded.file.Insert(record).ok());
  }
  auto qgen = QueryGenerator::Create(&records, 0.5, kSeed + 1).value();
  while (loaded.queries.size() < num_queries) {
    loaded.queries.push_back(qgen.Next());
  }
  return loaded;
}

TEST(RemoteTcpTest, EngineBatchesAndExecuteMatchTheServedFile) {
  LoadedFile served = Loaded(400, 24);
  auto server = EventShardServer::Start(served.file).value();
  auto remote = RemoteBackend::ConnectTcp(Address(*server));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ((*remote)->num_records(), served.file.num_records());

  for (std::size_t i = 0; i < served.queries.size(); ++i) {
    auto got = (*remote)->Execute(served.queries[i]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResult(*got, served.file.Execute(served.queries[i]).value(),
                     "Execute " + std::to_string(i));
  }
  for (const unsigned threads : {1u, 2u}) {
    EngineOptions options;
    options.num_threads = threads;
    QueryEngine engine(**remote, options);
    auto results = engine.ExecuteBatch(served.queries);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    for (std::size_t i = 0; i < served.queries.size(); ++i) {
      ExpectSameResult((*results)[i],
                       served.file.Execute(served.queries[i]).value(),
                       "threads=" + std::to_string(threads) + " query " +
                           std::to_string(i));
    }
  }
}

TEST(RemoteTcpTest, MalformedAddressFailsWithoutDialing) {
  for (const char* address : {"nohost", "127.0.0.1:0", "127.0.0.1:70000"}) {
    auto remote = RemoteBackend::ConnectTcp(address);
    ASSERT_FALSE(remote.ok()) << address;
    EXPECT_EQ(remote.status().code(), StatusCode::kInvalidArgument)
        << address << ": " << remote.status().ToString();
  }
}

TEST(RemoteTcpTest, ReadAfterTheServerRestartsReconnects) {
  LoadedFile served = Loaded(200, 1);
  const ValueQuery& query = served.queries.front();
  auto server = EventShardServer::Start(served.file).value();
  const std::uint16_t port = server->port();
  auto remote = RemoteBackend::ConnectTcp(Address(*server));
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ASSERT_TRUE((*remote)->Execute(query).ok());

  server->Stop();
  EventShardServer::Options options;
  options.port = port;
  auto restarted = EventShardServer::Start(served.file, options);
  if (!restarted.ok()) {
    GTEST_SKIP() << "port " << port << " could not be bound again: "
                 << restarted.status().ToString();
  }
  auto again = (*remote)->Execute(query);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ExpectSameResult(*again, served.file.Execute(query).value(), "restarted");
  EXPECT_TRUE((*remote)->Health().ok());
}

/// A flat file whose InsertBatch waits inside the backend until the test
/// opens the gate.
class GatedFile final : public ParallelFile {
 public:
  explicit GatedFile(ParallelFile file) : ParallelFile(std::move(file)) {}

  Status InsertBatch(std::vector<Record> records) override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    return ParallelFile::InsertBatch(std::move(records));
  }

  /// False when no InsertBatch arrived within ten seconds.
  bool WaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return entered_; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
};

/// Sends a one-record untagged InsertBatch through ConnectTcp and stops
/// the server while the insert waits inside `file`: the server closes the
/// connection, then the insert completes and its reply is dropped.  With
/// `restart`, a new server is started on the same port before the client
/// may retry (the client's first backoff sleep waits for it), and
/// `*restarted` says whether the port could be bound again.  Returns what
/// InsertBatch returned.
Status InsertWhileTheServerStops(GatedFile& file, bool restart,
                                 bool* restarted) {
  auto server = EventShardServer::Start(file);
  if (!server.ok()) return server.status();
  const std::uint16_t port = (*server)->port();

  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  RemoteBackend::Options options;
  if (restart) {
    options.sleep_fn = [&mutex, &cv, &released](std::uint64_t) {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return released; });
    };
  }
  auto remote = RemoteBackend::ConnectTcp(Address(**server), options);
  if (!remote.ok()) return remote.status();

  const std::int64_t a = 1;
  const std::int64_t b = 2;
  Record record;
  record.push_back(FieldValue{a});
  record.push_back(FieldValue{b});
  std::vector<Record> one;
  one.push_back(std::move(record));
  Status inserted = Status::Internal("insert never returned");
  std::thread client(
      [&] { inserted = (*remote)->InsertBatch(std::move(one)); });
  EXPECT_TRUE(file.WaitEntered());
  std::thread stopper([&server] { (*server)->Stop(); });
  // Stop closes every connection first, then waits for the insert.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*server)->Stats().cur_connections != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ((*server)->Stats().cur_connections, 0u);
  file.Open();
  stopper.join();

  std::unique_ptr<EventShardServer> next;
  if (restart) {
    EventShardServer::Options next_options;
    next_options.port = port;
    auto started = EventShardServer::Start(file, next_options);
    if (started.ok()) next = *std::move(started);
  }
  *restarted = next != nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  cv.notify_all();
  client.join();
  return inserted;
}

TEST(RemoteTcpTest, ConnectionLostAfterAnInsertWentOutIsDataLoss) {
  GatedFile file(EmptyFile());
  bool restarted = false;
  const Status inserted =
      InsertWhileTheServerStops(file, /*restart=*/false, &restarted);
  EXPECT_EQ(inserted.code(), StatusCode::kDataLoss) << inserted.ToString();
  EXPECT_EQ(file.num_records(), 1u);
}

TEST(RemoteTcpTest, ConnectionLostAfterAnInsertWentOutIsNotSentAgain) {
  GatedFile file(EmptyFile());
  bool restarted = false;
  const Status inserted =
      InsertWhileTheServerStops(file, /*restart=*/true, &restarted);
  if (!restarted) GTEST_SKIP() << "the port could not be bound again";
  EXPECT_EQ(inserted.code(), StatusCode::kDataLoss) << inserted.ToString();
  EXPECT_EQ(file.num_records(), 1u);
}

}  // namespace
}  // namespace fxdist
