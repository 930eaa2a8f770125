// Tests for the staged TCP front-end: wire-protocol framing (torn reads,
// oversized frames, partial writes), end-to-end query/prepare/execute over
// a real socket, admission-control shedding and fairness, chaos behavior
// (mid-query disconnects, slow-loris), and bounded shutdown.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "server/database.h"

namespace stagedb::net {
namespace {

using catalog::Value;
using server::Database;
using server::DatabaseOptions;
using server::ExecutionMode;
using server::QueryResult;

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

TEST(WireTest, FrameRoundTripAllTypes) {
  const FrameType types[] = {FrameType::kQuery, FrameType::kPrepare,
                             FrameType::kExecute, FrameType::kResult,
                             FrameType::kError};
  FrameReader reader;
  for (FrameType type : types) {
    std::string encoded = EncodeFrame(type, "payload");
    reader.Feed(encoded.data(), encoded.size());
    auto frame = reader.Next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, type);
    EXPECT_EQ(frame->payload, "payload");
  }
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.error().ok());
}

TEST(WireTest, ZeroLengthPayload) {
  FrameReader reader;
  std::string encoded = EncodeFrame(FrameType::kQuery, "");
  EXPECT_EQ(encoded.size(), kFrameHeaderBytes);
  reader.Feed(encoded.data(), encoded.size());
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kQuery);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(WireTest, TornReadsByteByByte) {
  // Two frames delivered one byte at a time: the reader must produce exactly
  // both, each only once the final byte lands.
  std::string stream = EncodeFrame(FrameType::kQuery, "SELECT 1") +
                       EncodeFrame(FrameType::kError, "boom");
  FrameReader reader;
  std::vector<Frame> frames;
  for (char c : stream) {
    reader.Feed(&c, 1);
    while (auto frame = reader.Next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].payload, "SELECT 1");
  EXPECT_EQ(frames[1].payload, "boom");
}

TEST(WireTest, OversizedFramePoisonsReader) {
  FrameReader reader(/*max_frame_bytes=*/64);
  std::string encoded = EncodeFrame(FrameType::kQuery, std::string(100, 'x'));
  reader.Feed(encoded.data(), encoded.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.error().code(), StatusCode::kCorruption);
  // Poisoned for good: further feeds produce nothing.
  std::string ok = EncodeFrame(FrameType::kQuery, "x");
  reader.Feed(ok.data(), ok.size());
  EXPECT_FALSE(reader.Next().has_value());
}

TEST(WireTest, UnknownFrameTypeRejected) {
  FrameReader reader;
  std::string encoded = EncodeFrame(FrameType::kQuery, "x");
  encoded[4] = 99;  // corrupt the type byte
  reader.Feed(encoded.data(), encoded.size());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_EQ(reader.error().code(), StatusCode::kCorruption);
}

TEST(WireTest, ResultPayloadRoundTrip) {
  QueryResult result;
  result.plan_text = "SeqScan(t)";
  result.schema = catalog::Schema({{"a", catalog::TypeId::kInt64, "t"},
                                   {"b", catalog::TypeId::kVarchar, ""}});
  result.rows.push_back({Value::Int(42), Value::Varchar("hello")});
  result.rows.push_back({Value::Null(), Value::Varchar("")});
  auto decoded = DecodeResultPayload(EncodeRowsPayload(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->prepared);
  EXPECT_EQ(decoded->result.plan_text, "SeqScan(t)");
  ASSERT_EQ(decoded->result.schema.num_columns(), 2u);
  EXPECT_EQ(decoded->result.schema.column(0).name, "t.a");
  ASSERT_EQ(decoded->result.rows.size(), 2u);
  EXPECT_EQ(decoded->result.rows[0][0].int_value(), 42);
  EXPECT_EQ(decoded->result.rows[0][1].varchar_value(), "hello");
  EXPECT_TRUE(decoded->result.rows[1][0].is_null());
}

TEST(WireTest, PreparedAndErrorAndExecutePayloads) {
  auto prepared = DecodeResultPayload(EncodePreparedPayload(7, 2));
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->prepared);
  EXPECT_EQ(prepared->stmt_id, 7u);
  EXPECT_EQ(prepared->num_params, 2u);

  Status original = Status::NotFound("no such thing");
  Status decoded = DecodeErrorPayload(EncodeErrorPayload(original));
  EXPECT_EQ(decoded.code(), StatusCode::kNotFound);
  EXPECT_EQ(decoded.message(), "no such thing");

  auto exec = DecodeExecutePayload(EncodeExecutePayload(
      9, {Value::Int(1), Value::Double(2.5), Value::Varchar("x"),
          Value::Bool(true), Value::Null()}));
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->stmt_id, 9u);
  ASSERT_EQ(exec->params.size(), 5u);
  EXPECT_EQ(exec->params[1].double_value(), 2.5);
  EXPECT_TRUE(exec->params[4].is_null());
}

TEST(WireTest, TruncatedPayloadsAreCorruption) {
  std::string rows = EncodeRowsPayload(QueryResult{});
  EXPECT_EQ(DecodeResultPayload(rows.substr(0, rows.size() - 1))
                .status()
                .code(),
            StatusCode::kCorruption);
  std::string exec = EncodeExecutePayload(1, {Value::Varchar("abcdef")});
  EXPECT_EQ(DecodeExecutePayload(exec.substr(0, exec.size() - 3))
                .status()
                .code(),
            StatusCode::kCorruption);
}

TEST(WireTest, HugeClaimedCountsAreCorruptionNotAllocation) {
  // A 12-byte EXECUTE payload claiming 2^32-1 params must fail the bounds
  // checks, not attempt a multi-GB reserve (std::bad_alloc on a server
  // stage worker would std::terminate the whole process).
  std::string exec(8, '\0');                    // stmt_id = 0
  exec += std::string("\xFF\xFF\xFF\xFF", 4);   // nparams = 0xFFFFFFFF
  EXPECT_EQ(DecodeExecutePayload(exec).status().code(),
            StatusCode::kCorruption);

  // Same untrusted-count pattern client-side: RESULT claiming 2^32-1
  // columns...
  std::string cols(1, '\0');                    // kind 0 = rows
  cols += std::string(4, '\0');                 // plan_len = 0
  cols += std::string("\xFF\xFF\xFF\xFF", 4);   // ncols
  EXPECT_EQ(DecodeResultPayload(cols).status().code(),
            StatusCode::kCorruption);

  // ...or 2^32-1 rows, including the zero-column shape where a row encodes
  // to zero bytes and the decode loop itself would spin.
  std::string rows(1, '\0');                    // kind 0 = rows
  rows += std::string(4, '\0');                 // plan_len = 0
  rows += std::string(4, '\0');                 // ncols = 0
  rows += std::string("\xFF\xFF\xFF\xFF", 4);   // nrows
  EXPECT_EQ(DecodeResultPayload(rows).status().code(),
            StatusCode::kCorruption);
}

TEST(WireTest, OutputBufferResumesPartialWritesOnEagain) {
  // A socketpair with a tiny send buffer forces short writes; the buffer
  // must resume exactly where it left off and deliver every byte in order.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  int small = 4096;
  setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));

  std::string payload;
  for (int i = 0; i < 64 * 1024; ++i) payload.push_back(static_cast<char>(i));
  OutputBuffer out;
  out.Append(payload.substr(0, 10));
  out.Append(payload.substr(10));

  std::string received;
  int flushes = 0;
  while (!out.empty()) {
    size_t written = 0;
    OutputBuffer::FlushResult res = out.Flush(fds[0], &written);
    ASSERT_NE(res, OutputBuffer::FlushResult::kError);
    ++flushes;
    if (res == OutputBuffer::FlushResult::kWouldBlock) {
      char buf[8192];
      ssize_t n = read(fds[1], buf, sizeof(buf));
      ASSERT_GT(n, 0);
      received.append(buf, static_cast<size_t>(n));
    }
  }
  char buf[8192];
  ssize_t n;
  while ((n = read(fds[1], buf, sizeof(buf))) > 0)
    received.append(buf, static_cast<size_t>(n));
  EXPECT_GT(flushes, 1) << "send buffer too big to exercise partial writes";
  EXPECT_EQ(received, payload);
  close(fds[0]);
  close(fds[1]);
}

// ---------------------------------------------------------------------------
// End-to-end over a real socket
// ---------------------------------------------------------------------------

constexpr ExecutionMode kModes[] = {ExecutionMode::kStaged,
                                    ExecutionMode::kVolcano};

const char* ModeName(ExecutionMode mode) {
  return mode == ExecutionMode::kStaged ? "staged" : "volcano";
}

class NetTest : public ::testing::Test {
 protected:
  /// Opens a database in `mode` and listens on it, replacing any server a
  /// previous call started.
  void StartServer(NetServerOptions options = {},
                   ExecutionMode mode = ExecutionMode::kStaged) {
    srv_.reset();
    DatabaseOptions dbo;
    dbo.mode = mode;
    auto db = Database::Open(dbo);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    ASSERT_TRUE(db_->Execute("CREATE TABLE t (a INTEGER, b INTEGER)").ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                               ", " + std::to_string(i % 3) + ")")
                      .ok());
    }
    options.port = 0;
    auto srv = NetServer::Start(db_.get(), options);
    ASSERT_TRUE(srv.ok()) << srv.status().ToString();
    srv_ = std::move(*srv);
  }

  std::unique_ptr<Client> Connect() {
    auto client = Client::Connect("127.0.0.1", srv_->port());
    EXPECT_TRUE(client.ok());
    return client.ok() ? std::move(*client) : nullptr;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<NetServer> srv_;
};

// The round-trip cases run in both modes: a volcano EXECUTE runs inline on
// the dispatch stage, a staged one completes on an engine worker.
TEST_F(NetTest, QueryRoundTrip) {
  for (const ExecutionMode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    StartServer({}, mode);
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    auto result = client->Query("SELECT COUNT(*) FROM t");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 1u);
    EXPECT_EQ(result->rows[0][0].int_value(), 10);
    EXPECT_EQ(srv_->GetStats().ok_responses, 1);
  }
}

TEST_F(NetTest, MalformedSqlPropagatesAsError) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto result = client->Query("SELEKT broken");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // The connection survives a per-query error.
  EXPECT_TRUE(client->Query("SELECT COUNT(*) FROM t").ok());
}

TEST_F(NetTest, PrepareExecuteWithParams) {
  for (const ExecutionMode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    StartServer({}, mode);
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    auto prep = client->Prepare("SELECT COUNT(*) FROM t WHERE a < ?");
    ASSERT_TRUE(prep.ok()) << prep.status().ToString();
    EXPECT_EQ(prep->num_params, 1u);
    for (int i = 0; i <= 10; ++i) {
      auto result = client->Execute(prep->stmt_id, {Value::Int(i)});
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->rows[0][0].int_value(), i);
    }
    // Wrong arity and unknown handle are per-request errors.
    EXPECT_FALSE(client->Execute(prep->stmt_id, {}).ok());
    auto missing = client->Execute(prep->stmt_id + 100, {Value::Int(1)});
    EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
    EXPECT_TRUE(client->Query("SELECT COUNT(*) FROM t").ok());
  }
}

TEST_F(NetTest, OversizedFrameGetsErrorThenClose) {
  NetServerOptions options;
  options.max_frame_bytes = 1024;
  StartServer(options);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->SendQuery(std::string(4096, 'x')).ok());
  auto resp = client->ReadResponse();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kCorruption);
  // After the ERROR drains the server closes the connection.
  auto next = client->ReadResponse(2000);
  EXPECT_EQ(next.status().code(), StatusCode::kIOError);
  EXPECT_GE(srv_->GetStats().protocol_errors, 1);
}

TEST_F(NetTest, ClientSentServerFrameIsProtocolError) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->SendRaw(EncodeFrame(FrameType::kResult, "junk")).ok());
  auto resp = client->ReadResponse();
  EXPECT_EQ(resp.status().code(), StatusCode::kCorruption);
}

TEST_F(NetTest, PipelinedResponsesArriveInOrder) {
  for (const ExecutionMode mode : kModes) {
    SCOPED_TRACE(ModeName(mode));
    StartServer({}, mode);
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    // Distinguishable answers: COUNT(*) WHERE a < k == k.
    constexpr int kDepth = 8;
    for (int k = 1; k <= kDepth; ++k) {
      ASSERT_TRUE(
          client
              ->SendQuery("SELECT COUNT(*) FROM t WHERE a < " +
                          std::to_string(k))
              .ok());
    }
    for (int k = 1; k <= kDepth; ++k) {
      auto resp = client->ReadResponse();
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      EXPECT_EQ(resp->result.rows[0][0].int_value(), k)
          << "response " << k << " out of order";
    }
  }
}

TEST_F(NetTest, AdmissionControlShedsWithResourceExhausted) {
  NetServerOptions options;
  options.max_inflight_per_conn = 1;
  options.pending_per_conn = 0;  // no queueing: shed immediately at the cap
  StartServer(options);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i)
    ASSERT_TRUE(client->SendQuery("SELECT COUNT(*) FROM t").ok());
  int ok = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto resp = client->ReadResponse();
    if (resp.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(resp.status().code(), StatusCode::kResourceExhausted)
          << resp.status().ToString();
      ++shed;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1) << "burst of 16 at inflight cap 1 must shed something";
  EXPECT_EQ(srv_->GetStats().shed_queries, shed);
}

TEST_F(NetTest, PendingQueueSmoothsBurstsWithoutShedding) {
  NetServerOptions options;
  options.max_inflight_per_conn = 1;
  options.pending_per_conn = 32;  // deep enough for the whole burst
  StartServer(options);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  constexpr int kBurst = 16;
  for (int i = 0; i < kBurst; ++i)
    ASSERT_TRUE(client->SendQuery("SELECT COUNT(*) FROM t").ok());
  for (int i = 0; i < kBurst; ++i) {
    auto resp = client->ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }
  EXPECT_EQ(srv_->GetStats().shed_queries, 0);
}

TEST_F(NetTest, FairDequeueServesLightClientUnderFlood) {
  NetServerOptions options;
  options.max_inflight_queries = 2;
  options.max_inflight_per_conn = 2;
  options.pending_per_conn = 64;
  StartServer(options);
  auto flooder = Connect();
  auto light = Connect();
  ASSERT_NE(flooder, nullptr);
  ASSERT_NE(light, nullptr);
  // The flooder floods far past the global budget; everything queues on its
  // pending list. The light client's single query must not starve behind it.
  constexpr int kFlood = 48;
  for (int i = 0; i < kFlood; ++i)
    ASSERT_TRUE(flooder->SendQuery("SELECT b, COUNT(*) FROM t GROUP BY b")
                    .ok());
  auto result = light->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].int_value(), 10);
  int flooder_ok = 0;
  for (int i = 0; i < kFlood; ++i) {
    auto resp = flooder->ReadResponse();
    if (resp.ok()) ++flooder_ok;
  }
  EXPECT_GE(flooder_ok, 1);
}

TEST_F(NetTest, MidQueryDisconnectDropsLateResult) {
  StartServer();
  for (int i = 0; i < 4; ++i) {
    auto client = Connect();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->SendQuery("SELECT b, COUNT(*) FROM t GROUP BY b")
                    .ok());
    client->CloseNow();
  }
  // The server must stay healthy and must not deliver those results
  // anywhere (counted as dropped, not crashed).
  auto control = Connect();
  ASSERT_NE(control, nullptr);
  EXPECT_TRUE(control->Query("SELECT COUNT(*) FROM t").ok());
  for (int spin = 0; spin < 100; ++spin) {
    if (srv_->GetStats().active <= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(srv_->GetStats().active, 1);
}

TEST_F(NetTest, SlowLorisIdleTimeoutClosesConnection) {
  NetServerOptions options;
  options.idle_timeout_ms = 200;
  StartServer(options);
  auto loris = Connect();
  ASSERT_NE(loris, nullptr);
  // A torn frame prefix, then silence: the idle scan must reap it.
  ASSERT_TRUE(loris->SendRaw(std::string("\x10\x00", 2)).ok());
  auto resp = loris->ReadResponse(5000);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kIOError)
      << "expected the server to close the idle connection, got "
      << resp.status().ToString();
  EXPECT_GE(srv_->GetStats().closed_idle, 1);
}

TEST_F(NetTest, HugeClaimedParamCountIsAPerRequestError) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  // A malicious EXECUTE claiming 2^32-1 params in 12 bytes: the server must
  // answer a Corruption ERROR and keep both the process and the connection
  // alive (pre-hardening this was a remote crash via std::bad_alloc).
  std::string payload(8, '\0');
  payload += std::string("\xFF\xFF\xFF\xFF", 4);
  ASSERT_TRUE(client->SendRaw(EncodeFrame(FrameType::kExecute, payload)).ok());
  auto resp = client->ReadResponse();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kCorruption)
      << resp.status().ToString();
  EXPECT_TRUE(client->Query("SELECT COUNT(*) FROM t").ok());
}

TEST_F(NetTest, OversizedResultAnsweredWithErrorNotPoisonFrame) {
  NetServerOptions options;
  options.max_frame_bytes = 1024;
  StartServer(options);
  // ~210 rows of (a, b) encode well past the 1 KiB frame limit.
  for (int i = 0; i < 200; ++i)
    ASSERT_TRUE(db_->Execute("INSERT INTO t VALUES (100, 1)").ok());
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto big = client->Query("SELECT a, b FROM t");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kInvalidArgument)
      << big.status().ToString();
  // The session survives: the server sent a parseable ERROR, not a RESULT
  // frame the client-side reader would reject as corruption.
  auto small = client->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_EQ(small->rows[0][0].int_value(), 210);
  EXPECT_GE(srv_->GetStats().oversized_results, 1);
}

TEST_F(NetTest, UnreadOutputPastBoundClosesConnection) {
  NetServerOptions options;
  options.max_output_buffer_bytes = 64 << 10;
  StartServer(options);
  // 2000 rows of ~200 bytes: each result is ~420 KiB, under one frame, and
  // the burst below (~10 MB) outgrows the kernel's socket buffers (at most
  // 4 MiB of send buffer under Linux's default tcp_wmem).
  ASSERT_TRUE(db_->Execute("CREATE TABLE wide (k INTEGER, pad VARCHAR(200))")
                  .ok());
  const std::string pad(200, 'p');
  for (int batch = 0; batch < 40; ++batch) {
    std::string sql = "INSERT INTO wide VALUES ";
    for (int i = 0; i < 50; ++i) {
      if (i > 0) sql += ", ";
      sql += "(" + std::to_string(batch * 50 + i) + ", '" + pad + "')";
    }
    ASSERT_TRUE(db_->Execute(sql).ok());
  }

  // A raw client with a small receive buffer (set before connect, so the
  // advertised window stays small) pipelines every query the server admits
  // on one connection, then never reads.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(srv_->port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string burst;
  const size_t depth = options.max_inflight_per_conn + options.pending_per_conn;
  for (size_t i = 0; i < depth; ++i) {
    burst += EncodeFrame(FrameType::kQuery, "SELECT k, pad FROM wide");
  }
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (srv_->GetStats().closed_overflow == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(srv_->GetStats().closed_overflow, 1);
  ::close(fd);

  // Only the hoarding connection was cut: a second one is still answered.
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  auto result = client->Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].int_value(), 10);
}

TEST_F(NetTest, OutstandingRequestIsNotIdle) {
  NetServerOptions options;
  options.idle_timeout_ms = 200;
  options.max_inflight_queries = 0;  // admission parks every query forever
  options.pending_per_conn = 4;
  StartServer(options);
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->SendQuery("SELECT COUNT(*) FROM t").ok());
  // The query sits in the admission queue far past both the idle timeout
  // and the ~1 s idle-scan cadence with no socket bytes moving. A client
  // waiting on its own query must not be reaped as idle.
  auto resp = client->ReadResponse(1800);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kTimedOut)
      << "idle scan reaped a connection with a query in flight: "
      << resp.status().ToString();
  EXPECT_EQ(srv_->GetStats().closed_idle, 0);
}

TEST_F(NetTest, StopRacingNewConnectionsDoesNotHang) {
  StartServer();
  // Hammer the accept path from several threads while Stop tears the server
  // down: a connection slipping in between the shutdown check and teardown
  // used to park its tasks forever and wedge Stop.
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      while (!done.load()) {
        auto c = Client::Connect("127.0.0.1", srv_->port(), 1000);
        if (!c.ok()) continue;
        Status ignored = (*c)->SendQuery("SELECT COUNT(*) FROM t");
        (void)ignored;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto start = std::chrono::steady_clock::now();
  srv_->Stop(/*drain_deadline_ms=*/500);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  done.store(true);
  for (auto& t : threads) t.join();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30)
      << "Stop hung while racing new connections";
}

TEST_F(NetTest, ConnectionLimitShedsWithError) {
  NetServerOptions options;
  options.max_connections = 2;
  StartServer(options);
  auto c1 = Connect();
  auto c2 = Connect();
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  ASSERT_TRUE(c1->Query("SELECT COUNT(*) FROM t").ok());  // both registered
  auto c3 = Client::Connect("127.0.0.1", srv_->port());
  ASSERT_TRUE(c3.ok());  // TCP accepts, then the server sheds with ERROR
  auto resp = (*c3)->ReadResponse(5000);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kResourceExhausted)
      << resp.status().ToString();
  EXPECT_GE(srv_->GetStats().shed_connections, 1);
}

TEST_F(NetTest, StopWithInflightWorkIsBounded) {
  StartServer();
  auto client = Connect();
  ASSERT_NE(client, nullptr);
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(client->SendQuery("SELECT b, COUNT(*) FROM t GROUP BY b")
                    .ok());
  // Wait for the first response so the server has demonstrably started on
  // the pipeline before we pull the plug.
  ASSERT_TRUE(client->ReadResponse(5000).ok());
  const auto start = std::chrono::steady_clock::now();
  srv_->Stop(/*drain_deadline_ms=*/500);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30)
      << "Stop must be bounded, not wait for the client";
  // Whatever was admitted resolved one way or the other: completed, shed
  // with Aborted, or the connection closed after the drain window. Nothing
  // may hang.
  for (int i = 0; i < 7; ++i) {
    auto resp = client->ReadResponse(1000);
    if (!resp.ok()) {
      EXPECT_NE(resp.status().code(), StatusCode::kTimedOut)
          << "response " << i << " hung after Stop";
      if (resp.status().code() == StatusCode::kIOError) break;  // closed
    }
  }
  srv_.reset();  // idempotent second Stop via the destructor
}

TEST_F(NetTest, HundredConcurrentConnections) {
  NetServerOptions options;
  options.io_workers = 2;
  options.max_connections = 256;
  StartServer(options);
  constexpr int kConns = 100;
  constexpr int kQueries = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kConns; ++i) {
    threads.emplace_back([&] {
      auto client = Client::Connect("127.0.0.1", srv_->port(), 30'000);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int q = 0; q < kQueries; ++q) {
        auto result = (*client)->Query("SELECT COUNT(*) FROM t");
        if (!result.ok() || result->rows[0][0].int_value() != 10)
          failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(srv_->GetStats().ok_responses, kConns * kQueries);
}

}  // namespace
}  // namespace stagedb::net
