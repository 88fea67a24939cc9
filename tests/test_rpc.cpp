// Cross-process RPC front-end: wire-protocol round-trips and rejection
// cases, loopback transport semantics (clean vs mid-frame EOF), client
// reconnect over the injected clock, forged server responses the client
// must fail typed, deterministic cancel/deadline
// propagation through a frozen VirtualClock, the unix-socket end-to-end
// mixed workload (64+ concurrent requests from 4 client threads), and the
// loopback fault-storm that arms every rpc.* site and proves the
// resolve-always invariant plus the response-counter balance. Plain
// compress/decompress round trips over loopback, unix sockets and the
// streamed verbs live in test_equivalence.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "data/quant.hpp"
#include "golden_phl2.hpp"
#include "lossy/fused.hpp"
#include "obs/metrics.hpp"
#include "rpc/client.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "rpc/transport_inmem.hpp"
#include "svc/deadline.hpp"
#include "util/clock.hpp"
#include "util/fault_inject.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

using rpc::ClientConfig;
using rpc::Frame;
using rpc::Header;
using rpc::Kind;
using rpc::LoopbackHub;
using rpc::Op;
using rpc::ProtocolError;
using rpc::RpcCall;
using rpc::RpcClient;
using rpc::RpcError;
using rpc::RpcOptions;
using rpc::RpcServer;
using rpc::ServerConfig;
using rpc::Status;
using rpc::TransportError;
using util::Clock;
using util::FaultInjector;
using util::ScopedFaults;
using util::VirtualClock;

std::vector<u8> ramp_data(std::size_t n, u64 seed = 7) {
  Xoshiro256 rng(seed);
  std::vector<u8> v(n);
  for (auto& s : v) s = static_cast<u8>(rng.below(97));
  return v;
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/parhuff_rpc_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

// --- Protocol. ---------------------------------------------------------------

TEST(RpcProtocol, HeaderRoundTripsEveryField) {
  Header h;
  h.kind = Kind::kResponse;
  h.op = Op::kDecompress;
  h.sym_width = 2;
  h.request_id = 0x0123456789abcdefull;
  h.priority = 2;
  h.status = Status::kQueueFull;
  h.payload_len = 12345;
  h.deadline_micros = 987654321;
  const auto bytes = rpc::encode_header(h);
  const Header d =
      rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(bytes));
  EXPECT_EQ(d.kind, h.kind);
  EXPECT_EQ(d.op, h.op);
  EXPECT_EQ(d.sym_width, h.sym_width);
  EXPECT_EQ(d.request_id, h.request_id);
  EXPECT_EQ(d.priority, h.priority);
  EXPECT_EQ(d.status, h.status);
  EXPECT_EQ(d.payload_len, h.payload_len);
  EXPECT_EQ(d.deadline_micros, h.deadline_micros);
}

TEST(RpcProtocol, FrameRoundTripsAndDerivesPayloadLen) {
  Frame f;
  f.h.op = Op::kCompress;
  f.h.request_id = 42;
  f.payload = {1, 2, 3, 4, 5};
  const std::vector<u8> bytes = rpc::encode_frame(f);
  ASSERT_EQ(bytes.size(), rpc::kHeaderBytes + 5);
  std::array<u8, rpc::kHeaderBytes> hb;
  std::memcpy(hb.data(), bytes.data(), hb.size());
  const Header h =
      rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(hb));
  EXPECT_EQ(h.payload_len, 5u);
  EXPECT_TRUE(std::equal(f.payload.begin(), f.payload.end(),
                         bytes.begin() + rpc::kHeaderBytes));
}

TEST(RpcProtocol, EncodeRejectsOversizedPayload) {
  Frame f;
  f.payload.resize(17);
  EXPECT_THROW((void)rpc::encode_frame(f, 16), std::length_error);
  EXPECT_NO_THROW((void)rpc::encode_frame(f, 17));
}

TEST(RpcProtocol, DecodeRejectsBadMagicWithoutResponding) {
  auto bytes = rpc::encode_header(Header{});
  bytes[0] ^= 0xFF;
  try {
    (void)rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(bytes));
    FAIL() << "bad magic must throw";
  } catch (const ProtocolError& e) {
    EXPECT_FALSE(e.can_respond());  // stream alignment unknowable
  }
}

TEST(RpcProtocol, DecodeRejectsBadVersionButCanRespond) {
  // Only the current version is accepted: every peer speaks kVersion, so
  // a future and every older version byte answer kUnsupportedVersion.
  for (const u8 version : {u8{3}, u8{4}, u8{rpc::kVersion + 1}}) {
    Header h;
    h.request_id = 77;
    auto bytes = rpc::encode_header(h);
    bytes[4] = version;
    try {
      (void)rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(bytes));
      FAIL() << "version " << int{version} << " must throw";
    } catch (const ProtocolError& e) {
      EXPECT_TRUE(e.can_respond());
      EXPECT_EQ(e.status(), Status::kUnsupportedVersion);
      EXPECT_EQ(e.request_id(), 77u);  // id parsed before the version gate
    }
  }
}

TEST(RpcProtocol, DecodeRejectsBadKindOpStatusAndOversizedLen) {
  const auto corrupt = [](std::size_t off, u8 value) {
    auto bytes = rpc::encode_header(Header{});
    bytes[off] = value;
    return bytes;
  };
  for (const auto& bytes :
       {corrupt(5, 9) /*kind*/, corrupt(6, 0) /*op low*/,
        corrupt(6, 14) /*op past kLossyDecompress*/,
        corrupt(17, 200) /*status*/}) {
    EXPECT_THROW(
        (void)rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(bytes)),
        ProtocolError);
  }
  Header big;
  big.payload_len = 100;
  const auto bytes = rpc::encode_header(big);
  EXPECT_THROW((void)rpc::decode_header(
                   std::span<const u8, rpc::kHeaderBytes>(bytes), 99),
               ProtocolError);
  EXPECT_NO_THROW((void)rpc::decode_header(
      std::span<const u8, rpc::kHeaderBytes>(bytes), 100));
}

TEST(RpcProtocol, HealthInfoRoundTripsAndIgnoresTrailingBytes) {
  rpc::HealthInfo info;
  info.accepting = false;
  info.queue_depth = 12;
  info.queue_capacity = 512;
  info.connections = 3;
  info.max_connections = 8;
  auto bytes = rpc::encode_health_info(info);
  ASSERT_EQ(bytes.size(), rpc::kHealthInfoBytes);
  bytes.push_back(0xEE);  // a future field: v2 readers must not care
  const rpc::HealthInfo d = rpc::decode_health_info(bytes);
  EXPECT_EQ(d.accepting, info.accepting);
  EXPECT_EQ(d.queue_depth, info.queue_depth);
  EXPECT_EQ(d.queue_capacity, info.queue_capacity);
  EXPECT_EQ(d.connections, info.connections);
  EXPECT_EQ(d.max_connections, info.max_connections);
}

TEST(RpcProtocol, HealthInfoRejectsShortPayloadAndZeroVersion) {
  const auto bytes = rpc::encode_health_info(rpc::HealthInfo{});
  EXPECT_THROW((void)rpc::decode_health_info(
                   std::span<const u8>(bytes.data(), bytes.size() - 1)),
               ProtocolError);
  auto zeroed = bytes;
  zeroed[0] = zeroed[1] = zeroed[2] = zeroed[3] = 0;  // info_version = 0
  EXPECT_THROW((void)rpc::decode_health_info(zeroed), ProtocolError);
}

TEST(RpcProtocol, ReservedBytesAreIgnored) {
  auto bytes = rpc::encode_header(Header{});
  bytes[18] = 0xAA;  // future extensions write here; v1 must not care
  bytes[19] = 0x55;
  EXPECT_NO_THROW(
      (void)rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(bytes)));
}

TEST(RpcProtocol, ResponseBoundAddsSlackAndSaturates) {
  EXPECT_EQ(rpc::response_payload_bound(0), 1u << 20);
  EXPECT_EQ(rpc::response_payload_bound(rpc::kMaxPayloadBytes),
            (64u << 20) + (1u << 20));
  EXPECT_EQ(rpc::response_payload_bound(0xFFFFFFFFu), 0xFFFFFFFFu);
}

// --- Loopback transport. -----------------------------------------------------

TEST(RpcLoopback, BytesCrossAndCleanEofIsFalse) {
  LoopbackHub hub;
  auto listener = hub.listener();
  auto client = hub.connect();
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);

  const std::vector<u8> msg = {10, 20, 30};
  client->write_all(msg.data(), msg.size());
  std::vector<u8> got(3);
  EXPECT_TRUE(server->read_exact(got.data(), got.size()));
  EXPECT_EQ(got, msg);

  client->shutdown();
  EXPECT_FALSE(server->read_exact(got.data(), 1));  // clean EOF, no bytes
}

TEST(RpcLoopback, MidFrameEofThrowsTransportError) {
  LoopbackHub hub;
  auto listener = hub.listener();
  auto client = hub.connect();
  auto server = listener->accept();
  ASSERT_NE(server, nullptr);

  const u8 half = 0x5A;
  client->write_all(&half, 1);
  client->shutdown();
  std::vector<u8> want(2);  // expecting 2, only 1 arrives before EOF
  EXPECT_THROW((void)server->read_exact(want.data(), want.size()),
               TransportError);
  EXPECT_THROW(server->write_all(&half, 1), TransportError);
}

TEST(RpcLoopback, ClosedHubRefusesConnectAndAcceptReturnsNull) {
  LoopbackHub hub;
  auto listener = hub.listener();
  hub.close();
  EXPECT_THROW((void)hub.connect(), TransportError);
  EXPECT_EQ(listener->accept(), nullptr);
}

// --- Client: typed results, reconnect, cancel, deadline. ---------------------

TEST(RpcClientTest, GapSubseqBitsReachTheDecodeTier) {
  // Regression: the service's encode skipped the gap-array annotation, so
  // the compress verb never produced gap-array containers even with
  // gap_subseq_bits set server-side.
  LoopbackHub hub;
  ServerConfig sc;
  sc.pipeline16.gap_subseq_bits = 1024;
  RpcServer server(hub.listener(), sc);
  RpcClient cli([&] { return hub.connect(); });

  Xoshiro256 rng(13);
  std::vector<u16> data(16384);
  for (auto& s : data) s = static_cast<u16>(rng.below(300));
  const std::vector<u8> container =
      cli.compress_data<u16>(std::span<const u16>(data)).result.get();

  auto& reg = obs::MetricsRegistry::global();
  const u64 gap0 = reg.counter("decode.gaparray");
  const std::vector<u8> raw =
      cli.decompress(std::span<const u8>(container), 2).result.get();
  EXPECT_EQ(reg.counter("decode.gaparray"), gap0 + 1);
  ASSERT_EQ(raw.size(), data.size() * 2);
  std::vector<u16> out(data.size());
  std::memcpy(out.data(), raw.data(), raw.size());
  EXPECT_EQ(out, data);
}

TEST(RpcClientTest, StatsReturnsMetricsSchemaDocument) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });
  (void)cli.compress(std::span<const u8>(ramp_data(1000))).result.get();
  const std::string text = cli.stats().get();
  EXPECT_NE(text.find("parhuff-metrics-v1"), std::string::npos);
  EXPECT_NE(text.find("rpc.requests_received"), std::string::npos);
}

TEST(RpcClientTest, ReconnectRetriesWithBackoffOnTheInjectedClock) {
  LoopbackHub hub;
  RpcServer server(hub.listener());

  // The first three dials fail; the virtual clock absorbs the backoff so
  // the whole retry schedule runs in zero real time.
  VirtualClock vc;
  std::atomic<int> attempts{0};
  ClientConfig cfg;
  cfg.clock = &vc;
  cfg.connect_attempts = 5;
  RpcClient cli(
      [&]() -> std::unique_ptr<rpc::Connection> {
        if (attempts.fetch_add(1) < 3) {
          throw TransportError("test: dial refused");
        }
        return hub.connect();
      },
      cfg);

  const auto data = ramp_data(2000);
  EXPECT_EQ(
      cli.decompress(
             std::span<const u8>(
                 cli.compress(std::span<const u8>(data)).result.get()))
          .result.get(),
      data);
  EXPECT_EQ(attempts.load(), 4);  // 3 failures + the success
}

TEST(RpcClientTest, ConnectBudgetExhaustionFailsTyped) {
  VirtualClock vc;
  ClientConfig cfg;
  cfg.clock = &vc;
  cfg.connect_attempts = 3;
  RpcClient cli(
      []() -> std::unique_ptr<rpc::Connection> {
        throw TransportError("test: nothing listening");
      },
      cfg);
  RpcCall call = cli.compress(std::span<const u8>(ramp_data(100)));
  EXPECT_THROW(call.result.get(), TransportError);
}

TEST(RpcClientTest, ServerRestartIsSurvivedByRedialing) {
  const std::string path = unique_socket_path("restart");
  auto server1 = std::make_unique<RpcServer>(rpc::listen_unix(path));
  RpcClient cli([&] { return rpc::connect_unix(path); });

  const auto data = ramp_data(4000);
  EXPECT_FALSE(
      cli.compress(std::span<const u8>(data)).result.get().empty());

  server1.reset();  // connection dies with the server
  auto server2 = std::make_unique<RpcServer>(rpc::listen_unix(path));

  // The request that observes the stale connection fails typed; a redial
  // lands on the new server within a couple of attempts.
  bool ok = false;
  for (int i = 0; i < 10 && !ok; ++i) {
    try {
      ok = !cli.compress(std::span<const u8>(data)).result.get().empty();
    } catch (const TransportError&) {
    }
  }
  EXPECT_TRUE(ok);
  ::unlink(path.c_str());
}

TEST(RpcClientTest, ServerDeathMidStreamSweepsEveryPendingFuture) {
  // Several requests park behind a frozen batch window; the server then
  // dies under them. The client's generation sweep must resolve every
  // parked future — no hangs — and a redial after restart must succeed.
  VirtualClock vc;
  auto hub = std::make_shared<LoopbackHub>();
  std::mutex hub_mu;
  ServerConfig sc;
  sc.service.clock = &vc;
  sc.service.workers = 1;
  sc.service.batch_window_seconds = 60.0;
  sc.service.batch_max_requests = 32;
  auto server = std::make_unique<RpcServer>(hub->listener(), sc);
  RpcClient cli([&] {
    std::shared_ptr<LoopbackHub> h;
    {
      std::lock_guard<std::mutex> lock(hub_mu);
      h = hub;
    }
    return h->connect();
  });

  const auto data = ramp_data(8000);
  std::vector<RpcCall> calls;
  for (int i = 0; i < 6; ++i) {
    calls.push_back(cli.compress(std::span<const u8>(data)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // in flight

  // Restart mid-stream: close the hub first so redials fail fast, then
  // tear the server down under the parked requests. The teardown runs on
  // a helper thread because it drains writer slots that block on the
  // frozen batch window — the clock advance below is what releases them;
  // the client-side sweep must NOT need it (connections are shut at the
  // start of stop(), before the drain).
  hub->close();
  std::thread teardown([&] { server.reset(); });
  int resolved = 0, transport = 0;
  for (auto& c : calls) {
    try {
      (void)c.result.get();
    } catch (const TransportError&) {
      ++transport;
    } catch (const std::exception&) {
    }
    ++resolved;  // value or typed error both count: nothing may hang
  }
  EXPECT_EQ(resolved, 6);
  EXPECT_GT(transport, 0) << "a mid-stream death must surface as transport";
  vc.advance_seconds(120.0);  // close the window; parked slots drain
  teardown.join();

  // New incarnation on a fresh hub: the same client redials into it.
  auto hub2 = std::make_shared<LoopbackHub>();
  {
    std::lock_guard<std::mutex> lock(hub_mu);
    hub = hub2;
  }
  ServerConfig sc2;
  sc2.service.workers = 1;
  sc2.service.batch_max_requests = 1;
  server = std::make_unique<RpcServer>(hub2->listener(), sc2);
  bool ok = false;
  for (int i = 0; i < 10 && !ok; ++i) {
    try {
      ok = !cli.compress(std::span<const u8>(data)).result.get().empty();
    } catch (const TransportError&) {
    }
  }
  EXPECT_TRUE(ok);
}

TEST(RpcClientTest, MisuseThrowsBeforeAnythingIsSent) {
  EXPECT_THROW({ RpcClient c{RpcClient::Connector{}}; },
               std::invalid_argument);
  LoopbackHub hub;
  RpcClient cli([&] { return hub.connect(); });
  EXPECT_THROW((void)cli.stream_begin(Op::kCompressStreamChunk),
               std::invalid_argument);
  EXPECT_THROW((void)cli.stream_frame(Op::kCompressStreamBegin, 1, {}),
               std::invalid_argument);
  EXPECT_THROW((void)cli.stream_end(Op::kCompressStreamChunk, 1, 0, 0),
               std::invalid_argument);
}

// --- Client: untrusted responses. --------------------------------------------
//
// A server's answers are untrusted bytes to the client. These tests play
// the server by hand on the server half of a loopback connection and
// forge what it answers; every forgery must fail the caller's future
// typed.

/// Reads one request frame off the server half of a connection.
Frame read_request(rpc::Connection& conn) {
  std::array<u8, rpc::kHeaderBytes> hb;
  if (!conn.read_exact(hb.data(), hb.size())) {
    throw TransportError("test: EOF instead of a request");
  }
  Frame f;
  f.h = rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(hb));
  f.payload.resize(f.h.payload_len);
  if (f.h.payload_len > 0 &&
      !conn.read_exact(f.payload.data(), f.payload.size())) {
    throw TransportError("test: EOF mid-request");
  }
  return f;
}

/// Answers `req` with a frame of `kind` (a response, unless forged)
/// carrying `payload`.
void answer(rpc::Connection& conn, const Header& req,
            std::vector<u8> payload, Kind kind = Kind::kResponse) {
  Frame f{req, std::move(payload)};
  f.h.kind = kind;
  const std::vector<u8> bytes = rpc::encode_frame(f);
  conn.write_all(bytes.data(), bytes.size());
}

/// A client whose compress() of ramp_data(kStreamedBytes) streams in
/// kChunkBytes chunks, and the server half of its connection.
struct ForgedPeer {
  static constexpr std::size_t kChunkBytes = 1024;
  static constexpr std::size_t kStreamedBytes = 4 * kChunkBytes;

  LoopbackHub hub;
  std::unique_ptr<rpc::Listener> listener = hub.listener();
  RpcClient cli{[this] { return hub.connect(); }, [] {
                  ClientConfig cc;
                  cc.max_payload_bytes = kStreamedBytes / 2;
                  cc.stream_chunk_bytes = kChunkBytes;
                  return cc;
                }()};
  std::unique_ptr<rpc::Connection> server;

  /// Takes `call`, whose first frame is already sent, and accepts the
  /// server half of the connection it went out on (a redial after the
  /// last forgery dropped `server`).
  RpcCall start(RpcCall call) {
    if (!server) server = listener->accept();
    return call;
  }
};

TEST(RpcClientUntrusted, ShortStreamIdInBeginResponseFailsTyped) {
  ForgedPeer peer;
  RpcCall call = peer.start(
      peer.cli.compress(ramp_data(ForgedPeer::kStreamedBytes)));
  const Frame begin = read_request(*peer.server);
  ASSERT_EQ(begin.h.op, Op::kCompressStreamBegin);
  answer(*peer.server, begin.h, {1, 2, 3});  // a stream id is 8 bytes
  try {
    (void)call.result.get();
    FAIL() << "a 3-byte stream id must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kInternal);
    EXPECT_NE(std::string(e.what()).find("short stream-id payload"),
              std::string::npos)
        << e.what();
  }
}

TEST(RpcClientUntrusted, EndSummaryMustAgreeWithTheStream) {
  // The fake server acks every chunk with two bytes and answers End with
  // the summary an honest server would send, with `forge` applied.
  const auto stream = [](ForgedPeer& peer,
                         const std::function<void(rpc::StreamSummary&)>&
                             forge) {
    RpcCall call = peer.start(
        peer.cli.compress(ramp_data(ForgedPeer::kStreamedBytes)));
    u64 acked = 0;
    for (;;) {
      const Frame req = read_request(*peer.server);
      if (req.h.op == Op::kCompressStreamBegin) {
        std::vector<u8> sid(8, 0);
        sid[0] = 42;
        answer(*peer.server, req.h, std::move(sid));
      } else if (req.h.op == Op::kCompressStreamChunk) {
        answer(*peer.server, req.h, {0xAB, 0xCD});
        acked += 2;
      } else {
        const rpc::StreamEndRequest end =
            rpc::decode_stream_end_request(req.payload);
        rpc::StreamSummary sum{end.total_bytes, acked, end.checksum};
        forge(sum);
        answer(*peer.server, req.h, rpc::encode_stream_summary(sum));
        return call;
      }
    }
  };

  ForgedPeer peer;
  RpcCall honest = stream(peer, [](rpc::StreamSummary&) {});
  EXPECT_EQ(honest.result.get().size(),
            2 * ForgedPeer::kStreamedBytes / ForgedPeer::kChunkBytes);
  for (const auto& forge :
       std::vector<std::function<void(rpc::StreamSummary&)>>{
           [](rpc::StreamSummary& s) { ++s.bytes_in; },
           [](rpc::StreamSummary& s) { ++s.bytes_out; },
           [](rpc::StreamSummary& s) { s.checksum ^= 1; }}) {
    RpcCall call = stream(peer, forge);
    try {
      (void)call.result.get();
      ADD_FAILURE() << "a forged summary must fail typed";
    } catch (const RpcError& e) {
      EXPECT_EQ(e.status(), Status::kInternal);
      EXPECT_NE(std::string(e.what()).find("End summary disagrees"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RpcClientUntrusted, MalformedResponseFramesFailTheConnectionTyped) {
  // Each forgery kills the connection: the pending call fails with a
  // TransportError naming the cause, and the next call redials.
  ForgedPeer peer;
  const auto data = ramp_data(100);
  const auto forged = [&](const std::function<void(const Header&)>& forge,
                          const std::string& what) {
    RpcCall call = peer.start(peer.cli.compress(std::span<const u8>(data)));
    forge(read_request(*peer.server).h);
    try {
      (void)call.result.get();
      ADD_FAILURE() << "expected a TransportError naming \"" << what << "\"";
    } catch (const TransportError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
    peer.server.reset();  // the client shut its half; redial next time
  };
  // A header that promises a payload, then a clean EOF where it starts.
  forged(
      [&](const Header& req) {
        Header h = req;
        h.kind = Kind::kResponse;
        h.payload_len = 100;
        const auto hb = rpc::encode_header(h);
        peer.server->write_all(hb.data(), hb.size());
        peer.server->shutdown();
      },
      "EOF before payload");
  // A request frame where only responses may arrive.
  forged(
      [&](const Header& req) {
        answer(*peer.server, req, {}, Kind::kRequest);
      },
      "request frame on the response stream");
}

TEST(RpcHealthVerb, ServerAnswersInBandProbe) {
  LoopbackHub hub;
  ServerConfig sc;
  sc.max_connections = 3;
  sc.service.queue_capacity = 64;
  RpcServer server(hub.listener(), sc);
  RpcClient cli([&] { return hub.connect(); });

  const rpc::HealthInfo info = cli.health().get();
  EXPECT_TRUE(info.accepting);
  EXPECT_EQ(info.max_connections, 3u);
  EXPECT_EQ(info.queue_capacity, 2u * 64u);  // u8 + u16 service queues
  EXPECT_GE(info.connections, 1u);           // at least the probing client
}

TEST(RpcCancelFlow, CancelOfPendingCompressResolvesAsCancelled) {
  // The frozen virtual clock holds the service's batch window open, so the
  // compress parks server-side; the cancel frame (applied immediately in
  // the reader, not behind the response stream) kills it, and advancing
  // the clock lets the batch machinery observe the cancellation.
  VirtualClock vc;
  LoopbackHub hub;
  ServerConfig sc;
  sc.service.clock = &vc;
  sc.service.workers = 1;
  sc.service.batch_window_seconds = 60.0;
  sc.service.batch_max_requests = 8;
  RpcServer server(hub.listener(), sc);
  RpcClient cli([&] { return hub.connect(); });

  RpcCall call = cli.compress(std::span<const u8>(ramp_data(8000)));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // Don't await the ack yet: it rides the in-order response stream BEHIND
  // the compress response, which can only resolve once the window closes.
  auto ack = cli.cancel(call.id);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // applied
  vc.advance_seconds(120.0);
  EXPECT_THROW(call.result.get(), svc::CancelledError);
  EXPECT_NO_THROW(ack.get());
}

TEST(RpcCancelFlow, RelativeDeadlineIsReanchoredOnTheServerClock) {
  VirtualClock vc;
  LoopbackHub hub;
  ServerConfig sc;
  sc.service.clock = &vc;
  sc.service.workers = 1;
  sc.service.batch_window_seconds = 60.0;
  sc.service.batch_max_requests = 8;
  RpcServer server(hub.listener(), sc);
  RpcClient cli([&] { return hub.connect(); });

  RpcOptions opts;
  opts.deadline_seconds = 0.5;  // virtual: expires during the held window
  RpcCall call = cli.compress(std::span<const u8>(ramp_data(8000)), 1, opts);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  vc.advance_seconds(120.0);  // passes the deadline and closes the window
  EXPECT_THROW(call.result.get(), svc::DeadlineExceeded);
}

TEST(RpcCancelFlow, CancelOfUnknownIdIsIdempotentNoOp) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });
  EXPECT_NO_THROW(cli.cancel(0xdeadbeefull).get());
  // The connection survives the no-op cancel.
  const auto data = ramp_data(1000);
  EXPECT_FALSE(cli.compress(std::span<const u8>(data)).result.get().empty());
}

// --- End-to-end: unix socket, concurrent mixed workload. ---------------------

TEST(RpcEndToEnd, UnixSocketMixedWorkloadEveryRequestResolves) {
  auto& reg = obs::MetricsRegistry::global();
  const u64 received0 = reg.counter("rpc.requests_received");
  const u64 written0 = reg.counter("rpc.responses_written");
  const u64 dropped0 = reg.counter("rpc.responses_dropped");
  const u64 perr0 = reg.counter("rpc.protocol_error_responses");

  const std::string path = unique_socket_path("e2e");
  RpcServer server(rpc::listen_unix(path));
  RpcClient cli([&] { return rpc::connect_unix(path); });

  // Seed containers for the decompress half of the mix.
  const auto data8 = ramp_data(30000);
  const std::vector<u8> container8 =
      cli.compress(std::span<const u8>(data8)).result.get();
  Xoshiro256 rng16(3);
  std::vector<u16> data16(12000);
  for (auto& s : data16) s = static_cast<u16>(rng16.below(50000));
  const std::vector<u8> container16 =
      cli.compress_data<u16>(std::span<const u16>(data16)).result.get();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;  // 80 requests total
  std::atomic<int> ok{0}, cancelled{0}, deadline{0}, other{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int shape = (t * kPerThread + i) % 5;
        try {
          switch (shape) {
            case 0: {  // u8 compress with a generous deadline
              RpcOptions opts;
              opts.deadline_seconds = 30.0;
              auto call =
                  cli.compress(std::span<const u8>(data8), 1, opts);
              if (call.result.get().empty()) throw std::runtime_error("empty");
              break;
            }
            case 1: {  // u16 compress, high priority
              RpcOptions opts;
              opts.priority = svc::Priority::kHigh;
              auto call =
                  cli.compress_data<u16>(std::span<const u16>(data16), opts);
              if (call.result.get().empty()) throw std::runtime_error("empty");
              break;
            }
            case 2: {  // u8 decompress must round-trip
              auto call = cli.decompress(std::span<const u8>(container8));
              if (call.result.get() != data8) {
                throw std::runtime_error("mismatch");
              }
              break;
            }
            case 3: {  // compress raced by its own cancel
              auto call = cli.compress(std::span<const u8>(data8));
              auto ack = cli.cancel(call.id);
              bool was_cancelled = false;
              try {
                (void)call.result.get();  // either outcome is legal
              } catch (const svc::CancelledError&) {
                was_cancelled = true;
              }
              // Await the ack before anything else so no frame is still in
              // flight when the test quiesces the server.
              ack.get();
              if (was_cancelled) throw svc::CancelledError();
              break;
            }
            default: {  // decompress under an already-hopeless deadline
              RpcOptions opts;
              opts.deadline_seconds = 1e-6;
              auto call =
                  cli.decompress(std::span<const u8>(container16), 2, opts);
              (void)call.result.get();
              break;
            }
          }
          ok.fetch_add(1);
        } catch (const svc::CancelledError&) {
          cancelled.fetch_add(1);
        } catch (const svc::DeadlineExceeded&) {
          deadline.fetch_add(1);
        } catch (...) {
          other.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(ok + cancelled + deadline + other, kThreads * kPerThread);
  EXPECT_EQ(other.load(), 0);  // only typed cancel/deadline outcomes allowed
  EXPECT_GT(ok.load(), 0);

  // Quiesce first: the written-counter lands after the write syscall, so
  // a client can observe its response a beat before the count does.
  server.stop();
  // Every received request produced exactly one response-stream slot, and
  // every slot drained as written or dropped (clean run: none dropped).
  const u64 received = reg.counter("rpc.requests_received") - received0;
  const u64 written = reg.counter("rpc.responses_written") - written0;
  const u64 dropped = reg.counter("rpc.responses_dropped") - dropped0;
  const u64 perr = reg.counter("rpc.protocol_error_responses") - perr0;
  EXPECT_GE(received, static_cast<u64>(kThreads * kPerThread));
  EXPECT_EQ(written + dropped, received + perr);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(perr, 0u);
  ::unlink(path.c_str());
}

TEST(RpcEndToEnd, LoopbackFaultStormEveryFutureStillResolves) {
  auto& reg = obs::MetricsRegistry::global();
  const u64 received0 = reg.counter("rpc.requests_received");
  const u64 written0 = reg.counter("rpc.responses_written");
  const u64 dropped0 = reg.counter("rpc.responses_dropped");
  const u64 perr0 = reg.counter("rpc.protocol_error_responses");

  ScopedFaults scope(FaultInjector::global());
  scope.arm("rpc.server.accept", 0.05)
      .arm("rpc.server.read", 0.02)
      .arm("rpc.server.write", 0.02)
      .arm("rpc.client.connect", 0.05)
      .arm("rpc.client.send", 0.02)
      .arm("rpc.client.read", 0.02);

  VirtualClock vc;
  vc.auto_advance_every(256, Clock::dur(1e-3));
  LoopbackHub hub;
  ServerConfig sc;
  sc.service.clock = &vc;
  sc.service.workers = 2;
  sc.service.batch_max_requests = 1;  // dispatch immediately: the frozen
                                      // window must not park requests
  sc.max_connections = 2;
  RpcServer server(hub.listener(), sc);

  ClientConfig cc;
  cc.clock = &vc;
  cc.connect_attempts = 50;  // outlast the 5% connect faults
  RpcClient cli([&] { return hub.connect(); }, cc);

  const auto data = ramp_data(6000);
  std::vector<u8> container;
  for (int i = 0; i < 50 && container.empty(); ++i) {
    try {
      container = cli.compress(std::span<const u8>(data)).result.get();
    } catch (const std::exception&) {
    }
  }
  ASSERT_FALSE(container.empty()) << "no compress survived the storm seed";

  constexpr int kRequests = 64;
  int ok = 0, transport = 0, typed = 0, cancel_deadline = 0;
  for (int i = 0; i < kRequests; ++i) {
    try {
      if (i % 2 == 0) {
        auto call = cli.compress(std::span<const u8>(data));
        if (call.result.get().empty()) throw std::runtime_error("empty");
      } else {
        auto call = cli.decompress(std::span<const u8>(container));
        if (call.result.get() != data) throw std::runtime_error("mismatch");
      }
      ++ok;
    } catch (const TransportError&) {
      ++transport;  // connection died around this request
    } catch (const RpcError&) {
      ++typed;  // server answered with a typed error
    } catch (const svc::CancelledError&) {
      ++cancel_deadline;
    } catch (const svc::DeadlineExceeded&) {
      ++cancel_deadline;
    }
  }
  // The invariant is resolution, not success: every future produced a
  // value or a typed error, and the sum proves none hung.
  EXPECT_EQ(ok + transport + typed + cancel_deadline, kRequests);
  EXPECT_GT(ok, 0) << "storm killed every request — probabilities too hot";

  // Quiesce so late slots drain, then check the response-slot balance,
  // which must hold even with injected read/write failures.
  server.stop();
  const u64 received = reg.counter("rpc.requests_received") - received0;
  const u64 written = reg.counter("rpc.responses_written") - written0;
  const u64 dropped = reg.counter("rpc.responses_dropped") - dropped0;
  const u64 perr = reg.counter("rpc.protocol_error_responses") - perr0;
  EXPECT_EQ(written + dropped, received + perr);
}

TEST(RpcServerLifecycle, StopIsIdempotentAndRefusesNewWork) {
  LoopbackHub hub;
  auto server = std::make_unique<RpcServer>(hub.listener());
  RpcClient cli([&] { return hub.connect(); });
  const auto data = ramp_data(1000);
  EXPECT_FALSE(cli.compress(std::span<const u8>(data)).result.get().empty());
  server->stop();
  server->stop();  // idempotent
  EXPECT_EQ(server->connection_count(), 0u);
  // Requests after stop fail typed (the dead conn or a refused redial).
  RpcCall call = cli.compress(std::span<const u8>(data));
  EXPECT_THROW(call.result.get(), TransportError);
}

TEST(RpcServerLifecycle, ConnectionCapRejectsExcessConnections) {
  LoopbackHub hub;
  ServerConfig sc;
  sc.max_connections = 1;
  RpcServer server(hub.listener(), sc);
  RpcClient cli([&] { return hub.connect(); });
  const auto data = ramp_data(1000);
  EXPECT_FALSE(cli.compress(std::span<const u8>(data)).result.get().empty());
  // A second concurrent connection is shut down at accept; its requests
  // fail typed instead of hanging.
  auto& reg = obs::MetricsRegistry::global();
  const u64 rejected0 = reg.counter("rpc.connections_rejected");
  ClientConfig cc;
  cc.connect_attempts = 1;
  RpcClient second([&] { return hub.connect(); }, cc);
  RpcCall call = second.compress(std::span<const u8>(data));
  EXPECT_THROW(call.result.get(), TransportError);
  EXPECT_GE(reg.counter("rpc.connections_rejected"), rejected0 + 1);
}

// --- v4 lossy verbs. ---------------------------------------------------------

/// A smooth field the fused path compresses well (RLE engages at the
/// default rel bound once the field is large enough).
std::vector<float> smooth_field(data::Dims dims, u64 seed = 31) {
  std::vector<float> f(dims.total());
  Xoshiro256 rng(seed);
  const double fx = 0.05 + 0.001 * static_cast<double>(rng.below(100));
  std::size_t i = 0;
  for (std::size_t z = 0; z < dims.nz; ++z) {
    for (std::size_t y = 0; y < dims.ny; ++y) {
      for (std::size_t x = 0; x < dims.nx; ++x, ++i) {
        f[i] = static_cast<float>(std::sin(static_cast<double>(x) * fx) *
                                      std::cos(static_cast<double>(y) * 0.07) +
                                  0.1 * static_cast<double>(z));
      }
    }
  }
  return f;
}

TEST(RpcLossyProtocol, RequestHeaderRoundTripsEveryField) {
  rpc::LossyRequestHeader h;
  h.nx = 123;
  h.ny = 45;
  h.nz = 6;
  h.rel_error_bound = 1e-3;
  h.abs_error_bound = 0.25;
  h.nbins = 1024;
  h.rle_min_run = 96;
  const auto bytes = rpc::encode_lossy_request_header(h);
  ASSERT_EQ(bytes.size(), rpc::kLossyRequestHeaderBytes);
  const auto d = rpc::decode_lossy_request_header(bytes);
  EXPECT_EQ(d.nx, h.nx);
  EXPECT_EQ(d.ny, h.ny);
  EXPECT_EQ(d.nz, h.nz);
  EXPECT_DOUBLE_EQ(d.rel_error_bound, h.rel_error_bound);
  EXPECT_DOUBLE_EQ(d.abs_error_bound, h.abs_error_bound);
  EXPECT_EQ(d.nbins, h.nbins);
  EXPECT_EQ(d.rle_min_run, h.rle_min_run);
}

TEST(RpcLossyProtocol, FieldPayloadRejectsDimsMismatch) {
  rpc::LossyFieldHeader h{4, 4, 4, 0.01};
  auto bytes = rpc::encode_lossy_field_header(h);
  EXPECT_THROW((void)rpc::decode_lossy_field_payload(
                   std::span<const u8>(bytes.data(), bytes.size() - 1)),
               ProtocolError);  // no whole header
  bytes.resize(bytes.size() + 63 * sizeof(float), 0);  // 63 floats != 64
  EXPECT_THROW((void)rpc::decode_lossy_field_payload(bytes), ProtocolError);
  bytes.resize(rpc::kLossyFieldHeaderBytes + 64 * sizeof(float), 0);
  const auto [dh, values] = rpc::decode_lossy_field_payload(bytes);
  EXPECT_EQ(values.size(), 64u);
  EXPECT_DOUBLE_EQ(dh.error_bound, 0.01);

  // Dims whose product wraps to the float count: (2^63 + 1) * 2 == 2.
  rpc::LossyFieldHeader wrapping{(u64{1} << 63) + 1, 2, 1, 0.01};
  bytes = rpc::encode_lossy_field_header(wrapping);
  bytes.resize(bytes.size() + 2 * sizeof(float), 0);
  EXPECT_THROW((void)rpc::decode_lossy_field_payload(bytes), ProtocolError);
}

TEST(RpcLossy, CompressDecompressRoundTripOnLoopback) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });

  const data::Dims dims{32, 32, 16};
  const auto field = smooth_field(dims);
  rpc::LossyRequestHeader cfg;
  cfg.nx = dims.nx;
  cfg.ny = dims.ny;
  cfg.nz = dims.nz;
  cfg.rel_error_bound = 1e-3;
  cfg.nbins = 1024;
  cfg.rle_min_run = 64;

  RpcCall comp = cli.lossy_compress(std::span<const float>(field), cfg);
  const std::vector<u8> container = comp.result.get();
  ASSERT_FALSE(container.empty());
  EXPECT_EQ(0, std::memcmp(container.data(), "PHL3", 4));
  EXPECT_LT(container.size(), field.size() * sizeof(float));

  RpcCall decomp = cli.lossy_decompress(std::span<const u8>(container));
  const auto [fh, values] =
      rpc::decode_lossy_field_payload(decomp.result.get());
  ASSERT_EQ(values.size(), field.size());
  EXPECT_EQ(fh.nx, dims.nx);
  EXPECT_GT(fh.error_bound, 0);
  double worst = 0;
  for (std::size_t i = 0; i < field.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(field[i]) -
                                     static_cast<double>(values[i])));
  }
  EXPECT_LE(worst, fh.error_bound);
}

TEST(RpcLossy, DecompressStillReadsPhl2) {
  // The verb takes both container generations: the frozen PHL2 bytes come
  // back as the floats the PHL2 reader has always produced.
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });
  const auto [fh, values] = rpc::decode_lossy_field_payload(
      cli.lossy_decompress(std::span<const u8>(testdata::kGoldenPhl2,
                                               sizeof(testdata::kGoldenPhl2)))
          .result.get());
  EXPECT_EQ(fh.nx, testdata::kGoldenPhl2Nx);
  EXPECT_EQ(fh.ny, testdata::kGoldenPhl2Ny);
  EXPECT_EQ(fh.nz, testdata::kGoldenPhl2Nz);
  EXPECT_EQ(fnv1a(std::span<const u8>(
                reinterpret_cast<const u8*>(values.data()),
                values.size() * sizeof(float))),
            testdata::kGoldenPhl2ValuesDigest);
}

TEST(RpcLossy, NarrowAlphabetRoutesToTheU8Service) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });

  const data::Dims dims{24, 24, 8};
  const auto field = smooth_field(dims, 5);
  rpc::LossyRequestHeader cfg;
  cfg.nx = dims.nx;
  cfg.ny = dims.ny;
  cfg.nz = dims.nz;
  cfg.abs_error_bound = 0.02;
  cfg.nbins = 256;  // u8 alphabet → sym_width 1 on the wire → svc8
  const std::vector<u8> container =
      cli.lossy_compress(std::span<const float>(field), cfg).result.get();
  ASSERT_FALSE(container.empty());
  const auto [fh, values] = rpc::decode_lossy_field_payload(
      cli.lossy_decompress(std::span<const u8>(container)).result.get());
  ASSERT_EQ(values.size(), field.size());
  EXPECT_DOUBLE_EQ(fh.error_bound, 0.02);
}

TEST(RpcLossy, BadDimsAndBadNbinsFailTyped) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });

  const data::Dims dims{8, 8, 8};
  const auto field = smooth_field(dims, 9);
  rpc::LossyRequestHeader cfg;
  cfg.nx = 9;  // 9*8*8 != 512
  cfg.ny = 8;
  cfg.nz = 8;
  cfg.rel_error_bound = 1e-3;
  try {
    (void)cli.lossy_compress(std::span<const float>(field), cfg)
        .result.get();
    FAIL() << "dims mismatch must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }

  cfg.nx = 8;
  cfg.nbins = 2;  // out of the quantizer's range
  try {
    (void)cli.lossy_compress(std::span<const float>(field), cfg)
        .result.get();
    FAIL() << "bad nbins must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }

  // Overflow-provoking dims: nx*ny*nz wraps to 0 in 64-bit arithmetic, so
  // a naive product comparison would never equal the payload size but a
  // wrap to exactly n would pass — the stepwise check rejects either way.
  cfg = {};
  cfg.nx = u64{1} << 32;
  cfg.ny = u64{1} << 32;
  cfg.nz = 1;
  cfg.rel_error_bound = 1e-3;
  try {
    (void)cli.lossy_compress(std::span<const float>(field), cfg)
        .result.get();
    FAIL() << "wrapping dims must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }

  // No whole header at all: the server's parse fails before any dims.
  const std::vector<u8> short_header(rpc::kLossyRequestHeaderBytes - 1, 0);
  try {
    (void)cli.lossy_compress_raw(std::span<const u8>(short_header), 2)
        .result.get();
    FAIL() << "a 47-byte lossy request must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("lossy request payload too short"),
              std::string::npos)
        << e.what();
  }
}

TEST(RpcLossy, MalformedContainerFailsTypedOnDecompress) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });
  std::vector<u8> junk = {'P', 'H', 'L', '2', 0, 1, 2, 3, 4, 5};
  try {
    (void)cli.lossy_decompress(std::span<const u8>(junk)).result.get();
    FAIL() << "junk container must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
  // A well-formed body under the glued container's PHL1 magic: bad magic.
  const data::Dims dims{8, 8, 8};
  auto phl1 = lossy::compress_field_fused(smooth_field(dims, 3), dims);
  phl1[3] = '1';
  try {
    (void)cli.lossy_decompress(std::span<const u8>(phl1)).result.get();
    FAIL() << "a PHL1 container must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST(RpcLossy, FutureVersionFramesRejectTypedNotHang) {
  // The negotiation story for the new ops: a peer that does not speak the
  // current version answers the version gate with kUnsupportedVersion — a
  // probe result, not a dead connection. Simulate the inverse here: a
  // frame from a hypothetical kVersion + 1 client reaches this server and
  // must come back typed.
  LoopbackHub hub;
  RpcServer server(hub.listener());
  auto conn = hub.connect();

  rpc::Frame f;
  f.h.op = Op::kLossyCompress;
  f.h.request_id = 77;
  f.payload.resize(rpc::kLossyRequestHeaderBytes, 0);
  auto bytes = rpc::encode_frame(f);
  bytes[4] = rpc::kVersion + 1;  // future version byte
  conn->write_all(bytes.data(), bytes.size());
  std::array<u8, rpc::kHeaderBytes> hb;
  ASSERT_TRUE(conn->read_exact(hb.data(), hb.size()));
  const Header resp =
      rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(hb));
  EXPECT_EQ(resp.status, Status::kUnsupportedVersion);
  EXPECT_EQ(resp.request_id, 77u);
}

TEST(RpcLossy, LossyCountersBalanceAcrossAMixedBurst) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });
  auto& reg = obs::MetricsRegistry::global();
  const u64 req0 = reg.counter("lossy.requests");
  const u64 done0 = reg.counter("lossy.completed");
  const u64 fail0 = reg.counter("lossy.failed");

  const data::Dims dims{16, 16, 16};
  const auto field = smooth_field(dims, 13);
  rpc::LossyRequestHeader good;
  good.nx = dims.nx;
  good.ny = dims.ny;
  good.nz = dims.nz;
  good.rel_error_bound = 1e-2;
  good.nbins = 1024;
  std::vector<RpcCall> calls;
  for (int i = 0; i < 8; ++i) {
    calls.push_back(cli.lossy_compress(std::span<const float>(field), good));
  }
  for (auto& c : calls) EXPECT_FALSE(c.result.get().empty());

  // lossy.requests == lossy.completed + lossy.failed — the invariant the
  // CI bench gate also enforces.
  const u64 req = reg.counter("lossy.requests") - req0;
  const u64 done = reg.counter("lossy.completed") - done0;
  const u64 fail = reg.counter("lossy.failed") - fail0;
  EXPECT_EQ(req, 8u);
  EXPECT_EQ(req, done + fail);
  EXPECT_EQ(fail, 0u);
}

}  // namespace
}  // namespace parhuff
