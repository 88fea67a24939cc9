// Adversarial wire-protocol suite (runs under ASan+UBSan in CI): truncated
// frames, forged lengths, bad versions/ops, oversized payload declarations,
// mid-frame disconnects and plain garbage, all thrown at a live front end
// over raw loopback connections. Every case runs against both fronts that
// speak the frame protocol: a bare RpcServer, and a ShardRouter in front of
// one RpcServer shard. The bar everywhere: the front answers with a typed
// error or drops the connection — it never crashes, never leaks a response
// slot, and keeps serving valid clients afterwards.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "router/router.hpp"
#include "rpc/client.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc/transport_inmem.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

using rpc::Frame;
using rpc::Header;
using rpc::Kind;
using rpc::LoopbackHub;
using rpc::Op;
using rpc::RpcClient;
using rpc::RpcServer;
using rpc::Status;
using rpc::TransportError;

std::vector<u8> ramp_data(std::size_t n, u64 seed = 7) {
  Xoshiro256 rng(seed);
  std::vector<u8> v(n);
  for (auto& s : v) s = static_cast<u8>(rng.below(97));
  return v;
}

void send_frame(rpc::Connection& conn, const Frame& f) {
  const std::vector<u8> bytes = rpc::encode_frame(f);
  conn.write_all(bytes.data(), bytes.size());
}

Frame read_frame(rpc::Connection& conn) {
  std::array<u8, rpc::kHeaderBytes> hb;
  if (!conn.read_exact(hb.data(), hb.size())) {
    throw TransportError("test: EOF instead of a frame");
  }
  Frame f;
  f.h = rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(hb),
                           rpc::response_payload_bound(rpc::kMaxPayloadBytes));
  f.payload.resize(f.h.payload_len);
  if (f.h.payload_len > 0 &&
      !conn.read_exact(f.payload.data(), f.payload.size())) {
    throw TransportError("test: EOF mid-payload");
  }
  return f;
}

/// Returns true when the connection observed EOF (server dropped it).
bool connection_dropped(rpc::Connection& conn) {
  u8 byte = 0;
  try {
    return !conn.read_exact(&byte, 1);
  } catch (const TransportError&) {
    return true;
  }
}

/// A valid compress request must still work — the liveness probe run after
/// every attack. Retries briefly: the server may still be tearing down the
/// attack connections (a full connection table rejects new ones).
void expect_server_alive(LoopbackHub& hub) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    try {
      auto conn = hub.connect();
      Frame req;
      req.h.op = Op::kCompress;
      req.h.request_id = 9999;
      req.payload = ramp_data(2000);
      send_frame(*conn, req);
      const Frame resp = read_frame(*conn);
      EXPECT_EQ(resp.h.status, Status::kOk);
      EXPECT_EQ(resp.h.request_id, 9999u);
      EXPECT_FALSE(resp.payload.empty());
      return;
    } catch (const TransportError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  FAIL() << "server never recovered: every probe connection died";
}

/// Parameter: false = a bare RpcServer listens on hub_; true = a
/// ShardRouter listens on hub_ and forwards to one RpcServer on its own
/// hub.
class RpcFuzz : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    const bool routed = GetParam();
    server_ = std::make_unique<RpcServer>(routed ? shard_hub_.listener()
                                                 : hub_.listener());
    if (routed) {
      router::RouterConfig rc;
      rc.start_prober = false;
      std::vector<router::ShardEndpoint> shards;
      shards.push_back({"shard0", [this] { return shard_hub_.connect(); }});
      router_ = std::make_unique<router::ShardRouter>(
          hub_.listener(), std::move(shards), rc);
    }
  }

  /// The front's metric family: rpc.* for the server, router.* for the
  /// router.
  [[nodiscard]] std::string metric(const char* name) const {
    return std::string(GetParam() ? "router." : "rpc.") + name;
  }

  /// Quiesce the front (the router first, then the shard behind it) so
  /// every counter has settled.
  void stop() {
    if (router_) router_->stop();
    server_->stop();
  }

  LoopbackHub hub_;
  LoopbackHub shard_hub_;
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<router::ShardRouter> router_;  // destroyed first
};

INSTANTIATE_TEST_SUITE_P(Fronts, RpcFuzz, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Router" : "Server";
                         });

TEST_P(RpcFuzz, TruncatedHeaderDropsConnectionQuietly) {
  auto conn = hub_.connect();
  const std::vector<u8> partial(10, 0x42);  // 10 of the 32 header bytes
  conn->write_all(partial.data(), partial.size());
  conn->shutdown();
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, ForgedLengthWithMissingPayloadDropsConnection) {
  auto conn = hub_.connect();
  Frame f;
  f.h.op = Op::kCompress;
  f.h.request_id = 1;
  f.payload.resize(100);
  std::vector<u8> bytes = rpc::encode_frame(f);
  // Ship the header (declaring 100 bytes) but only 10 payload bytes.
  conn->write_all(bytes.data(), rpc::kHeaderBytes + 10);
  conn->shutdown();
  EXPECT_TRUE(connection_dropped(*conn));
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, BadMagicDropsWithoutAResponse) {
  auto conn = hub_.connect();
  Frame f;
  f.h.op = Op::kCompress;
  std::vector<u8> bytes = rpc::encode_frame(f);
  bytes[0] ^= 0xFF;
  conn->write_all(bytes.data(), bytes.size());
  // Alignment is unknowable after a magic mismatch: no typed error, drop.
  EXPECT_TRUE(connection_dropped(*conn));
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, BadVersionGetsTypedErrorAndConnectionSurvives) {
  auto conn = hub_.connect();
  Frame f;
  f.h.op = Op::kCompress;
  f.h.request_id = 31;
  f.payload = {1, 2, 3};
  std::vector<u8> bytes = rpc::encode_frame(f);
  bytes[4] = rpc::kVersion + 7;
  conn->write_all(bytes.data(), bytes.size());
  const Frame err = read_frame(*conn);
  EXPECT_EQ(err.h.status, Status::kUnsupportedVersion);
  EXPECT_EQ(err.h.request_id, 31u);
  // The declared payload was consumed, so the stream is still aligned:
  // a valid request on the SAME connection succeeds.
  Frame ok;
  ok.h.op = Op::kCompress;
  ok.h.request_id = 32;
  ok.payload = ramp_data(500);
  send_frame(*conn, ok);
  const Frame resp = read_frame(*conn);
  EXPECT_EQ(resp.h.status, Status::kOk);
  EXPECT_EQ(resp.h.request_id, 32u);
}

TEST_P(RpcFuzz, BadOpGetsTypedErrorAndResyncs) {
  auto conn = hub_.connect();
  Frame f;
  f.h.op = Op::kCompress;
  f.h.request_id = 55;
  f.payload = {9, 9};
  std::vector<u8> bytes = rpc::encode_frame(f);
  bytes[6] = 200;  // no such op
  conn->write_all(bytes.data(), bytes.size());
  const Frame err = read_frame(*conn);
  EXPECT_NE(err.h.status, Status::kOk);
  EXPECT_EQ(err.h.request_id, 55u);
  Frame ok;
  ok.h.op = Op::kCompress;
  ok.h.request_id = 56;
  ok.payload = ramp_data(500);
  send_frame(*conn, ok);
  EXPECT_EQ(read_frame(*conn).h.status, Status::kOk);
}

TEST_P(RpcFuzz, OversizedPayloadDeclarationIsTypedThenFatal) {
  auto conn = hub_.connect();
  Header h;
  h.op = Op::kCompress;
  h.request_id = 66;
  auto bytes = rpc::encode_header(h);
  const u32 huge = rpc::kMaxPayloadBytes + 1;  // unskippable declaration
  std::memcpy(bytes.data() + 20, &huge, sizeof(huge));
  conn->write_all(bytes.data(), bytes.size());
  // The typed error is the connection's last frame (the server cannot
  // skip a payload it refuses to read), then the connection drops.
  const Frame err = read_frame(*conn);
  EXPECT_NE(err.h.status, Status::kOk);
  EXPECT_EQ(err.h.request_id, 66u);
  EXPECT_TRUE(connection_dropped(*conn));
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, ResponseKindFrameToServerGetsBadRequest) {
  auto conn = hub_.connect();
  Frame f;
  f.h.kind = Kind::kResponse;  // structurally valid, semantically wrong
  f.h.op = Op::kCompress;
  f.h.request_id = 77;
  send_frame(*conn, f);
  const Frame err = read_frame(*conn);
  EXPECT_EQ(err.h.status, Status::kBadRequest);
  EXPECT_EQ(err.h.request_id, 77u);
}

TEST_P(RpcFuzz, MalformedCancelPayloadGetsBadRequest) {
  auto conn = hub_.connect();
  Frame f;
  f.h.op = Op::kCancel;
  f.h.request_id = 88;
  f.payload = {1, 2, 3};  // must be exactly 8 bytes
  send_frame(*conn, f);
  EXPECT_EQ(read_frame(*conn).h.status, Status::kBadRequest);
}

TEST_P(RpcFuzz, GarbageContainerToDecompressGetsBadRequest) {
  auto conn = hub_.connect();
  Frame f;
  f.h.op = Op::kDecompress;
  f.h.request_id = 99;
  f.payload = ramp_data(4096, 13);  // not a PHF container
  send_frame(*conn, f);
  const Frame err = read_frame(*conn);
  EXPECT_EQ(err.h.status, Status::kBadRequest);
  EXPECT_EQ(err.h.request_id, 99u);
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, TruncatedContainerToDecompressFailsTyped) {
  // A container that starts valid but is cut short: deserialize must
  // throw (bytesio bounds checks), mapped to kBadRequest — never a crash.
  RpcClient cli([&] { return hub_.connect(); });
  const auto data = ramp_data(20000);
  const std::vector<u8> container =
      cli.compress(std::span<const u8>(data)).result.get();
  auto conn = hub_.connect();
  Frame f;
  f.h.op = Op::kDecompress;
  f.h.request_id = 101;
  f.payload.assign(container.begin(),
                   container.begin() +
                       static_cast<std::ptrdiff_t>(container.size() / 2));
  send_frame(*conn, f);
  const Frame err = read_frame(*conn);
  EXPECT_NE(err.h.status, Status::kOk);
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, BitFlippedContainerNeverCrashesTheDecoder) {
  // Decompress is the untrusted-input hot path: flip one byte at a time
  // across the container and require a typed outcome for each. (The
  // release-mode decoder hardening and the full-range nbins default are
  // what keep these inside the error model.)
  RpcClient cli([&] { return hub_.connect(); });
  const auto data = ramp_data(4000);
  const std::vector<u8> container =
      cli.compress(std::span<const u8>(data)).result.get();
  Xoshiro256 rng(99);
  auto conn = hub_.connect();
  for (int i = 0; i < 32; ++i) {
    std::vector<u8> mutated = container;
    const std::size_t pos = rng.below(mutated.size());
    mutated[pos] ^= static_cast<u8>(1u << rng.below(8));
    Frame f;
    f.h.op = Op::kDecompress;
    f.h.request_id = 200 + static_cast<u64>(i);
    f.payload = std::move(mutated);
    send_frame(*conn, f);
    const Frame resp = read_frame(*conn);
    // Either the flip landed somewhere harmless (decode still succeeds —
    // possibly to different bytes) or it failed typed. Both are fine;
    // crashing or hanging is not.
    EXPECT_EQ(resp.h.request_id, 200 + static_cast<u64>(i));
  }
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, RandomGarbageStormNeverKillsTheServer) {
  Xoshiro256 rng(4242);
  for (int round = 0; round < 64; ++round) {
    auto conn = hub_.connect();
    const std::size_t len = 1 + rng.below(200);
    std::vector<u8> junk(len);
    for (auto& b : junk) b = static_cast<u8>(rng.below(256));
    try {
      conn->write_all(junk.data(), junk.size());
      conn->shutdown();
    } catch (const TransportError&) {
      // The server may drop the connection while we're mid-write.
    }
  }
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, MidFrameDisconnectDuringPayloadIsClean) {
  auto& reg = obs::MetricsRegistry::global();
  const u64 received0 = reg.counter(metric("requests_received"));
  const u64 written0 = reg.counter(metric("responses_written"));
  const u64 dropped0 = reg.counter(metric("responses_dropped"));
  const u64 perr0 = reg.counter(metric("protocol_error_responses"));

  for (int i = 0; i < 8; ++i) {
    auto conn = hub_.connect();
    Frame f;
    f.h.op = Op::kCompress;
    f.h.request_id = static_cast<u64>(i);
    f.payload = ramp_data(1000);
    const std::vector<u8> bytes = rpc::encode_frame(f);
    // Cut the stream at a different payload offset each round.
    const std::size_t cut = rpc::kHeaderBytes + 100 * static_cast<u64>(i);
    conn->write_all(bytes.data(), cut);
    conn->shutdown();
  }
  expect_server_alive(hub_);
  // Mid-frame aborts never count as received requests, so the slot
  // balance still holds over the whole episode.
  stop();
  const u64 received = reg.counter(metric("requests_received")) - received0;
  const u64 written = reg.counter(metric("responses_written")) - written0;
  const u64 dropped = reg.counter(metric("responses_dropped")) - dropped0;
  const u64 perr = reg.counter(metric("protocol_error_responses")) - perr0;
  EXPECT_EQ(written + dropped, received + perr);
}

// --- Stream-op fuzz (protocol v3). The bar is unchanged: typed error or
// dropped connection, never UB, never a stuck stream slot, and the
// opened == completed + aborted balance holds over the whole episode.

/// Open a stream over a raw connection; returns the server-assigned id.
u64 raw_stream_begin(rpc::Connection& conn, Op op, u64 request_id) {
  Frame f;
  f.h.op = op;
  f.h.sym_width = 1;
  f.h.request_id = request_id;
  send_frame(conn, f);
  const Frame ack = read_frame(conn);
  EXPECT_EQ(ack.h.status, Status::kOk);
  EXPECT_EQ(ack.payload.size(), 8u);
  u64 sid = 0;
  std::memcpy(&sid, ack.payload.data(), 8);
  return sid;
}

TEST_P(RpcFuzz, InterleavedStreamIdsStayIsolated) {
  auto conn = hub_.connect();
  const u64 a = raw_stream_begin(*conn, Op::kCompressStreamBegin, 1);
  const u64 b = raw_stream_begin(*conn, Op::kCompressStreamBegin, 2);
  ASSERT_NE(a, b);

  // Alternate chunks across the two streams on one connection: each must
  // land in its own codec (a cross-feed would corrupt both containers).
  u64 rid = 10;
  for (int round = 0; round < 3; ++round) {
    for (const u64 sid : {a, b}) {
      Frame chunk;
      chunk.h.op = Op::kCompressStreamChunk;
      chunk.h.request_id = rid++;
      chunk.h.stream_id = sid;
      chunk.payload = ramp_data(700, sid);
      send_frame(*conn, chunk);
      EXPECT_EQ(read_frame(*conn).h.status, Status::kOk);
    }
  }

  // Swapping an id to the WRONG family is typed and kills only that
  // stream — the sibling keeps accepting chunks.
  Frame wrong;
  wrong.h.op = Op::kDecompressStreamChunk;
  wrong.h.request_id = rid++;
  wrong.h.stream_id = a;
  wrong.payload = ramp_data(100);
  send_frame(*conn, wrong);
  EXPECT_EQ(read_frame(*conn).h.status, Status::kBadRequest);

  Frame still_ok;
  still_ok.h.op = Op::kCompressStreamChunk;
  still_ok.h.request_id = rid++;
  still_ok.h.stream_id = b;
  still_ok.payload = ramp_data(700, b);
  send_frame(*conn, still_ok);
  EXPECT_EQ(read_frame(*conn).h.status, Status::kOk);
}

TEST_P(RpcFuzz, TruncatedEndPayloadIsTypedNotFatal) {
  auto conn = hub_.connect();
  const u64 sid = raw_stream_begin(*conn, Op::kCompressStreamBegin, 1);
  Frame end;
  end.h.op = Op::kCompressStreamEnd;
  end.h.request_id = 2;
  end.h.stream_id = sid;
  end.payload.resize(rpc::kStreamEndRequestBytes - 9);  // 7 of 16 bytes
  send_frame(*conn, end);
  EXPECT_EQ(read_frame(*conn).h.status, Status::kBadRequest);
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, ForgedChecksumOnRawEndIsTyped) {
  auto conn = hub_.connect();
  const u64 sid = raw_stream_begin(*conn, Op::kCompressStreamBegin, 1);
  Frame chunk;
  chunk.h.op = Op::kCompressStreamChunk;
  chunk.h.request_id = 2;
  chunk.h.stream_id = sid;
  chunk.payload = ramp_data(900);
  send_frame(*conn, chunk);
  EXPECT_EQ(read_frame(*conn).h.status, Status::kOk);

  Frame end;
  end.h.op = Op::kCompressStreamEnd;
  end.h.request_id = 3;
  end.h.stream_id = sid;
  end.payload = rpc::encode_stream_end_request(
      rpc::StreamEndRequest{900, 0xdeadbeef});  // checksum is a lie
  send_frame(*conn, end);
  EXPECT_EQ(read_frame(*conn).h.status, Status::kBadRequest);
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, BeginReplayFloodShedsPastTheCapAndNeverWedges) {
  auto conn = hub_.connect();
  // Default cap: 4 concurrent streams per connection. A replayed Begin
  // flood gets 4 grants and then typed kQueueFull for every extra —
  // never a hang, never a dropped connection.
  int granted = 0;
  int shed = 0;
  for (u64 i = 0; i < 16; ++i) {
    Frame f;
    f.h.op = Op::kDecompressStreamBegin;
    f.h.sym_width = 1;
    f.h.request_id = i;
    send_frame(*conn, f);
    const Frame ack = read_frame(*conn);
    if (ack.h.status == Status::kOk) {
      ++granted;
    } else {
      EXPECT_EQ(ack.h.status, Status::kQueueFull);
      ++shed;
    }
  }
  EXPECT_EQ(granted, 4);
  EXPECT_EQ(shed, 12);
  expect_server_alive(hub_);
}

TEST_P(RpcFuzz, RandomStreamOpStormKeepsTheBalance) {
  auto& reg = obs::MetricsRegistry::global();
  const u64 opened0 = reg.counter(metric("streams_opened"));
  const u64 completed0 = reg.counter(metric("streams_completed"));
  const u64 aborted0 = reg.counter(metric("streams_aborted"));

  Xoshiro256 rng(777);
  for (int round = 0; round < 24; ++round) {
    auto conn = hub_.connect();
    try {
      for (u64 i = 0; i < 8; ++i) {
        Frame f;
        // Ops 6..11: the whole v3 stream family, valid and forged mixes.
        f.h.op = static_cast<Op>(6 + rng.below(6));
        f.h.sym_width = static_cast<u8>(1 + rng.below(2));
        f.h.request_id = i;
        f.h.stream_id = rng.below(4);  // mostly-unknown ids
        if (rng.below(2) == 1) f.payload = ramp_data(rng.below(600), i);
        send_frame(*conn, f);
        const Frame resp = read_frame(*conn);
        EXPECT_EQ(resp.h.request_id, i);  // typed answer, right slot
      }
      conn->shutdown();  // any stream the storm opened is now an orphan
    } catch (const TransportError&) {
      // Dropping us is an acceptable answer to garbage.
    }
  }
  expect_server_alive(hub_);
  // Quiesce, then the stream ledger must balance: everything the storm
  // opened was either completed or counted aborted at teardown.
  stop();
  const u64 opened = reg.counter(metric("streams_opened")) - opened0;
  const u64 completed = reg.counter(metric("streams_completed")) - completed0;
  const u64 aborted = reg.counter(metric("streams_aborted")) - aborted0;
  EXPECT_EQ(opened, completed + aborted);
}

}  // namespace
}  // namespace parhuff
