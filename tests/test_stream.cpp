// Protocol-v3 streaming verbs: chunked compress/decompress frames that lift
// the single-frame payload cap. Covers the wire format (stream-id slot,
// End/Summary payloads), the transparent client-side chunker, the server's
// bounded per-stream buffering, typed stream errors (unknown/forged ids,
// checksum and byte-total mismatches, paired bit-63 flips in two chunks,
// family mixing, Begin past the cap), cancel and Begin-anchored deadlines,
// the opened == completed + aborted counter balance, multi-MiB unix-socket
// frames (partial-write resume in write_two), mid-chunk truncation, and the
// full client → router → shard round trip with stream pinning, id
// translation and terminal mid-stream failover.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/format.hpp"
#include "core/streaming.hpp"
#include "golden_phf3.hpp"
#include "golden_phs2.hpp"
#include "obs/metrics.hpp"
#include "router/harness.hpp"
#include "router/router.hpp"
#include "rpc/client.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc/transport.hpp"
#include "rpc/transport_inmem.hpp"
#include "svc/deadline.hpp"
#include "util/clock.hpp"
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
using util::VirtualClock;

std::vector<u8> ramp_data(std::size_t n, u64 seed = 7) {
  Xoshiro256 rng(seed);
  std::vector<u8> v(n);
  for (auto& s : v) s = static_cast<u8>(rng.below(97));
  return v;
}

std::string unique_socket_path(const char* tag) {
  return "/tmp/parhuff_stream_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
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

/// True for what the stream writer writes today (PHS3).
bool is_phs3(std::span<const u8> bytes) {
  return bytes.size() >= 4 &&
         std::memcmp(bytes.data(), kStreamHeaderMagic, 4) == 0;
}

/// Client config with deliberately tiny bounds so a few hundred KiB is
/// enough to exercise the whole chunked path.
ClientConfig small_stream_config() {
  ClientConfig cc;
  cc.max_payload_bytes = 64 * 1024;
  cc.stream_chunk_bytes = 16 * 1024;
  return cc;
}

ServerConfig small_stream_server() {
  ServerConfig sc;
  sc.stream_chunk_bytes = 64 * 1024;
  return sc;
}

// --- Wire format. ------------------------------------------------------------

TEST(StreamProtocol, RefOpsCarryStreamIdInTheDeadlineSlot) {
  Header h;
  h.op = Op::kCompressStreamChunk;
  h.request_id = 1234;
  h.stream_id = 0xfeedfacecafef00dull;
  h.deadline_micros = 999;  // ignored on ref ops: the slot is the id
  const auto bytes = rpc::encode_header(h);
  const Header d =
      rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(bytes));
  EXPECT_EQ(d.op, Op::kCompressStreamChunk);
  EXPECT_EQ(d.stream_id, h.stream_id);
  EXPECT_EQ(d.deadline_micros, 0u);  // ref frames have no deadline
}

TEST(StreamProtocol, BeginOpsKeepTheDeadlineSemantics) {
  Header h;
  h.op = Op::kDecompressStreamBegin;
  h.deadline_micros = 5'000'000;
  const auto bytes = rpc::encode_header(h);
  const Header d =
      rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(bytes));
  EXPECT_EQ(d.deadline_micros, 5'000'000u);
  EXPECT_EQ(d.stream_id, 0u);
}

TEST(StreamProtocol, EndRequestAndSummaryRoundTrip) {
  const rpc::StreamEndRequest req{123456789, 0xabcdef0123456789ull};
  const auto req_bytes = rpc::encode_stream_end_request(req);
  ASSERT_EQ(req_bytes.size(), rpc::kStreamEndRequestBytes);
  const rpc::StreamEndRequest back =
      rpc::decode_stream_end_request(std::span<const u8>(req_bytes));
  EXPECT_EQ(back.total_bytes, req.total_bytes);
  EXPECT_EQ(back.checksum, req.checksum);

  const rpc::StreamSummary sum{11, 22, 33};
  const auto sum_bytes = rpc::encode_stream_summary(sum);
  ASSERT_EQ(sum_bytes.size(), rpc::kStreamSummaryBytes);
  const rpc::StreamSummary sback =
      rpc::decode_stream_summary(std::span<const u8>(sum_bytes));
  EXPECT_EQ(sback.bytes_in, 11u);
  EXPECT_EQ(sback.bytes_out, 22u);
  EXPECT_EQ(sback.checksum, 33u);
}

TEST(StreamProtocol, ShortEndAndSummaryPayloadsThrowTyped) {
  const std::vector<u8> short_bytes(7, 0);
  EXPECT_THROW(
      (void)rpc::decode_stream_end_request(std::span<const u8>(short_bytes)),
      ProtocolError);
  EXPECT_THROW(
      (void)rpc::decode_stream_summary(std::span<const u8>(short_bytes)),
      ProtocolError);
}

// --- Transparent chunking, loopback. -----------------------------------------

TEST(RpcStream, TransparentChunkedRoundTripLiftsTheCap) {
  LoopbackHub hub;
  RpcServer server(hub.listener(), small_stream_server());
  RpcClient cli([&] { return hub.connect(); }, small_stream_config());

  // 5x the single-frame cap: impossible as one frame, transparent as a
  // stream. The container comes back as a PHS3 streamed container.
  const auto data = ramp_data(320 * 1024);
  const std::vector<u8> container =
      cli.compress(std::vector<u8>(data)).result.get();
  ASSERT_TRUE(is_phs3(std::span<const u8>(container)));

  const std::vector<u8> round =
      cli.decompress(std::vector<u8>(container)).result.get();
  EXPECT_EQ(round, data);

  // Bounded buffering: the server never held more than a chunk-scale
  // pending buffer, no matter the total streamed size.
  EXPECT_LE(server.stream_buffer_high_water(),
            u64{64 * 1024} + (1u << 20) + u64{16 * 1024});
}

TEST(RpcStream, SixteenBitSymbolsStreamRoundTrip) {
  LoopbackHub hub;
  RpcServer server(hub.listener(), small_stream_server());
  RpcClient cli([&] { return hub.connect(); }, small_stream_config());

  Xoshiro256 rng(23);
  std::vector<u16> data(150 * 1024);
  for (auto& s : data) s = static_cast<u16>(rng.below(40000));
  std::vector<u8> raw(data.size() * 2);
  std::memcpy(raw.data(), data.data(), raw.size());

  const std::vector<u8> container =
      cli.compress(std::vector<u8>(raw), 2).result.get();
  ASSERT_TRUE(is_phs3(std::span<const u8>(container)));
  EXPECT_EQ(cli.decompress(std::vector<u8>(container), 2).result.get(), raw);
}

TEST(RpcStream, SpanOverloadStillStreamsViaOneCopy) {
  LoopbackHub hub;
  RpcServer server(hub.listener(), small_stream_server());
  RpcClient cli([&] { return hub.connect(); }, small_stream_config());

  const auto data = ramp_data(200 * 1024, 5);
  const std::vector<u8> container =
      cli.compress(std::span<const u8>(data)).result.get();
  EXPECT_EQ(cli.decompress(std::span<const u8>(container)).result.get(),
            data);
}

TEST(RpcStream, ManualVerbsChecksumAndSummary) {
  LoopbackHub hub;
  RpcServer server(hub.listener(), small_stream_server());
  RpcClient cli([&] { return hub.connect(); }, small_stream_config());

  const auto data = ramp_data(40 * 1024, 9);
  RpcCall begin = cli.stream_begin(Op::kCompressStreamBegin, 1);
  const std::vector<u8> sid_bytes = begin.result.get();
  ASSERT_EQ(sid_bytes.size(), 8u);
  u64 sid = 0;
  std::memcpy(&sid, sid_bytes.data(), 8);

  std::vector<u8> container;
  u64 checksum = kFnv1aSeed;
  const std::size_t half = data.size() / 2;
  for (const auto piece :
       {std::span<const u8>(data.data(), half),
        std::span<const u8>(data.data() + half, data.size() - half)}) {
    checksum = container_digest(piece, checksum);
    const std::vector<u8> ack =
        cli.stream_frame(Op::kCompressStreamChunk, sid, piece).result.get();
    container.insert(container.end(), ack.begin(), ack.end());
  }

  RpcCall end = cli.stream_end(Op::kCompressStreamEnd, sid, data.size(),
                               checksum);
  const rpc::StreamSummary sum =
      rpc::decode_stream_summary(std::span<const u8>(end.result.get()));
  EXPECT_EQ(sum.bytes_in, data.size());
  EXPECT_EQ(sum.bytes_out, container.size());
  EXPECT_EQ(sum.checksum, checksum);

  ASSERT_TRUE(is_phs3(std::span<const u8>(container)));
  EXPECT_EQ(cli.decompress(std::span<const u8>(container)).result.get(),
            data);
}

// --- Payloads past the single-frame cap. -------------------------------------

TEST(RpcStream, StreamingOnMakesTheSamePayloadWork) {
  LoopbackHub hub;
  RpcServer server(hub.listener(), small_stream_server());
  ClientConfig cc;
  cc.max_payload_bytes = 4096;
  cc.stream_chunk_bytes = 1024;
  RpcClient cli([&] { return hub.connect(); }, cc);

  const auto big = ramp_data(8192);
  const std::vector<u8> container =
      cli.compress(std::vector<u8>(big)).result.get();
  EXPECT_EQ(cli.decompress(std::vector<u8>(container)).result.get(), big);
}

TEST(RpcStream, OversizedMonolithicPhfContainerStillFailsTyped) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  ClientConfig cc;
  cc.max_payload_bytes = 4096;  // streaming on (default) — but PHF can't chunk
  RpcClient cli([&] { return hub.connect(); }, cc);

  std::vector<u8> fake(8192, 0x41);  // not PHS3/PHS2: no segment boundaries
  RpcCall call = cli.decompress(std::move(fake));
  try {
    (void)call.result.get();
    FAIL() << "oversized non-streamable container must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
  const auto data = ramp_data(1000);
  EXPECT_FALSE(cli.compress(std::span<const u8>(data)).result.get().empty());
}

TEST(RpcStream, HonestSegmentOverTheBufferingBoundFailsTyped) {
  LoopbackHub hub;
  RpcServer server(hub.listener(), small_stream_server());
  RpcClient cli([&] { return hub.connect(); }, small_stream_config());

  // One segment of ~6.6-bit symbols: its ~1.6 MiB frame outgrows the
  // server's 64 KiB chunk + 1 MiB buffering bound.
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  const auto data = ramp_data(2 << 20, 13);
  sc.observe(data);
  sc.freeze();
  std::vector<u8> container = sc.header();
  const std::vector<u8> frame = sc.encode_segment(data);
  ASSERT_GT(frame.size(), (64u << 10) + (1u << 20));
  container.insert(container.end(), frame.begin(), frame.end());

  try {
    (void)cli.decompress(std::move(container)).result.get();
    FAIL() << "a segment over the buffering bound must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
    EXPECT_NE(std::string(e.what()).find("exceeds the buffering bound"),
              std::string::npos)
        << e.what();
  }
  // The server survives: the next stream on the same client round-trips.
  const auto small = ramp_data(100 * 1024, 14);
  const std::vector<u8> ok = cli.compress(std::vector<u8>(small)).result.get();
  EXPECT_EQ(cli.decompress(std::vector<u8>(ok)).result.get(), small);
}

// --- Typed stream errors. ----------------------------------------------------

TEST(RpcStream, UnknownStreamIdIsTypedNotFatal) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });

  const auto data = ramp_data(1000);
  RpcCall chunk = cli.stream_frame(Op::kCompressStreamChunk, 424242,
                                   std::span<const u8>(data));
  try {
    (void)chunk.result.get();
    FAIL() << "chunk on a never-opened stream must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
  EXPECT_FALSE(cli.compress(std::span<const u8>(data)).result.get().empty());
}

TEST(RpcStream, WrongFamilyChunkAbortsTheStream) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });

  const u64 sid = [&] {
    const auto bytes =
        cli.stream_begin(Op::kCompressStreamBegin, 1).result.get();
    u64 s = 0;
    std::memcpy(&s, bytes.data(), 8);
    return s;
  }();
  const auto data = ramp_data(512);
  EXPECT_THROW((void)cli.stream_frame(Op::kDecompressStreamChunk, sid,
                                      std::span<const u8>(data))
                   .result.get(),
               RpcError);
  // The family mismatch was terminal: the id is gone now.
  try {
    (void)cli.stream_frame(Op::kCompressStreamChunk, sid,
                           std::span<const u8>(data))
        .result.get();
    FAIL() << "aborted stream id must be unknown";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
}

TEST(RpcStream, ChecksumAndByteTotalMismatchesAreTyped) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });

  const auto data = ramp_data(4096, 31);
  const auto open_and_feed = [&]() {
    const auto bytes =
        cli.stream_begin(Op::kCompressStreamBegin, 1).result.get();
    u64 s = 0;
    std::memcpy(&s, bytes.data(), 8);
    (void)cli.stream_frame(Op::kCompressStreamChunk, s,
                           std::span<const u8>(data))
        .result.get();
    return s;
  };

  const u64 forged_sum = open_and_feed();
  try {
    (void)cli.stream_end(Op::kCompressStreamEnd, forged_sum, data.size(),
                         0xbad)  // wrong checksum
        .result.get();
    FAIL() << "forged checksum must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }

  const u64 wrong_total = open_and_feed();
  try {
    (void)cli.stream_end(Op::kCompressStreamEnd, wrong_total,
                         data.size() + 1,
                         container_digest(std::span<const u8>(data)))
        .result.get();
    FAIL() << "wrong byte total must fail typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
}

/// Expects `call` to fail kBadRequest with `what` in its message.
void expect_bad_request(RpcCall call, const std::string& what) {
  try {
    (void)call.result.get();
    ADD_FAILURE() << "expected a typed failure naming \"" << what << "\"";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

u64 open_stream(RpcClient& cli, Op begin_op, u8 sym_width) {
  const auto bytes = cli.stream_begin(begin_op, sym_width).result.get();
  u64 sid = 0;
  std::memcpy(&sid, bytes.data(), 8);
  return sid;
}

TEST(RpcStream, PairedTopBitFlipsAcrossChunksFailTheChecksum) {
  // The wire twin of Format.PairedTopBitFlipsFailTheDigest. Bit 7 of byte
  // 7 of a lane is the lane's bit 63. A chain that only multiplies keeps a
  // difference there in bit 63 from chunk to chunk, so a flip in a lane of
  // chunk 1 and one in a lane of chunk 2 would cancel, and End would
  // accept bytes the sender never sent.
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });

  constexpr std::size_t kChunk = 1024;  // whole lanes: chunks start on one
  const auto data = ramp_data(3 * kChunk, 53);
  const auto chunk = [](const std::vector<u8>& v, std::size_t i) {
    return std::span<const u8>(v.data() + i * kChunk, kChunk);
  };
  u64 checksum = kFnv1aSeed;
  for (std::size_t i = 0; i < 3; ++i) {
    checksum = container_digest(chunk(data, i), checksum);
  }
  std::vector<u8> sent = data;
  sent[1 * kChunk + 3 * 8 + 7] ^= 0x80;  // lane 3 of chunk 1
  sent[2 * kChunk + 5 * 8 + 7] ^= 0x80;  // lane 5 of chunk 2

  const u64 sid = open_stream(cli, Op::kCompressStreamBegin, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    (void)cli.stream_frame(Op::kCompressStreamChunk, sid, chunk(sent, i))
        .result.get();
  }
  expect_bad_request(
      cli.stream_end(Op::kCompressStreamEnd, sid, data.size(), checksum),
      "stream checksum mismatch");

  // The abort ended that stream only: the client still round-trips.
  const std::vector<u8> container =
      cli.compress(std::span<const u8>(data)).result.get();
  EXPECT_EQ(cli.decompress(std::span<const u8>(container)).result.get(),
            data);
}

TEST(RpcStream, OddLengthU16PayloadsFailTyped) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });

  const auto odd = ramp_data(1001, 41);
  expect_bad_request(cli.compress(std::span<const u8>(odd), 2),
                     "payload is not a whole number of symbols");
  const u64 sid = open_stream(cli, Op::kCompressStreamBegin, 2);
  expect_bad_request(cli.stream_frame(Op::kCompressStreamChunk, sid,
                                      std::span<const u8>(odd)),
                     "payload is not a whole number of symbols");
  // Both were request errors: the connection still serves u16 requests.
  const std::vector<u8> even(odd.begin(), odd.end() - 1);
  const std::vector<u8> container =
      cli.compress(std::span<const u8>(even), 2).result.get();
  EXPECT_EQ(cli.decompress(std::span<const u8>(container), 2).result.get(),
            even);
}

TEST(RpcStream, ChunkOverStreamChunkBytesFailsTyped) {
  LoopbackHub hub;
  ServerConfig sc;
  sc.stream_chunk_bytes = 1024;
  RpcServer server(hub.listener(), sc);
  RpcClient cli([&] { return hub.connect(); });

  const auto data = ramp_data(1025, 43);
  for (const Op begin :
       {Op::kCompressStreamBegin, Op::kDecompressStreamBegin}) {
    const Op chunk = begin == Op::kCompressStreamBegin
                         ? Op::kCompressStreamChunk
                         : Op::kDecompressStreamChunk;
    const u64 sid = open_stream(cli, begin, 1);
    expect_bad_request(
        cli.stream_frame(chunk, sid, std::span<const u8>(data)),
        "chunk exceeds stream_chunk_bytes (1024)");
  }
}

TEST(RpcStream, DecompressVerbsReadTheFrozenPhs2AndPhf3Containers) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });

  // PHS2 through the single-frame verb, then through the stream verbs in
  // 1000-byte chunks (cut inside frames).
  const std::span<const u8> phs2(testdata::kGoldenPhs2,
                                 sizeof(testdata::kGoldenPhs2));
  const std::vector<u8> whole = cli.decompress(phs2).result.get();
  EXPECT_EQ(fnv1a(whole), testdata::kGoldenPhs2SymbolsDigest);
  const u64 sid = open_stream(cli, Op::kDecompressStreamBegin, 1);
  std::vector<u8> chunked;
  u64 checksum = kFnv1aSeed;
  for (std::size_t at = 0; at < phs2.size(); at += 1000) {
    const auto piece =
        phs2.subspan(at, std::min<std::size_t>(1000, phs2.size() - at));
    checksum = container_digest(piece, checksum);
    const std::vector<u8> out =
        cli.stream_frame(Op::kDecompressStreamChunk, sid, piece).result.get();
    chunked.insert(chunked.end(), out.begin(), out.end());
  }
  (void)cli.stream_end(Op::kDecompressStreamEnd, sid, phs2.size(), checksum)
      .result.get();
  EXPECT_EQ(chunked, whole);

  // PHF3 (GAP1 + RLE1): the verb decodes the residual symbols.
  const std::span<const u8> phf3(testdata::kGoldenPhf3,
                                 sizeof(testdata::kGoldenPhf3));
  EXPECT_EQ(fnv1a(cli.decompress(phf3).result.get()),
            testdata::kGoldenPhf3SymbolsDigest);
}

TEST(RpcStream, BeginPastTheConnectionCapIsQueueFull) {
  LoopbackHub hub;
  ServerConfig sc;
  sc.max_streams_per_connection = 1;
  RpcServer server(hub.listener(), sc);
  RpcClient cli([&] { return hub.connect(); });

  RpcCall first = cli.stream_begin(Op::kCompressStreamBegin, 1);
  EXPECT_EQ(first.result.get().size(), 8u);
  try {
    (void)cli.stream_begin(Op::kCompressStreamBegin, 1).result.get();
    FAIL() << "Begin past the stream cap must shed typed";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kQueueFull);
  }
}

TEST(RpcStream, CancelByBeginIdAbortsTheStream) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  RpcClient cli([&] { return hub.connect(); });

  RpcCall begin = cli.stream_begin(Op::kCompressStreamBegin, 1);
  const auto sid_bytes = begin.result.get();
  u64 sid = 0;
  std::memcpy(&sid, sid_bytes.data(), 8);
  cli.cancel(begin.id).get();

  const auto data = ramp_data(512);
  EXPECT_THROW((void)cli.stream_frame(Op::kCompressStreamChunk, sid,
                                      std::span<const u8>(data))
                   .result.get(),
               svc::CancelledError);
}

TEST(RpcStream, DeadlineAnchoredAtBeginCoversEveryChunk) {
  VirtualClock vc;
  LoopbackHub hub;
  ServerConfig sc;
  sc.service.clock = &vc;
  RpcServer server(hub.listener(), sc);
  RpcClient cli([&] { return hub.connect(); });

  RpcOptions opts;
  opts.deadline_seconds = 0.5;  // anchored once, at Begin
  RpcCall begin = cli.stream_begin(Op::kCompressStreamBegin, 1, opts);
  const auto sid_bytes = begin.result.get();
  u64 sid = 0;
  std::memcpy(&sid, sid_bytes.data(), 8);

  vc.advance_seconds(60.0);  // the whole-stream budget is long gone
  const auto data = ramp_data(512);
  EXPECT_THROW((void)cli.stream_frame(Op::kCompressStreamChunk, sid,
                                      std::span<const u8>(data))
                   .result.get(),
               svc::DeadlineExceeded);
}

TEST(RpcStream, CounterBalanceOverGoodBadAndOrphanedStreams) {
  auto& reg = obs::MetricsRegistry::global();
  const u64 opened0 = reg.counter("rpc.streams_opened");
  const u64 completed0 = reg.counter("rpc.streams_completed");
  const u64 aborted0 = reg.counter("rpc.streams_aborted");

  {
    LoopbackHub hub;
    auto server =
        std::make_unique<RpcServer>(hub.listener(), small_stream_server());
    RpcClient cli([&] { return hub.connect(); }, small_stream_config());

    // Clean streams (transparent chunking, completed).
    const auto data = ramp_data(96 * 1024, 77);
    const auto container = cli.compress(std::vector<u8>(data)).result.get();
    EXPECT_EQ(cli.decompress(std::vector<u8>(container)).result.get(), data);

    // An aborted stream (forged checksum at End).
    const auto sid_bytes =
        cli.stream_begin(Op::kCompressStreamBegin, 1).result.get();
    u64 sid = 0;
    std::memcpy(&sid, sid_bytes.data(), 8);
    EXPECT_THROW(
        (void)cli.stream_end(Op::kCompressStreamEnd, sid, 0, 0xbad)
            .result.get(),
        RpcError);

    // An orphaned stream: opened, never finished — connection teardown
    // must count it aborted.
    (void)cli.stream_begin(Op::kDecompressStreamBegin, 1).result.get();
    server->stop();
  }

  const u64 opened = reg.counter("rpc.streams_opened") - opened0;
  const u64 completed = reg.counter("rpc.streams_completed") - completed0;
  const u64 aborted = reg.counter("rpc.streams_aborted") - aborted0;
  EXPECT_GE(opened, 4u);  // 2 transparent + 2 manual
  EXPECT_EQ(opened, completed + aborted);
  EXPECT_GE(aborted, 2u);  // the forged End + the orphan
}

// --- Transport: multi-MiB frames and mid-chunk truncation. -------------------

TEST(UnixStream, MultiMiBFrameSurvivesPartialWrites) {
  // 8 MiB through a unix socketpair-sized kernel buffer: write_two's
  // partial-write resume (short write inside either iovec, exactly on the
  // header/payload boundary, EINTR rebuilds) is the only way this arrives
  // byte-exact.
  const std::string path = unique_socket_path("bigframe");
  auto listener = rpc::listen_unix(path);

  const std::size_t kBytes = 8 * 1024 * 1024;
  std::vector<u8> got;
  Header got_h;
  std::thread srv([&] {
    auto conn = listener->accept();
    ASSERT_NE(conn, nullptr);
    std::array<u8, rpc::kHeaderBytes> hb;
    ASSERT_TRUE(conn->read_exact(hb.data(), hb.size()));
    got_h = rpc::decode_header(std::span<const u8, rpc::kHeaderBytes>(hb));
    got.resize(got_h.payload_len);
    ASSERT_TRUE(conn->read_exact(got.data(), got.size()));
  });

  auto cli = rpc::connect_unix(path);
  Frame f;
  f.h.op = Op::kCompressStreamChunk;
  f.h.request_id = 7;
  f.h.stream_id = 99;
  f.payload = ramp_data(kBytes, 1234);
  rpc::write_frame(*cli, f);
  srv.join();

  EXPECT_EQ(got_h.stream_id, 99u);
  EXPECT_EQ(got, f.payload);
  ::unlink(path.c_str());
}

TEST(RpcStream, MidChunkTruncationDropsConnectionServerSurvives) {
  LoopbackHub hub;
  RpcServer server(hub.listener());
  {
    auto conn = hub.connect();
    Frame begin;
    begin.h.op = Op::kCompressStreamBegin;
    begin.h.sym_width = 1;
    begin.h.request_id = 1;
    send_frame(*conn, begin);
    const Frame ack = read_frame(*conn);
    ASSERT_EQ(ack.h.status, Status::kOk);

    // A chunk that declares 1000 payload bytes but delivers 100, then
    // dies: the reader's mid-payload EOF must drop the connection (and
    // teardown must count the open stream aborted), never stall.
    Frame chunk;
    chunk.h.op = Op::kCompressStreamChunk;
    chunk.h.request_id = 2;
    std::memcpy(&chunk.h.stream_id, ack.payload.data(), 8);
    chunk.payload.resize(1000, 0x33);
    const std::vector<u8> bytes = rpc::encode_frame(chunk);
    conn->write_all(bytes.data(), rpc::kHeaderBytes + 100);
    conn->shutdown();
  }

  // The server keeps serving fresh clients afterwards.
  RpcClient cli([&] { return hub.connect(); });
  const auto data = ramp_data(2000);
  EXPECT_FALSE(cli.compress(std::span<const u8>(data)).result.get().empty());
}

// --- Router: pinning, translation, terminal mid-stream failover. -------------

TEST(RouterStream, StreamsRoundTripAcrossAMultiShardFleet) {
  router::ShardHarness shards(3, small_stream_server());
  LoopbackHub front;
  router::RouterConfig rc;
  rc.start_prober = false;
  rc.client = small_stream_config();
  router::ShardRouter rtr(front.listener(), shards.endpoints(), rc);
  RpcClient cli([&] { return front.connect(); }, small_stream_config());

  // Two concurrent streams: their chunks interleave on the router
  // connection under distinct client-facing ids, and each stays pinned to
  // the single shard that holds its codec state (a chunk landing anywhere
  // else would answer unknown-stream and break the round trip).
  const auto a = ramp_data(200 * 1024, 41);
  const auto b = ramp_data(160 * 1024, 42);
  RpcCall ca = cli.compress(std::vector<u8>(a));
  RpcCall cb = cli.compress(std::vector<u8>(b));
  const std::vector<u8> container_a = ca.result.get();
  const std::vector<u8> container_b = cb.result.get();
  ASSERT_TRUE(is_phs3(std::span<const u8>(container_a)));
  EXPECT_EQ(cli.decompress(std::vector<u8>(container_a)).result.get(), a);
  EXPECT_EQ(cli.decompress(std::vector<u8>(container_b)).result.get(), b);
}

TEST(RouterStream, MidStreamShardLossIsTerminalAndTyped) {
  auto& reg = obs::MetricsRegistry::global();
  const u64 aborted0 = reg.counter("router.streams_aborted");

  router::ShardHarness shards(1);
  LoopbackHub front;
  router::RouterConfig rc;
  rc.start_prober = false;
  router::ShardRouter rtr(front.listener(), shards.endpoints(), rc);
  RpcClient cli([&] { return front.connect(); });

  const auto sid_bytes =
      cli.stream_begin(Op::kCompressStreamBegin, 1).result.get();
  u64 sid = 0;
  std::memcpy(&sid, sid_bytes.data(), 8);
  const auto data = ramp_data(4096, 55);
  EXPECT_FALSE(cli.stream_frame(Op::kCompressStreamChunk, sid,
                                std::span<const u8>(data))
                   .result.get()
                   .empty());

  shards.kill(0);
  // The next chunk hits the dead shard: terminal, typed — never replayed
  // onto another shard (which never saw the earlier chunks).
  EXPECT_THROW((void)cli.stream_frame(Op::kCompressStreamChunk, sid,
                                      std::span<const u8>(data))
                   .result.get(),
               RpcError);
  // And the id is gone: the stream cannot be resumed.
  try {
    (void)cli.stream_frame(Op::kCompressStreamChunk, sid,
                           std::span<const u8>(data))
        .result.get();
    FAIL() << "terminated stream id must be unknown";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
  EXPECT_EQ(reg.counter("router.streams_aborted") - aborted0, 1u);
}

TEST(RouterStream, ClientTeardownReapsShardStreamState) {
  router::ShardHarness shards(1);  // default cap: 4 streams per connection
  LoopbackHub front;
  router::RouterConfig rc;
  rc.start_prober = false;
  router::ShardRouter rtr(front.listener(), shards.endpoints(), rc);

  // Orphan more streams than the shard's per-connection cap: each client
  // opens a stream and dies without End. The router's teardown must force
  // the shard's half closed (poisoned End) or the cap would wedge every
  // later Begin with kQueueFull.
  for (int i = 0; i < 8; ++i) {
    RpcClient cli([&] { return front.connect(); });
    const auto sid_bytes =
        cli.stream_begin(Op::kCompressStreamBegin, 1).result.get();
    ASSERT_EQ(sid_bytes.size(), 8u);
  }

  RpcClient cli([&] { return front.connect(); }, small_stream_config());
  const auto data = ramp_data(100 * 1024, 66);
  std::vector<u8> container;
  // The reap is asynchronous (fire-and-forget poisoned End): retry
  // briefly instead of assuming it landed before our Begin.
  for (int attempt = 0;; ++attempt) {
    try {
      container = cli.compress(std::vector<u8>(data)).result.get();
      break;
    } catch (const RpcError& e) {
      ASSERT_EQ(e.status(), Status::kQueueFull);
      ASSERT_LT(attempt, 100) << "orphaned streams were never reaped";
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_EQ(cli.decompress(std::vector<u8>(container)).result.get(), data);
}

// --- The acceptance path: a payload far past the old cap, end to end. --------
//
// Default 256 MiB (the paper-scale case the 64 MiB cap broke); override
// with PARHUFF_STREAM_BYTES for slower instrumented builds (CI sets 8 MiB
// under TSan/ASan).

TEST(RouterStream, HugePayloadRoundTripsOverUnixSockets) {
  std::size_t bytes = 256ull * 1024 * 1024;
  if (const char* env = std::getenv("PARHUFF_STREAM_BYTES")) {
    bytes = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    ASSERT_GT(bytes, 0u);
  }

  const std::string s0 = unique_socket_path("shard0");
  const std::string s1 = unique_socket_path("shard1");
  const std::string rp = unique_socket_path("router");
  ServerConfig sc;  // default 4 MiB chunks, 64 MiB frame cap
  RpcServer shard0(rpc::listen_unix(s0), sc);
  RpcServer shard1(rpc::listen_unix(s1), sc);
  std::vector<router::ShardEndpoint> eps;
  eps.push_back({"s0", [s0] { return rpc::connect_unix(s0); }});
  eps.push_back({"s1", [s1] { return rpc::connect_unix(s1); }});
  router::RouterConfig rc;
  rc.start_prober = false;
  router::ShardRouter rtr(rpc::listen_unix(rp), std::move(eps), rc);

  ClientConfig cc;
  // Stream anything past one chunk; scale the threshold down with small
  // PARHUFF_STREAM_BYTES overrides so the payload always takes the
  // streamed path regardless of the configured size.
  cc.stream_threshold_bytes = static_cast<u32>(
      std::min<std::size_t>(4u << 20, std::max<std::size_t>(bytes / 4, 1)));
  RpcClient cli([rp] { return rpc::connect_unix(rp); }, cc);

  auto& reg = obs::MetricsRegistry::global();
  const u64 opened0 = reg.counter("router.streams_opened");
  const u64 completed0 = reg.counter("router.streams_completed");

  const auto data = ramp_data(bytes, 2026);
  const std::vector<u8> container =
      cli.compress(std::vector<u8>(data)).result.get();
  ASSERT_TRUE(is_phs3(std::span<const u8>(container)));
  const std::vector<u8> round =
      cli.decompress(std::vector<u8>(container)).result.get();
  ASSERT_EQ(round.size(), data.size());
  EXPECT_EQ(round, data);

  // Server-side buffering stayed chunk-scale while hundreds of MiB
  // streamed through: the bounded-memory contract, test-asserted.
  const u64 bound = u64{sc.stream_chunk_bytes} + (1u << 20) + (4u << 20);
  EXPECT_LE(shard0.stream_buffer_high_water(), bound);
  EXPECT_LE(shard1.stream_buffer_high_water(), bound);

  // Both streams (compress + decompress) opened and completed cleanly
  // through the router.
  EXPECT_EQ(reg.counter("router.streams_opened") - opened0, 2u);
  EXPECT_EQ(reg.counter("router.streams_completed") - completed0, 2u);

  ::unlink(s0.c_str());
  ::unlink(s1.c_str());
  ::unlink(rp.c_str());
}

}  // namespace
}  // namespace parhuff
