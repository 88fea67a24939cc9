// Sharded router front-end: rendezvous-hash properties (determinism, seed
// sensitivity, minimal disruption), the ShardHealth state machine, the
// scale-invariant routing key, proxy round-trips through an unmodified
// RpcClient, cache-affinity vs round-robin, the kill-one-of-three failover
// drill with exact terminal accounting (routed == forwarded + failed_over
// + shed), all-shards-down load shedding, deadline passthrough, the
// router fault-storm soak, and lifecycle/probing behavior.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/quant.hpp"
#include "obs/metrics.hpp"
#include "router/harness.hpp"
#include "router/hash.hpp"
#include "router/health.hpp"
#include "router/router.hpp"
#include "rpc/client.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc/transport_inmem.hpp"
#include "svc/deadline.hpp"
#include "util/fault_inject.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

using router::HealthPolicy;
using router::RouterConfig;
using router::ShardEndpoint;
using router::ShardHarness;
using router::ShardHealth;
using router::ShardRouter;
using rpc::ClientConfig;
using rpc::LoopbackHub;
using rpc::Op;
using rpc::RpcCall;
using rpc::RpcClient;
using rpc::RpcError;
using rpc::RpcOptions;
using rpc::ServerConfig;
using rpc::Status;
using rpc::TransportError;
using util::FaultInjector;
using util::ScopedFaults;

std::vector<u8> ramp_data(std::size_t n, u64 seed = 7) {
  Xoshiro256 rng(seed);
  std::vector<u8> v(n);
  for (auto& s : v) s = static_cast<u8>(rng.below(97));
  return v;
}

/// Payload `j` draws from an alphabet of j+2 symbols, so every j has a
/// distinct support set and therefore a distinct histogram fingerprint.
std::vector<u8> shaped_payload(std::size_t j, std::size_t n = 8000) {
  std::vector<u8> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<u8>(i % (j + 2));
  }
  return v;
}

/// Shard ServerConfig tuned for tests: immediate dispatch (no batch
/// window parking), small worker pool.
ServerConfig shard_config() {
  ServerConfig sc;
  sc.service.workers = 2;
  sc.service.batch_max_requests = 1;
  return sc;
}

/// RouterConfig tuned for tests: no background prober (tests call
/// probe_now() for determinism), fast backend redial budget.
RouterConfig router_config() {
  RouterConfig rc;
  rc.start_prober = false;
  rc.client.connect_attempts = 3;
  return rc;
}

struct RouterCounters {
  u64 routed, forwarded, failed_over, shed;
  u64 received, written, dropped, perr;
};

RouterCounters snap_counters() {
  auto& reg = obs::MetricsRegistry::global();
  return RouterCounters{
      reg.counter("router.routed"),         reg.counter("router.forwarded"),
      reg.counter("router.failed_over"),    reg.counter("router.shed"),
      reg.counter("router.requests_received"),
      reg.counter("router.responses_written"),
      reg.counter("router.responses_dropped"),
      reg.counter("router.protocol_error_responses")};
}

// --- Rendezvous hashing. -----------------------------------------------------

TEST(RouterHash, OrderIsDeterministicAndTotal) {
  for (u64 key : {0ull, 1ull, 0xdeadbeefull, ~0ull}) {
    const auto a = router::rendezvous_order(key, 5, 42);
    const auto b = router::rendezvous_order(key, 5, 42);
    EXPECT_EQ(a, b);
    std::set<u32> distinct(a.begin(), a.end());
    EXPECT_EQ(distinct.size(), 5u);  // a permutation, nothing dropped
  }
}

TEST(RouterHash, SeedReshufflesTheKeySpace) {
  int moved = 0;
  for (u64 key = 0; key < 64; ++key) {
    const auto a = router::rendezvous_order(key, 4, 1);
    const auto b = router::rendezvous_order(key, 4, 2);
    if (a[0] != b[0]) ++moved;
  }
  // Independent seeds agree on a key's home shard only by chance (~1/4).
  EXPECT_GT(moved, 32);
}

TEST(RouterHash, RemovingAShardOnlyRemapsItsOwnKeys) {
  constexpr std::size_t kShards = 4;
  constexpr u64 kSeed = 99;
  for (u64 key = 0; key < 256; ++key) {
    const auto before = router::rendezvous_order(key, kShards, kSeed);
    // "Remove" shard 3 by skipping it in the candidate list: the classic
    // rendezvous guarantee is that every key whose home shard survives
    // keeps exactly that home shard.
    if (before[0] != 3) {
      std::vector<u32> after;
      for (u32 s : before) {
        if (s != 3) after.push_back(s);
      }
      EXPECT_EQ(after[0], before[0]);
    } else {
      // A displaced key falls through to its second choice, which is its
      // first choice among the survivors.
      EXPECT_NE(before[1], 3u);
    }
  }
}

TEST(RouterHash, KeysSpreadRoughlyEvenlyAcrossShards) {
  constexpr std::size_t kShards = 3;
  constexpr int kKeys = 3000;
  std::array<int, kShards> load{};
  Xoshiro256 rng(17);
  for (int i = 0; i < kKeys; ++i) {
    ++load[router::rendezvous_order(rng.next(), kShards, 7)[0]];
  }
  for (const int l : load) {
    EXPECT_GT(l, kKeys / kShards / 2);
    EXPECT_LT(l, kKeys * 2 / static_cast<int>(kShards));
  }
}

// --- Shard health state machine. ---------------------------------------------

TEST(RouterHealthState, TripsAfterConsecutiveFailuresAndResets) {
  HealthPolicy pol;
  pol.unhealthy_after = 3;
  ShardHealth h;
  EXPECT_TRUE(h.healthy());
  h.note_failure(pol);
  h.note_failure(pol);
  EXPECT_TRUE(h.healthy());  // 2 of 3: not yet
  h.note_failure(pol);
  EXPECT_FALSE(h.healthy());
  h.note_success();
  EXPECT_TRUE(h.healthy());
  EXPECT_EQ(h.consecutive_failures(), 0);
}

TEST(RouterHealthState, SuccessBetweenFailuresPreventsTripping) {
  HealthPolicy pol;
  pol.unhealthy_after = 2;
  ShardHealth h;
  for (int i = 0; i < 10; ++i) {
    h.note_failure(pol);
    h.note_success();  // alternating: never two in a row
  }
  EXPECT_TRUE(h.healthy());
}

TEST(RouterHealthState, ProbeNotAcceptingCountsAsFailure) {
  HealthPolicy pol;
  pol.unhealthy_after = 2;
  ShardHealth h;
  rpc::HealthInfo draining;
  draining.accepting = false;
  h.note_probe(draining, pol);
  h.note_probe(draining, pol);
  EXPECT_FALSE(h.healthy());
}

TEST(RouterHealthState, ProbeSetsAndClearsSaturation) {
  HealthPolicy pol;
  pol.saturation_fraction = 0.5;
  ShardHealth h;
  rpc::HealthInfo info;
  info.queue_depth = 6;
  info.queue_capacity = 10;
  h.note_probe(info, pol);
  EXPECT_TRUE(h.saturated());
  EXPECT_TRUE(h.healthy());
  EXPECT_FALSE(h.available());  // saturated shards are routed around
  info.queue_depth = 1;
  h.note_probe(info, pol);
  EXPECT_FALSE(h.saturated());
  EXPECT_TRUE(h.available());
}

TEST(RouterHealthState, QueueFullIsStickyUntilAProbeClearsIt) {
  HealthPolicy pol;
  ShardHealth h;
  h.note_queue_full();
  EXPECT_TRUE(h.saturated());
  h.note_success();  // a served request does NOT clear saturation
  EXPECT_TRUE(h.saturated());
  rpc::HealthInfo drained;  // depth 0 / capacity 10: below any line
  drained.queue_capacity = 10;
  h.note_probe(drained, pol);
  EXPECT_FALSE(h.saturated());
}

// --- Routing key. ------------------------------------------------------------

TEST(RouterKey, SameHistogramShapeSameKeyAcrossScales) {
  // A slice and a 4x repetition have identical shape: equal keys, so both
  // land on the same (cache-warm) shard.
  const auto small = shaped_payload(3, 4000);
  std::vector<u8> big;
  for (int i = 0; i < 4; ++i) big.insert(big.end(), small.begin(), small.end());
  const u64 a = ShardRouter::route_key(Op::kCompress, 1,
                                       std::span<const u8>(small));
  const u64 b =
      ShardRouter::route_key(Op::kCompress, 1, std::span<const u8>(big));
  EXPECT_EQ(a, b);
}

TEST(RouterKey, DifferentSupportDifferentKey) {
  std::set<u64> keys;
  for (std::size_t j = 0; j < 8; ++j) {
    const auto p = shaped_payload(j);
    keys.insert(
        ShardRouter::route_key(Op::kCompress, 1, std::span<const u8>(p)));
  }
  EXPECT_EQ(keys.size(), 8u);
}

TEST(RouterKey, DecompressKeyIsDeterministicPerContainer) {
  const auto c1 = ramp_data(5000, 1);
  const auto c2 = ramp_data(5000, 2);
  EXPECT_EQ(
      ShardRouter::route_key(Op::kDecompress, 1, std::span<const u8>(c1)),
      ShardRouter::route_key(Op::kDecompress, 1, std::span<const u8>(c1)));
  EXPECT_NE(
      ShardRouter::route_key(Op::kDecompress, 1, std::span<const u8>(c1)),
      ShardRouter::route_key(Op::kDecompress, 1, std::span<const u8>(c2)));
}

// --- Proxy round-trips. ------------------------------------------------------

TEST(RouterProxy, CompressAndDecompressRoundTripThroughRouter) {
  ShardHarness shards(3, shard_config());
  LoopbackHub front;
  ShardRouter rt(front.listener(), shards.endpoints(), router_config());
  RpcClient cli([&] { return front.connect(); });

  const auto data = ramp_data(20000);
  const std::vector<u8> container =
      cli.compress(std::span<const u8>(data)).result.get();
  ASSERT_FALSE(container.empty());
  EXPECT_EQ(cli.decompress(std::span<const u8>(container)).result.get(),
            data);

  // u16 traffic takes the 65536-bin key path.
  Xoshiro256 rng(3);
  std::vector<u16> wide(6000);
  for (auto& s : wide) s = static_cast<u16>(rng.below(40000));
  const std::vector<u8> c16 =
      cli.compress_data<u16>(std::span<const u16>(wide)).result.get();
  ASSERT_FALSE(c16.empty());
  const std::vector<u8> raw16 =
      cli.decompress(std::span<const u8>(c16), 2).result.get();
  ASSERT_EQ(raw16.size(), wide.size() * 2);
  EXPECT_EQ(0, std::memcmp(raw16.data(), wide.data(), raw16.size()));
}

TEST(RouterProxy, StatsVerbAnswersFromTheRouter) {
  ShardHarness shards(2, shard_config());
  LoopbackHub front;
  ShardRouter rt(front.listener(), shards.endpoints(), router_config());
  RpcClient cli([&] { return front.connect(); });
  const std::string stats = cli.stats().get();
  EXPECT_NE(stats.find("router-stats"), std::string::npos);
}

TEST(RouterProxy, HealthVerbReportsFleetAvailability) {
  ShardHarness shards(3, shard_config());
  LoopbackHub front;
  ShardRouter rt(front.listener(), shards.endpoints(), router_config());
  RpcClient cli([&] { return front.connect(); });

  rpc::HealthInfo info = cli.health().get();
  EXPECT_TRUE(info.accepting);
  EXPECT_EQ(info.queue_capacity, 3u);  // fleet size
  EXPECT_EQ(info.queue_depth, 0u);     // everyone available

  // Kill one shard and let probes trip it: the fleet report follows.
  shards.kill(1);
  rt.probe_now();
  rt.probe_now();  // unhealthy_after = 2
  EXPECT_FALSE(rt.shard_healthy(1));
  info = cli.health().get();
  EXPECT_EQ(info.queue_depth, 1u);
}

TEST(RouterProxy, CancelOfUnknownIdIsIdempotent) {
  ShardHarness shards(2, shard_config());
  LoopbackHub front;
  ShardRouter rt(front.listener(), shards.endpoints(), router_config());
  RpcClient cli([&] { return front.connect(); });
  EXPECT_NO_THROW(cli.cancel(0xfeedfaceull).get());
  const auto data = ramp_data(1000);
  EXPECT_FALSE(cli.compress(std::span<const u8>(data)).result.get().empty());
}

TEST(RouterProxy, StreamFrameErrorsEchoTheClientStreamId) {
  // A typed error answering a Chunk/End frame carries the client-facing
  // stream id — the router answers exactly like a server does, whether it
  // rejects the frame itself or relays the shard's verdict.
  ShardHarness shards(1, shard_config());
  LoopbackHub front;
  ShardRouter rt(front.listener(), shards.endpoints(), router_config());
  auto conn = front.connect();
  const auto exchange = [&](const rpc::Frame& f) {
    const std::vector<u8> bytes = rpc::encode_frame(f);
    conn->write_all(bytes.data(), bytes.size());
    std::array<u8, rpc::kHeaderBytes> hb;
    EXPECT_TRUE(conn->read_exact(hb.data(), hb.size()));
    rpc::Frame resp;
    resp.h = rpc::decode_header(
        std::span<const u8, rpc::kHeaderBytes>(hb),
        rpc::response_payload_bound(rpc::kMaxPayloadBytes));
    resp.payload.resize(resp.h.payload_len);
    EXPECT_TRUE(resp.payload.empty() ||
                conn->read_exact(resp.payload.data(), resp.payload.size()));
    return resp;
  };

  rpc::Frame chunk;
  chunk.h.op = Op::kCompressStreamChunk;
  chunk.h.request_id = 1;
  chunk.h.stream_id = 0xabcdef;  // never opened
  chunk.payload = ramp_data(100);
  const rpc::Frame unknown = exchange(chunk);
  EXPECT_EQ(unknown.h.status, Status::kBadRequest);
  EXPECT_EQ(unknown.h.request_id, 1u);
  EXPECT_EQ(unknown.h.stream_id, 0xabcdefu);

  rpc::Frame begin;
  begin.h.op = Op::kCompressStreamBegin;
  begin.h.request_id = 2;
  const rpc::Frame ack = exchange(begin);
  ASSERT_EQ(ack.h.status, Status::kOk);
  ASSERT_EQ(ack.payload.size(), 8u);
  u64 sid = 0;
  std::memcpy(&sid, ack.payload.data(), 8);

  rpc::Frame end;
  end.h.op = Op::kCompressStreamEnd;
  end.h.request_id = 3;
  end.h.stream_id = sid;
  end.payload = rpc::encode_stream_end_request(
      rpc::StreamEndRequest{12345, 0});  // no such byte count was sent
  const rpc::Frame relayed = exchange(end);
  EXPECT_EQ(relayed.h.status, Status::kBadRequest);
  EXPECT_EQ(relayed.h.request_id, 3u);
  EXPECT_EQ(relayed.h.stream_id, sid);
}

TEST(RouterProxy, LossyVerbsRoundTripThroughRouter) {
  ShardHarness shards(3, shard_config());
  LoopbackHub front;
  RouterConfig rc = router_config();
  ShardRouter rt(front.listener(), shards.endpoints(), rc);
  RpcClient cli([&] { return front.connect(); });

  const data::Dims dims{24, 24, 12};
  std::vector<float> field(dims.total());
  for (std::size_t i = 0; i < field.size(); ++i) {
    field[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.01));
  }
  rpc::LossyRequestHeader cfg;
  cfg.nx = dims.nx;
  cfg.ny = dims.ny;
  cfg.nz = dims.nz;
  cfg.rel_error_bound = 1e-3;
  cfg.nbins = 1024;
  cfg.rle_min_run = 64;

  const std::vector<u8> container =
      cli.lossy_compress(std::span<const float>(field), cfg).result.get();
  ASSERT_FALSE(container.empty());
  EXPECT_EQ(0, std::memcmp(container.data(), "PHL2", 4));

  const auto [fh, values] = rpc::decode_lossy_field_payload(
      cli.lossy_decompress(std::span<const u8>(container)).result.get());
  ASSERT_EQ(values.size(), field.size());
  double worst = 0;
  for (std::size_t i = 0; i < field.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(field[i]) -
                                     static_cast<double>(values[i])));
  }
  EXPECT_LE(worst, fh.error_bound);

  // Bad lossy requests come back typed through the proxy hop, not hung.
  rpc::LossyRequestHeader bad = cfg;
  bad.nx = dims.nx + 1;
  try {
    (void)cli.lossy_compress(std::span<const float>(field), bad)
        .result.get();
    FAIL() << "dims mismatch must fail typed through the router";
  } catch (const RpcError& e) {
    EXPECT_EQ(e.status(), Status::kBadRequest);
  }
}

TEST(RouterAffinity, LossyConfigEqualTrafficSticksToItsHomeShard) {
  // The lossy route key hashes the 48-byte request header (the quantizer
  // config), not the field samples — successive timesteps of one variable
  // share dims/eb/nbins and must keep landing on the shard whose codebook
  // cache they warmed.
  ShardHarness shards(3, shard_config());
  LoopbackHub front;
  RouterConfig rc = router_config();
  ShardRouter rt(front.listener(), shards.endpoints(), rc);
  RpcClient cli([&] { return front.connect(); });

  const data::Dims dims{16, 16, 8};
  rpc::LossyRequestHeader cfg;
  cfg.nx = dims.nx;
  cfg.ny = dims.ny;
  cfg.nz = dims.nz;
  cfg.rel_error_bound = 1e-3;
  cfg.nbins = 1024;

  // Predict the home shard from the wire payload the client will build.
  std::vector<u8> wire = rpc::encode_lossy_request_header(cfg);
  const u64 key = ShardRouter::route_key(Op::kLossyCompress, 2,
                                         std::span<const u8>(wire));
  const u32 home = router::rendezvous_order(key, 3, rc.hash_seed)[0];
  const u64 home_before = rt.shard_served(home);

  constexpr int kRepeats = 4;
  for (int r = 0; r < kRepeats; ++r) {
    // A different "timestep" each round: same config, different samples.
    std::vector<float> field(dims.total());
    for (std::size_t i = 0; i < field.size(); ++i) {
      field[i] = static_cast<float>(
          std::sin(static_cast<double>(i) * 0.01 + 0.3 * r));
    }
    ASSERT_FALSE(cli.lossy_compress(std::span<const float>(field), cfg)
                     .result.get()
                     .empty());
  }
  EXPECT_EQ(rt.shard_served(home) - home_before,
            static_cast<u64>(kRepeats))
      << "config-equal lossy traffic strayed from its home shard";
}

// --- Affinity. ---------------------------------------------------------------

TEST(RouterAffinity, ConfigEqualTrafficSticksToItsHomeShard) {
  ShardHarness shards(3, shard_config());
  LoopbackHub front;
  RouterConfig rc = router_config();
  ShardRouter rt(front.listener(), shards.endpoints(), rc);
  RpcClient cli([&] { return front.connect(); });

  constexpr std::size_t kShapes = 6;
  constexpr int kRepeats = 4;
  std::array<u64, 3> served_before{};
  for (std::size_t s = 0; s < 3; ++s) served_before[s] = rt.shard_served(s);

  for (std::size_t j = 0; j < kShapes; ++j) {
    const auto payload = shaped_payload(j);
    const u64 key =
        ShardRouter::route_key(Op::kCompress, 1, std::span<const u8>(payload));
    const u32 home = router::rendezvous_order(key, 3, rc.hash_seed)[0];
    const u64 home_before = rt.shard_served(home);
    for (int r = 0; r < kRepeats; ++r) {
      ASSERT_FALSE(
          cli.compress(std::span<const u8>(payload)).result.get().empty());
    }
    // Every repeat of this shape landed on its predicted home shard.
    EXPECT_EQ(rt.shard_served(home) - home_before,
              static_cast<u64>(kRepeats))
        << "shape " << j << " strayed from its home shard";
  }
  u64 total = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    total += rt.shard_served(s) - served_before[s];
  }
  EXPECT_EQ(total, kShapes * kRepeats);
}

TEST(RouterAffinity, AffinityBeatsRoundRobinOnCodebookCacheMisses) {
  auto& reg = obs::MetricsRegistry::global();
  // 7 shapes against 3 shards: the round-robin stride is coprime with the
  // fleet, so every shape visits every shard (a stride divisible by the
  // shard count would fake affinity by accident).
  constexpr std::size_t kShapes = 7;
  constexpr int kRepeats = 3;

  // Phase 1: the same traffic through the router — each shape keeps
  // hitting the shard whose codebook cache it already warmed.
  u64 misses_router = 0;
  {
    ShardHarness shards(3, shard_config());
    LoopbackHub front;
    ShardRouter rt(front.listener(), shards.endpoints(), router_config());
    RpcClient cli([&] { return front.connect(); });
    const u64 miss0 = reg.counter("svc.cache_misses");
    for (int r = 0; r < kRepeats; ++r) {
      for (std::size_t j = 0; j < kShapes; ++j) {
        const auto payload = shaped_payload(j);
        ASSERT_FALSE(
            cli.compress(std::span<const u8>(payload)).result.get().empty());
      }
    }
    misses_router = reg.counter("svc.cache_misses") - miss0;
  }

  // Phase 2: round-robin across three direct clients on a fresh (cold)
  // fleet — every shard has to build every shape's codebook itself.
  u64 misses_rr = 0;
  {
    ShardHarness shards(3, shard_config());
    std::vector<std::unique_ptr<RpcClient>> clis;
    for (std::size_t s = 0; s < 3; ++s) {
      clis.push_back(std::make_unique<RpcClient>(
          [&shards, s] { return shards.connect(s); }));
    }
    const u64 miss0 = reg.counter("svc.cache_misses");
    int next = 0;
    for (int r = 0; r < kRepeats; ++r) {
      for (std::size_t j = 0; j < kShapes; ++j) {
        const auto payload = shaped_payload(j);
        ASSERT_FALSE(clis[static_cast<std::size_t>(next)]
                         ->compress(std::span<const u8>(payload))
                         .result.get()
                         .empty());
        next = (next + 1) % 3;
      }
    }
    misses_rr = reg.counter("svc.cache_misses") - miss0;
  }

  // Affinity builds each shape's codebook once fleet-wide (~kShapes
  // misses); round-robin builds it once per shard (~3x). The strict
  // inequality is the acceptance criterion; the 2x margin guards the
  // signal against incidental misses.
  EXPECT_LT(misses_router, misses_rr);
  EXPECT_GE(misses_rr, misses_router * 2);
}

// --- Failover under load. ----------------------------------------------------

TEST(RouterFailover, KillOneOfThreeUnderLoadEveryFutureResolves) {
  const RouterCounters c0 = snap_counters();
  ShardHarness shards(3, shard_config());
  LoopbackHub front;
  RouterConfig rc = router_config();
  rc.max_connections = 4;
  auto rt = std::make_unique<ShardRouter>(front.listener(),
                                          shards.endpoints(), rc);
  RpcClient cli([&] { return front.connect(); });

  // Open-loop: fire everything without awaiting, kill a shard mid-burst,
  // then await every future. The invariant is resolution — value or typed
  // error — for all of them, with exact terminal accounting.
  constexpr int kRequests = 48;
  std::vector<std::vector<u8>> payloads;
  std::vector<RpcCall> calls;
  payloads.reserve(kRequests);
  calls.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    payloads.push_back(shaped_payload(static_cast<std::size_t>(i % 8),
                                      4000 + 100 * (i % 5)));
  }
  for (int i = 0; i < kRequests / 2; ++i) {
    calls.push_back(cli.compress(std::span<const u8>(payloads[i])));
  }
  shards.kill(0);  // mid-burst: in-flight requests on shard 0 die with it
  for (int i = kRequests / 2; i < kRequests; ++i) {
    calls.push_back(cli.compress(std::span<const u8>(payloads[i])));
  }

  int ok = 0, typed = 0, transport = 0;
  for (auto& c : calls) {
    try {
      if (c.result.get().empty()) throw std::runtime_error("empty");
      ++ok;
    } catch (const RpcError&) {
      ++typed;
    } catch (const TransportError&) {
      ++transport;
    }
  }
  EXPECT_EQ(ok + typed + transport, kRequests);
  EXPECT_EQ(transport, 0) << "client->router connection must survive";
  // Two live shards: most traffic lands, the dead shard's keys fail over.
  EXPECT_GT(ok, kRequests / 2);

  // The dead shard trips unhealthy via passive signals and probes.
  rt->probe_now();
  rt->probe_now();
  EXPECT_FALSE(rt->shard_healthy(0));
  EXPECT_TRUE(rt->shard_healthy(1));
  EXPECT_TRUE(rt->shard_healthy(2));

  // A restarted shard rejoins after one good probe.
  shards.restart(0);
  rt->probe_now();
  EXPECT_TRUE(rt->shard_healthy(0));
  const auto again = shaped_payload(0, 4000);
  EXPECT_FALSE(
      cli.compress(std::span<const u8>(again)).result.get().empty());

  rt->stop();
  const RouterCounters c1 = snap_counters();
  // Terminal accounting: every routed request ended exactly once.
  EXPECT_EQ(c1.routed - c0.routed, static_cast<u64>(kRequests) + 1);
  EXPECT_EQ(c1.routed - c0.routed, (c1.forwarded - c0.forwarded) +
                                       (c1.failed_over - c0.failed_over) +
                                       (c1.shed - c0.shed));
  EXPECT_GT(c1.failed_over - c0.failed_over, 0u)
      << "killing a shard mid-burst must exercise failover";
  // Response-stream accounting mirrors the RpcServer invariant.
  EXPECT_EQ((c1.written - c0.written) + (c1.dropped - c0.dropped),
            (c1.received - c0.received) + (c1.perr - c0.perr));
}

TEST(RouterLoadShed, AllShardsDownShedsTypedInsteadOfHanging) {
  const RouterCounters c0 = snap_counters();
  ShardHarness shards(2, shard_config());
  LoopbackHub front;
  auto rt = std::make_unique<ShardRouter>(front.listener(),
                                          shards.endpoints(),
                                          router_config());
  RpcClient cli([&] { return front.connect(); });

  const auto data = ramp_data(2000);
  ASSERT_FALSE(cli.compress(std::span<const u8>(data)).result.get().empty());
  shards.kill(0);
  shards.kill(1);

  for (int i = 0; i < 4; ++i) {
    RpcCall call = cli.compress(std::span<const u8>(data));
    try {
      (void)call.result.get();
      FAIL() << "request against a dead fleet must fail typed";
    } catch (const RpcError& e) {
      EXPECT_EQ(e.status(), Status::kQueueFull);
    }
  }

  rt->stop();
  const RouterCounters c1 = snap_counters();
  EXPECT_EQ(c1.shed - c0.shed, 4u);
  EXPECT_EQ(c1.routed - c0.routed, (c1.forwarded - c0.forwarded) +
                                       (c1.failed_over - c0.failed_over) +
                                       (c1.shed - c0.shed));
}

TEST(RouterLoadShed, MaxRouteAttemptsBoundsTheFailoverWalk) {
  ShardHarness shards(3, shard_config());
  LoopbackHub front;
  RouterConfig rc = router_config();
  rc.max_route_attempts = 1;  // home shard or nothing
  ShardRouter rt(front.listener(), shards.endpoints(), rc);
  RpcClient cli([&] { return front.connect(); });

  // Find a payload homed on shard 0, then kill exactly that shard: with a
  // 1-attempt budget the request must shed even though 2 shards are fine.
  std::vector<u8> homed;
  for (std::size_t j = 0; j < 32; ++j) {
    auto p = shaped_payload(j, 3000);
    const u64 key =
        ShardRouter::route_key(Op::kCompress, 1, std::span<const u8>(p));
    if (router::rendezvous_order(key, 3, rc.hash_seed)[0] == 0) {
      homed = std::move(p);
      break;
    }
  }
  ASSERT_FALSE(homed.empty());
  ASSERT_FALSE(
      cli.compress(std::span<const u8>(homed)).result.get().empty());
  shards.kill(0);
  RpcCall call = cli.compress(std::span<const u8>(homed));
  EXPECT_THROW((void)call.result.get(), RpcError);
}

// --- Deadlines through the proxy hop. ----------------------------------------

TEST(RouterDeadline, HopelessDeadlineIsTerminalNotFailedOver) {
  auto& reg = obs::MetricsRegistry::global();
  ShardHarness shards(3, shard_config());
  LoopbackHub front;
  ShardRouter rt(front.listener(), shards.endpoints(), router_config());
  RpcClient cli([&] { return front.connect(); });

  const auto data = ramp_data(20000);
  const u64 failed_over0 = reg.counter("router.failed_over");
  RpcOptions opts;
  opts.deadline_seconds = 1e-6;  // hopeless before it leaves the router
  RpcCall call = cli.compress(std::span<const u8>(data), 1, opts);
  EXPECT_THROW((void)call.result.get(), svc::DeadlineExceeded);
  // A deadline miss proves the shard is alive: no failover, no health
  // penalty — a second shard cannot beat an expired budget.
  EXPECT_EQ(reg.counter("router.failed_over"), failed_over0);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_TRUE(rt.shard_healthy(s));
}

// --- Fault storm. ------------------------------------------------------------

TEST(RouterFaultStorm, ArmedRouterSitesEveryFutureStillResolves) {
  const RouterCounters c0 = snap_counters();

  ScopedFaults scope(FaultInjector::global());
  scope.arm("router.route", 0.05)
      .arm("router.proxy.write", 0.05)
      .arm("router.health.probe", 0.25)
      .arm("rpc.server.read", 0.02)
      .arm("rpc.server.write", 0.02);

  ShardHarness shards(3, shard_config());
  LoopbackHub front;
  RouterConfig rc = router_config();
  rc.client.connect_attempts = 20;
  auto rt = std::make_unique<ShardRouter>(front.listener(),
                                          shards.endpoints(), rc);
  ClientConfig cc;
  cc.connect_attempts = 20;
  RpcClient cli([&] { return front.connect(); }, cc);

  const auto data = ramp_data(6000);
  std::vector<u8> container;
  for (int i = 0; i < 50 && container.empty(); ++i) {
    try {
      container = cli.compress(std::span<const u8>(data)).result.get();
    } catch (const std::exception&) {
    }
  }
  ASSERT_FALSE(container.empty()) << "no compress survived the storm seed";

  constexpr int kRequests = 48;
  int ok = 0, typed = 0, transport = 0, cancel_deadline = 0;
  for (int i = 0; i < kRequests; ++i) {
    try {
      if (i % 2 == 0) {
        if (cli.compress(std::span<const u8>(data)).result.get().empty()) {
          throw std::runtime_error("empty");
        }
      } else {
        if (cli.decompress(std::span<const u8>(container)).result.get() !=
            data) {
          throw std::runtime_error("mismatch");
        }
      }
      ++ok;
    } catch (const TransportError&) {
      ++transport;
    } catch (const RpcError&) {
      ++typed;
    } catch (const svc::CancelledError&) {
      ++cancel_deadline;
    } catch (const svc::DeadlineExceeded&) {
      ++cancel_deadline;
    }
    if (i % 8 == 0) rt->probe_now();  // storm the probe site too
  }
  EXPECT_EQ(ok + typed + transport + cancel_deadline, kRequests);
  EXPECT_GT(ok, 0) << "storm killed every request — probabilities too hot";

  rt->stop();
  const RouterCounters c1 = snap_counters();
  // Both balances hold under injected faults: that is the soak's point.
  EXPECT_EQ(c1.routed - c0.routed, (c1.forwarded - c0.forwarded) +
                                       (c1.failed_over - c0.failed_over) +
                                       (c1.shed - c0.shed));
  EXPECT_EQ((c1.written - c0.written) + (c1.dropped - c0.dropped),
            (c1.received - c0.received) + (c1.perr - c0.perr));
}

// --- Lifecycle. --------------------------------------------------------------

TEST(RouterLifecycle, EmptyShardListThrows) {
  LoopbackHub front;
  EXPECT_THROW(ShardRouter(front.listener(), {}, router_config()),
               std::invalid_argument);
}

TEST(RouterLifecycle, StopIsIdempotentAndRefusesNewWork) {
  ShardHarness shards(2, shard_config());
  LoopbackHub front;
  auto rt = std::make_unique<ShardRouter>(front.listener(),
                                          shards.endpoints(),
                                          router_config());
  RpcClient cli([&] { return front.connect(); });
  const auto data = ramp_data(1000);
  EXPECT_FALSE(cli.compress(std::span<const u8>(data)).result.get().empty());
  rt->stop();
  rt->stop();  // idempotent
  EXPECT_EQ(rt->connection_count(), 0u);
  RpcCall call = cli.compress(std::span<const u8>(data));
  EXPECT_THROW((void)call.result.get(), TransportError);
}

TEST(RouterLifecycle, BackgroundProberTripsAndRecoversShards) {
  ShardHarness shards(2, shard_config());
  LoopbackHub front;
  RouterConfig rc = router_config();
  rc.start_prober = true;
  rc.health.probe_interval_seconds = 0.02;
  rc.health.unhealthy_after = 2;
  ShardRouter rt(front.listener(), shards.endpoints(), rc);

  shards.kill(1);
  // The background prober needs ~2 cadences to trip the dead shard.
  for (int i = 0; i < 100 && rt.shard_healthy(1); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(rt.shard_healthy(1));
  EXPECT_TRUE(rt.shard_healthy(0));

  shards.restart(1);
  for (int i = 0; i < 100 && !rt.shard_healthy(1); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(rt.shard_healthy(1));
}

}  // namespace
}  // namespace parhuff
