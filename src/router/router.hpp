#pragma once
// Sharded router front-end: one listener fanning the frame protocol out
// across N backend RpcServer shards (docs/router.md).
//
//   clients ──► ShardRouter ──► shard 0 (RpcServer + CompressionService)
//                        ├────► shard 1
//                        └────► shard 2 ...
//
// The router speaks the same wire protocol on both sides: clients connect
// with an unmodified RpcClient, and each shard is dialed through an
// embedded RpcClient (inheriting its lazy connect, backoff+redial and
// generation-swept reconnect). Client connections run on the same
// framed-connection core as RpcServer's (rpc/framed.hpp) — a reader that
// parses/validates/routes and a writer that resolves one response slot
// per request strictly in request order — so a client cannot tell a
// router from a single server.
//
// Routing is rendezvous hashing (router/hash.hpp) on a scale-invariant
// request key: compress requests hash the payload's histogram shape with
// svc::fingerprint_histogram — the same shape key the shards' codebook
// caches use — so config-equal traffic keeps landing on the shard whose
// cache is already warm. Decompress requests hash the container prefix
// (codebook bytes), which is equally distribution-stable.
//
// Failover and load shed: a shard that is unhealthy or saturated
// (router/health.hpp; fed by in-band kHealth probes and by passive
// forward-path outcomes) is routed around; a transport failure or
// kQueueFull answer mid-request falls through to the key's next hash
// candidate (compress/decompress are idempotent, so a duplicate execution
// is safe). When every candidate is exhausted the request is *shed* with
// a typed kQueueFull response — never a silent stall. Terminal accounting
// is exact: router.routed == router.forwarded + router.failed_over +
// router.shed after quiesce.
//
// Streams (protocol v3): a Begin frame pins the whole stream to one shard
// — failover candidates are only tried at Begin (the frame carries no
// payload, so placement is a uniform spread, not histogram affinity). The
// router assigns its own client-facing stream id and translates to the
// shard's id on every forwarded Chunk/End (ids from different shards may
// collide, so pass-through would be ambiguous). Chunk payloads are lent
// to the backend send as views into the reader's buffer — the proxy hop
// never copies a chunk. Mid-stream shard loss is *terminal* for the
// stream (chunks already consumed by the dead shard cannot be replayed):
// the client gets a typed error and restarts the stream, and
// router.streams_opened == router.streams_completed +
// router.streams_aborted stays exact after quiesce.
//
// Fault sites (util::FaultInjector): router.route (key/candidate
// computation), router.proxy.write (the forward to a shard),
// router.health.probe (the background probe) — armed by the router
// fault-storm soak to prove the resolve-always invariant survives.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "router/hash.hpp"
#include "router/health.hpp"
#include "rpc/client.hpp"
#include "rpc/framed.hpp"
#include "util/clock.hpp"

namespace parhuff::router {

/// One backend shard: a display name (metric/gauge labels) plus the
/// connector its embedded RpcClient dials with.
struct ShardEndpoint {
  std::string name;
  rpc::RpcClient::Connector connect;
};

struct RouterConfig {
  /// Rendezvous seed: routers sharing a seed (and shard order) route
  /// identically, which is what keeps shard caches warm across router
  /// restarts. Change it to reshuffle the key space deliberately.
  u64 hash_seed = 0x7073686172647221ull;
  std::size_t max_connections = 8;
  /// Bound on a single client request frame's payload.
  u32 max_payload_bytes = rpc::kMaxPayloadBytes;
  /// io pool size; 0 → 1 + 2 * max_connections (accept + a reader and a
  /// writer per client connection).
  int io_threads = 0;
  /// Distinct shards tried per request before shedding; 0 = every shard
  /// once (hash order).
  std::size_t max_route_attempts = 0;
  HealthPolicy health;
  /// Start the background prober thread (probe cadence in `health`).
  /// Tests that want deterministic probing disable it and call
  /// probe_now() themselves.
  bool start_prober = true;
  /// Config for the per-shard backend RpcClients (backoff, connect
  /// attempts, payload bound). The clock below is injected into it.
  rpc::ClientConfig client;
  /// Time source for probing and backend backoff. nullptr = real clock.
  const util::Clock* clock = nullptr;
};

class ShardRouter : private rpc::FrameHandler {
 public:
  /// Takes ownership of the client-facing listener, dials nothing yet
  /// (backend clients connect lazily on first use), starts accepting
  /// immediately. Throws std::invalid_argument on an empty shard list.
  ShardRouter(std::unique_ptr<rpc::Listener> listener,
              std::vector<ShardEndpoint> shards, RouterConfig cfg = {});
  /// stop(), then joins everything.
  ~ShardRouter() override;
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Stop accepting, shut every client connection down, join the prober,
  /// drain the io pool. Idempotent. In-flight proxied requests still
  /// resolve against their shards; responses are written when the client
  /// connection survives long enough, dropped otherwise.
  void stop();

  /// One synchronous probe sweep over every shard (also what the
  /// background prober runs). Safe to call concurrently with traffic.
  void probe_now();

  [[nodiscard]] std::size_t connection_count() const {
    return core_.connection_count();
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] bool shard_healthy(std::size_t i) const;
  [[nodiscard]] bool shard_available(std::size_t i) const;
  /// Terminal responses served by shard `i` (success or typed error) —
  /// the per-shard half of the routed == forwarded + failed_over + shed
  /// balance.
  [[nodiscard]] u64 shard_served(std::size_t i) const;

  /// The routing key the router derives for a request payload — exposed
  /// so tests and benches can predict placement without a wire hop.
  [[nodiscard]] static u64 route_key(rpc::Op op, u8 sym_width,
                                     std::span<const u8> payload);

 private:
  struct Shard;
  struct ConnState;

  // FrameHandler: the op switch, per-connection state, teardown.
  std::shared_ptr<rpc::FramedConn> open_conn() override;
  void on_request(const std::shared_ptr<rpc::FramedConn>& c,
                  const rpc::Header& h, std::vector<u8> payload) override;
  void on_cancel(rpc::FramedConn& c, u64 target, rpc::Frame ack) override;
  void fill_health(rpc::HealthInfo& info) override;
  void on_teardown(rpc::FramedConn& c) override;

  void handle_proxy(ConnState& cs, const rpc::Header& h,
                    std::vector<u8> payload);
  /// Open a stream: pick a shard (Begin-time failover), run the backend
  /// Begin to completion, bind client id → (shard, backend id).
  void handle_stream_begin(ConnState& cs, const rpc::Header& h);
  /// Forward one Chunk/End on a pinned stream; any failure is terminal
  /// for the stream.
  void handle_stream_frame(ConnState& cs, const rpc::Header& h,
                           std::vector<u8> payload);
  /// Feed a failed backend call into `sh`'s health. Returns the client's
  /// typed answer when the shard itself answered (deadline, cancel, any
  /// typed error but shedding); nullopt when it did not answer or is
  /// shedding — the cases another candidate may still serve.
  [[nodiscard]] std::optional<rpc::Frame> shard_answer(
      Shard& sh, const rpc::Header& h, const std::exception_ptr& err);
  /// Candidate order for a key: available shards first (hash order),
  /// then the rest (fail-open last resorts), truncated to the attempt
  /// budget.
  [[nodiscard]] std::vector<u32> candidates(u64 key) const;
  /// Forward one request to shard `idx`; throws on the injected
  /// router.proxy.write fault. The returned call's future carries the
  /// shard's answer (or its transport failure).
  [[nodiscard]] rpc::RpcCall forward(u32 idx, const rpc::Header& h,
                                     const std::vector<u8>& payload);
  void probe_shard(Shard& sh);
  void prober_loop();

  RouterConfig cfg_;
  const util::Clock* clock_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Spreads stream placement (Begin frames carry no payload to hash).
  std::atomic<u64> stream_nonce_{0};

  std::mutex prober_mu_;
  std::condition_variable prober_cv_;
  bool prober_stop_ = false;  // under prober_mu_
  std::thread prober_;

  /// Declared last: destroyed first, joining the accept/reader/writer
  /// tasks while the shards they proxy to are still alive.
  rpc::FramedCore core_;
};

}  // namespace parhuff::router
