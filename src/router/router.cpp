#include "router/router.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/deadline.hpp"
#include "svc/fingerprint.hpp"
#include "util/fault_inject.hpp"
#include "util/hash.hpp"

namespace parhuff::router {

using rpc::FramedConn;
using rpc::Frame;
using rpc::Header;
using rpc::Kind;
using rpc::Op;
using rpc::Status;

namespace {

/// The client's priority and relative deadline for the proxy hop. The
/// budget is forwarded unchanged (the shard re-anchors it on its own clock
/// — router queueing time is deliberately inside the budget the shard
/// sees, matching what a direct client would experience).
[[nodiscard]] rpc::RpcOptions forward_options(const Header& h) {
  rpc::RpcOptions opts;
  opts.priority = rpc::to_priority(h.priority);
  opts.deadline_seconds = static_cast<double>(h.deadline_micros) * 1e-6;
  return opts;
}

}  // namespace

/// One backend shard: endpoint, its long-lived RpcClient (lazy connect,
/// backoff+redial, generation-swept reconnect — the failover machinery
/// the router builds on) and its health state.
struct ShardRouter::Shard {
  ShardEndpoint ep;
  std::unique_ptr<rpc::RpcClient> client;
  ShardHealth health;
  std::atomic<u64> served{0};
};

/// The router's per-connection state: the client-id → (shard, backend-id)
/// bindings a cancel frame needs to chase its target across the proxy
/// hop, and the pinned streams. Guarded by mu.
struct ShardRouter::ConnState : FramedConn {
  struct Binding {
    u32 shard = 0;
    u64 backend_id = 0;
  };
  std::unordered_map<u64, Binding> routes;  // client request id → binding

  void bind(u64 client_id, u32 shard, u64 backend_id) {
    std::lock_guard<std::mutex> lock(mu);
    routes[client_id] = Binding{shard, backend_id};
  }

  void unbind(u64 client_id) {
    std::lock_guard<std::mutex> lock(mu);
    routes.erase(client_id);
  }

  /// One pinned stream: client-facing id → the shard it lives on, the
  /// shard's own stream id (ids from different shards may collide, so the
  /// router always translates) and the backend Begin call id (the handle
  /// a teardown cancel chases).
  struct StreamRoute {
    u32 shard = 0;
    u64 backend_sid = 0;
    u64 backend_begin_id = 0;
    /// The family's End op — teardown forces the shard's half of an
    /// orphaned stream closed with a poisoned End.
    Op end_op = Op::kCompressStreamEnd;
  };
  u64 next_stream_id = 0;                             // under mu
  std::unordered_map<u64, StreamRoute> stream_routes;  // under mu

  u64 bind_stream(StreamRoute r) {
    std::lock_guard<std::mutex> lock(mu);
    const u64 sid = ++next_stream_id;
    stream_routes.emplace(sid, r);
    return sid;
  }

  [[nodiscard]] bool find_stream(u64 sid, StreamRoute* out) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = stream_routes.find(sid);
    if (it == stream_routes.end()) return false;
    *out = it->second;
    return true;
  }

  /// Returns whether the id was still bound — abort and complete race
  /// (a slot aborting while the reader forwards the next chunk), and
  /// only the actor that wins the erase may count the terminal.
  [[nodiscard]] bool unbind_stream(u64 sid) {
    std::lock_guard<std::mutex> lock(mu);
    return stream_routes.erase(sid) > 0;
  }
};

ShardRouter::ShardRouter(std::unique_ptr<rpc::Listener> listener,
                         std::vector<ShardEndpoint> shards, RouterConfig cfg)
    : cfg_(cfg),
      clock_(cfg.clock ? cfg.clock : &util::Clock::real()),
      core_(std::move(listener),
            rpc::FramedConfig{.prefix = "router",
                              .role = "router",
                              .faults = {},
                              .max_connections = cfg.max_connections,
                              .max_payload_bytes = cfg.max_payload_bytes,
                              .clock = clock_},
            *this) {
  if (shards.empty()) {
    throw std::invalid_argument("ShardRouter: at least one shard required");
  }
  rpc::ClientConfig cc = cfg_.client;
  cc.clock = clock_;
  for (auto& ep : shards) {
    auto sh = std::make_unique<Shard>();
    sh->ep = std::move(ep);
    if (!sh->ep.connect) {
      throw std::invalid_argument("ShardRouter: shard '" + sh->ep.name +
                                  "' has no connector");
    }
    sh->client = std::make_unique<rpc::RpcClient>(sh->ep.connect, cc);
    shards_.push_back(std::move(sh));
  }
  core_.start();
  if (cfg_.start_prober) {
    prober_ = std::thread([this] { prober_loop(); });
  }
}

ShardRouter::~ShardRouter() {
  // Backend clients (and their pending-future sweeps) tear down after the
  // io tasks that wait on them (member order).
  stop();
}

void ShardRouter::stop() {
  {
    std::lock_guard<std::mutex> lock(prober_mu_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  core_.stop();
}

bool ShardRouter::shard_healthy(std::size_t i) const {
  return shards_.at(i)->health.healthy();
}

bool ShardRouter::shard_available(std::size_t i) const {
  return shards_.at(i)->health.available();
}

u64 ShardRouter::shard_served(std::size_t i) const {
  return shards_.at(i)->served.load(std::memory_order_relaxed);
}

u64 ShardRouter::route_key(Op op, u8 sym_width,
                           std::span<const u8> payload) {
  if (op == Op::kCompress && (sym_width == 1 || sym_width == 2)) {
    // The same scale-invariant shape key the shards' codebook caches use
    // (svc/fingerprint.hpp): config-equal traffic lands on the shard
    // whose cache already holds its codebook.
    if (sym_width == 1) {
      std::vector<u64> freq(256, 0);
      for (const u8 b : payload) ++freq[b];
      return svc::fingerprint_histogram(freq, sym_width).hash;
    }
    std::vector<u64> freq(64 * 1024, 0);
    const std::size_t n = payload.size() / 2;
    for (std::size_t i = 0; i < n; ++i) {
      const u16 s = static_cast<u16>(payload[2 * i] |
                                     (payload[2 * i + 1] << 8));
      ++freq[s];
    }
    return svc::fingerprint_histogram(freq, sym_width).hash;
  }
  if (op == Op::kLossyCompress) {
    // Config affinity: the 48-byte LossyRequestHeader (shape + quantizer)
    // is the key, not the samples. Fields of one simulation variable share
    // shape and error bound across timesteps, and their residual
    // histograms are near-identical — landing them on one shard keeps its
    // codebook cache hot even as the data drifts.
    const std::size_t n = std::min<std::size_t>(
        payload.size(), rpc::kLossyRequestHeaderBytes);
    return fnv1a(payload.subspan(0, n));
  }
  // Decompress — lossless or lossy — (and anything else): the container
  // prefix holds the codebook / quantizer header, which is exactly as
  // distribution-stable as the histogram shape — same book, same shard.
  const std::size_t n = std::min<std::size_t>(payload.size(), 4096);
  return fnv1a(payload.subspan(0, n));
}

std::vector<u32> ShardRouter::candidates(u64 key) const {
  std::vector<u32> order =
      rendezvous_order(key, shards_.size(), cfg_.hash_seed);
  // Available shards keep their hash order at the front; unhealthy or
  // saturated ones sink to the back as fail-open last resorts (routing
  // around a wrongly-suspected shard must not turn into shedding).
  std::stable_partition(order.begin(), order.end(), [&](u32 i) {
    return shards_[i]->health.available();
  });
  const std::size_t cap = cfg_.max_route_attempts > 0
                              ? std::min(cfg_.max_route_attempts, order.size())
                              : order.size();
  order.resize(cap);
  return order;
}

rpc::RpcCall ShardRouter::forward(u32 idx, const Header& h,
                                  const std::vector<u8>& payload) {
  // Fault site: the forward write to the shard fails (connection died
  // under the frame, shard-side kernel buffer gone...).
  util::FaultInjector::global().maybe_throw("router.proxy.write");
  const rpc::RpcOptions opts = forward_options(h);
  Shard& sh = *shards_[idx];
  if (h.op == Op::kCompress) {
    return sh.client->compress(std::span<const u8>(payload), h.sym_width,
                               opts);
  }
  if (h.op == Op::kLossyCompress) {
    // Pass-through: the payload is already LossyRequestHeader + f32s; the
    // shard re-validates it, so the proxy hop never parses float data.
    return sh.client->lossy_compress_raw(std::span<const u8>(payload),
                                         h.sym_width, opts);
  }
  if (h.op == Op::kLossyDecompress) {
    return sh.client->lossy_decompress(std::span<const u8>(payload), opts);
  }
  return sh.client->decompress(std::span<const u8>(payload), h.sym_width,
                               opts);
}

std::shared_ptr<FramedConn> ShardRouter::open_conn() {
  return std::make_shared<ConnState>();
}

void ShardRouter::on_request(const std::shared_ptr<FramedConn>& c,
                             const Header& h, std::vector<u8> payload) {
  ConnState& cs = static_cast<ConnState&>(*c);
  switch (h.op) {
    case Op::kCompress:
    case Op::kDecompress:
    case Op::kLossyCompress:
    case Op::kLossyDecompress:
      handle_proxy(cs, h, std::move(payload));
      return;
    case Op::kCompressStreamBegin:
    case Op::kDecompressStreamBegin:
      handle_stream_begin(cs, h);
      return;
    case Op::kCompressStreamChunk:
    case Op::kCompressStreamEnd:
    case Op::kDecompressStreamChunk:
    case Op::kDecompressStreamEnd:
      handle_stream_frame(cs, h, std::move(payload));
      return;
    case Op::kCancel:
    case Op::kStats:
    case Op::kHealth:
      return;  // answered by the connection core
  }
}

void ShardRouter::on_cancel(FramedConn& c, u64 target, Frame ack) {
  ConnState& cs = static_cast<ConnState&>(c);
  // Chase the target across the proxy hop now; only the ack rides the
  // ordered response stream.
  ConnState::Binding b;
  bool bound = false;
  {
    std::lock_guard<std::mutex> lock(cs.mu);
    if (auto it = cs.routes.find(target); it != cs.routes.end()) {
      b = it->second;
      bound = true;
    }
  }
  if (!bound) {
    // Already resolved, shed, or never existed — idempotent best-effort
    // either way, same as RpcServer.
    cs.enqueue_ready(std::move(ack));
    return;
  }
  auto fut = std::make_shared<std::future<void>>(
      shards_[b.shard]->client->cancel(b.backend_id));
  auto boxed = std::make_shared<Frame>(std::move(ack));
  cs.enqueue([fut, boxed]() {
    try {
      fut->get();  // ack after the shard acked (ordering contract)
    } catch (...) {
      // The shard died around the cancel; the target's own future
      // resolves through failover or TransportError regardless.
    }
    return std::move(*boxed);
  });
}

void ShardRouter::fill_health(rpc::HealthInfo& info) {
  u64 up = 0;
  for (const auto& sh : shards_) {
    if (sh->health.available()) ++up;
  }
  // Shards stand in for queue slots: depth = unavailable shards,
  // capacity = all shards, so occupancy reads as "fraction of the fleet
  // that cannot take traffic".
  info.queue_depth = static_cast<u64>(shards_.size()) - up;
  info.queue_capacity = shards_.size();
}

void ShardRouter::on_teardown(FramedConn& c) {
  // Streams still bound when the client connection dies never reach their
  // End: abort them here (all slots drained, so nothing can race the
  // sweep) and force the shard's half closed too — cancel() interrupts an
  // in-flight encode (the cancel frame is sent synchronously; the
  // deferred ack future may be dropped), and a poisoned End (a byte total
  // no real stream can reach) makes the shard erase its state with a
  // typed abort instead of leaking toward its per-connection stream cap.
  ConnState& cs = static_cast<ConnState&>(c);
  std::vector<ConnState::StreamRoute> orphaned;
  {
    std::lock_guard<std::mutex> lock(cs.mu);
    for (const auto& [sid, route] : cs.stream_routes) {
      orphaned.push_back(route);
    }
    cs.stream_routes.clear();
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  for (const ConnState::StreamRoute& route : orphaned) {
    reg.counter_add("router.streams_aborted");
    rpc::RpcClient& backend = *shards_[route.shard]->client;
    try {
      (void)backend.cancel(route.backend_begin_id);
      (void)backend.stream_end(route.end_op, route.backend_sid, ~0ull, 0);
    } catch (...) {
      // Backend gone too — its connection teardown reaps the stream.
    }
  }
}

std::optional<Frame> ShardRouter::shard_answer(Shard& sh, const Header& h,
                                               const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const rpc::RpcError& e) {
    if (e.status() == Status::kQueueFull ||
        e.status() == Status::kShuttingDown) {
      // The shard is alive but shedding/draining: route around it.
      sh.health.note_queue_full();
      return std::nullopt;
    }
  } catch (const svc::DeadlineExceeded&) {
    // Alive, just out of budget. Terminal — a second shard cannot beat a
    // deadline the first already missed.
  } catch (const svc::CancelledError&) {
  } catch (...) {
    // No answer at all: the forward failed or the connection died.
    sh.health.note_failure(cfg_.health);
    return std::nullopt;
  }
  sh.health.note_success();
  return rpc::error_frame(h, err, rpc::Blame::kServer);
}

void ShardRouter::handle_proxy(ConnState& cs, const Header& h,
                               std::vector<u8> payload) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  util::FaultInjector& faults = util::FaultInjector::global();
  reg.counter_add("router.routed");
  const double start_us = rec.now_us();

  // Route lookup: the key and the candidate list. A failure here (the
  // router.route fault site) sheds the request — exactly one terminal
  // counter per routed request, always.
  std::vector<u32> order;
  try {
    faults.maybe_throw("router.route");
    const u64 key =
        route_key(h.op, h.sym_width, std::span<const u8>(payload));
    order = candidates(key);
    const double route_us = rec.now_us();
    reg.stage_add("router.route", (route_us - start_us) / 1e6);
  } catch (...) {
    reg.counter_add("router.shed");
    cs.enqueue_ready(
        rpc::error_frame(h, Status::kInternal, "router: route lookup failed"));
    return;
  }

  // First forward happens in the reader so the shard starts working
  // before the writer reaches this request's slot. Later attempts (the
  // failover path) run in the slot itself — they only happen after the
  // first shard's answer came back bad, which the slot is the first to
  // see.
  auto body = std::make_shared<std::vector<u8>>(std::move(payload));
  auto call = std::make_shared<rpc::RpcCall>();
  ConnState* raw = &cs;  // the writer keeps *raw alive past this slot
  // Forward to the first candidate from `from` on that accepts the frame;
  // returns order.size() when none does.
  auto forward_from = [this, raw, body, call, order](const Header& hdr,
                                                     std::size_t from) {
    for (; from < order.size(); ++from) {
      try {
        *call = forward(order[from], hdr, *body);
        raw->bind(hdr.request_id, order[from], call->id);
        return from;
      } catch (...) {
        shards_[order[from]]->health.note_failure(cfg_.health);
      }
    }
    return from;
  };
  const std::size_t first = forward_from(h, 0);
  if (first == order.size()) {
    reg.counter_add("router.shed");
    cs.enqueue_ready(rpc::error_frame(
        h, Status::kQueueFull, "router: no shard accepted the request"));
    return;
  }

  cs.enqueue([this, raw, call, hdr = h, order, forward_from, first,
              start_us]() {
    obs::MetricsRegistry& mreg = obs::MetricsRegistry::global();
    std::optional<Frame> f;
    std::size_t attempts_done = 0;  // answers obtained
    std::size_t idx = first;        // current candidate index
    while (idx < order.size()) {
      Shard& sh = *shards_[order[idx]];
      try {
        f = rpc::response_to(hdr);
        f->payload = call->result.get();
        sh.health.note_success();
      } catch (...) {
        f = shard_answer(sh, hdr, std::current_exception());
      }
      ++attempts_done;
      if (f) {
        sh.served.fetch_add(1, std::memory_order_relaxed);
        mreg.counter_add("router.shard." + sh.ep.name + ".served");
        break;
      }
      // Failover: the next candidate, re-forwarded from the slot.
      // Compress and decompress are idempotent, so re-execution after an
      // ambiguous transport death is safe (same contract as a direct
      // RpcClient caller resubmitting).
      idx = forward_from(hdr, idx + 1);
    }

    if (f) {
      // A request that needed anything beyond its first forward attempt —
      // a reader-side forward failure (first > 0) or a retried answer —
      // counts as failed over, even though it still resolved.
      const bool clean = first == 0 && attempts_done <= 1;
      mreg.counter_add(clean ? "router.forwarded" : "router.failed_over");
    } else {
      mreg.counter_add("router.shed");
      f = rpc::error_frame(hdr, Status::kQueueFull,
                           "router: all shards unavailable");
    }
    raw->unbind(hdr.request_id);
    obs::TraceRecorder& mrec = obs::TraceRecorder::global();
    const double done_us = mrec.now_us();
    mreg.histo_record("router.request_seconds", (done_us - start_us) / 1e6);
    mrec.complete("router.request", "router", start_us, done_us - start_us);
    return std::move(*f);
  });
}

void ShardRouter::handle_stream_begin(ConnState& cs, const Header& h) {
  util::FaultInjector& faults = util::FaultInjector::global();

  // Begin frames carry no payload to hash, so placement is a uniform
  // nonce spread over the candidate order rather than histogram affinity
  // (the stream's chunks aren't known yet when the pin is chosen).
  std::vector<u32> order;
  try {
    faults.maybe_throw("router.route");
    u8 key_bytes[8];
    const u64 nonce = stream_nonce_.fetch_add(1, std::memory_order_relaxed);
    std::memcpy(key_bytes, &nonce, sizeof(nonce));
    order = candidates(fnv1a(std::span<const u8>(key_bytes, 8)));
  } catch (...) {
    cs.enqueue_ready(
        rpc::error_frame(h, Status::kInternal, "router: route lookup failed"));
    return;
  }

  const rpc::RpcOptions opts = forward_options(h);
  const Op end_op = h.op == Op::kCompressStreamBegin
                        ? Op::kCompressStreamEnd
                        : Op::kDecompressStreamEnd;

  // Begin-time failover — the only point a stream may move between
  // shards. It runs to completion here in the reader (one shard round
  // trip) so every later chunk finds the binding already pinned; chunks
  // the client pipelines behind Begin just wait in the socket meanwhile.
  for (const u32 idx : order) {
    Shard& sh = *shards_[idx];
    try {
      faults.maybe_throw("router.proxy.write");
      rpc::RpcCall begin = sh.client->stream_begin(h.op, h.sym_width, opts);
      const std::vector<u8> sid_bytes = begin.result.get();
      if (sid_bytes.size() < 8) {
        throw rpc::RpcError(Status::kInternal,
                            "router: short stream id from shard");
      }
      u64 backend_sid = 0;
      std::memcpy(&backend_sid, sid_bytes.data(), 8);  // LE, like bytesio
      sh.health.note_success();
      const u64 client_sid = cs.bind_stream(
          ConnState::StreamRoute{idx, backend_sid, begin.id, end_op});
      obs::MetricsRegistry::global().counter_add("router.streams_opened");
      Frame f = rpc::response_to(h);
      f.payload.resize(8);
      std::memcpy(f.payload.data(), &client_sid, 8);
      cs.enqueue_ready(std::move(f));
      return;
    } catch (...) {
      // Any typed answer other than shedding (bad width, stream cap...)
      // is terminal — the next shard would reject the same Begin the
      // same way.
      if (std::optional<Frame> err =
              shard_answer(sh, h, std::current_exception())) {
        cs.enqueue_ready(std::move(*err));
        return;
      }
    }
  }
  cs.enqueue_ready(rpc::error_frame(h, Status::kQueueFull,
                                    "router: no shard accepted the stream"));
}

void ShardRouter::handle_stream_frame(ConnState& cs, const Header& h,
                                      std::vector<u8> payload) {
  ConnState::StreamRoute route;
  if (!cs.find_stream(h.stream_id, &route)) {
    cs.enqueue_ready(rpc::error_frame(
        h, Status::kBadRequest,
        "router: unknown stream id (never opened or already terminal)"));
    return;
  }

  Shard& sh = *shards_[route.shard];
  rpc::RpcCall call;
  try {
    util::FaultInjector::global().maybe_throw("router.proxy.write");
    // Zero-copy proxy hop: the span is a view into this reader's payload
    // buffer, written to the shard synchronously inside stream_frame —
    // the chunk is never copied into an owned backend frame.
    call = sh.client->stream_frame(h.op, route.backend_sid,
                                   std::span<const u8>(payload));
  } catch (...) {
    sh.health.note_failure(cfg_.health);
    if (cs.unbind_stream(h.stream_id)) {
      obs::MetricsRegistry::global().counter_add("router.streams_aborted");
    }
    cs.enqueue_ready(rpc::error_frame(
        h, Status::kInternal,
        "router: stream forward failed (mid-stream failover is terminal: "
        "chunks the shard already consumed cannot be replayed)"));
    return;
  }

  ConnState* raw = &cs;  // the writer keeps *raw alive past this slot
  auto fut = std::make_shared<std::future<std::vector<u8>>>(
      std::move(call.result));
  const bool is_end =
      h.op == Op::kCompressStreamEnd || h.op == Op::kDecompressStreamEnd;
  cs.enqueue([this, raw, fut, hdr = h, &sh, is_end]() {
    std::optional<Frame> f;
    try {
      f = rpc::response_to(hdr);
      f->payload = fut->get();
      sh.health.note_success();
      if (!is_end) return std::move(*f);  // mid-stream ack, stays pinned
    } catch (...) {
      f = shard_answer(sh, hdr, std::current_exception());
      if (!f) {
        f = rpc::error_frame(
            hdr, Status::kInternal,
            "router: shard connection lost mid-stream (terminal)");
      }
    }
    // Terminal: End acked, or any failure at all (mid-stream failover is
    // terminal — a second shard never saw the earlier chunks). The erase
    // winner counts it: a slot aborting can race the reader forwarding
    // the next chunk of the same stream, which then answers "unknown
    // stream id" without re-counting.
    if (raw->unbind_stream(hdr.stream_id)) {
      obs::MetricsRegistry::global().counter_add(
          f->h.status == Status::kOk ? "router.streams_completed"
                                     : "router.streams_aborted");
    }
    return std::move(*f);
  });
}

void ShardRouter::probe_shard(Shard& sh) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  try {
    // Fault site: the probe itself dies (connection refused, probe frame
    // lost) — must count as evidence against the shard, never hang.
    util::FaultInjector::global().maybe_throw("router.health.probe");
    const rpc::HealthInfo info = sh.client->health().get();
    sh.health.note_probe(info, cfg_.health);
    reg.counter_add("router.probes");
  } catch (const rpc::RpcError&) {
    // A typed answer proves liveness even when the peer rejects the probe
    // (e.g. kUnsupportedVersion from a mismatched build): healthy, load
    // unknown.
    sh.health.note_success();
    reg.counter_add("router.probes");
  } catch (...) {
    sh.health.note_failure(cfg_.health);
    reg.counter_add("router.probe_failures");
  }
  reg.gauge_set("router.shard." + sh.ep.name + ".healthy",
                sh.health.healthy() ? 1.0 : 0.0);
  reg.gauge_set("router.shard." + sh.ep.name + ".saturated",
                sh.health.saturated() ? 1.0 : 0.0);
}

void ShardRouter::probe_now() {
  for (auto& sh : shards_) probe_shard(*sh);
}

void ShardRouter::prober_loop() {
  const auto interval = util::Clock::dur(
      cfg_.health.probe_interval_seconds > 0
          ? cfg_.health.probe_interval_seconds
          : 0.25);
  std::unique_lock<std::mutex> lock(prober_mu_);
  while (!prober_stop_) {
    const auto wake = clock_->now() + interval;
    while (!prober_stop_ &&
           clock_->wait_until(prober_cv_, lock, wake) !=
               std::cv_status::timeout) {
    }
    if (prober_stop_) break;
    lock.unlock();
    probe_now();
    lock.lock();
  }
}

}  // namespace parhuff::router
