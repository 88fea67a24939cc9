// stream_large: a few large payloads (u8 enwik-like text, u16 Nyx-Quant)
// compressed over the v3 streaming verbs through the router to one shard,
// then decompressed back, one payload at a time (closed loop, one caller).
// The rpc/router layers carry bandwidth over many chunk frames instead of
// per-request overhead; the shard runs core/streaming with chunk-bounded
// memory.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "data/quant.hpp"
#include "data/textgen.hpp"
#include "stack.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTextBytes = std::size_t{12} << 20;
constexpr std::size_t kNyxBytes = std::size_t{6} << 20;
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

struct Payload {
  int width;
  std::vector<u8> raw;
};

std::vector<Payload> make_payloads(u64 seed) {
  std::vector<Payload> out;
  out.push_back({1, parhuff::data::generate_text(kTextBytes, seed)});
  const auto nyx =
      parhuff::data::generate_nyx_quant(kNyxBytes / 2, seed + 1);
  std::vector<u8> raw(nyx.size() * 2);
  std::memcpy(raw.data(), nyx.data(), raw.size());
  out.push_back({2, std::move(raw)});
  return out;
}

/// Every payload over the streaming verbs: the chunker streams anything
/// past one chunk.
parhuff::rpc::ClientConfig stream_client() {
  parhuff::rpc::ClientConfig cc;
  cc.stream_chunk_bytes = kChunkBytes;
  cc.stream_threshold_bytes = kChunkBytes;
  return cc;
}

struct Trip {
  double compress_s = 0, decompress_s = 0;
  std::size_t container = 0;
  bool ok = false;
};

/// One compress + decompress round trip. `verified` is the last container
/// of this payload that the benchmark decoded itself; a byte-identical
/// container is not decoded again.
Trip round_trip(parhuff::rpc::RpcClient& cli, const Payload& p, Tracer& t,
                u64 req, std::vector<u8>& verified) {
  std::vector<u8> send = p.raw;  // the request owns its payload
  const u8 w = static_cast<u8>(p.width);
  Trip r;
  const Scoped root(t, "stream.request", req);
  const double t0 = now_s();
  std::vector<u8> container;
  {
    const Scoped s(t, "rpc.stream.compress", req);
    container = cli.compress(std::move(send), w).result.get();
  }
  r.compress_s = now_s() - t0;
  std::vector<u8> copy = container;  // copied outside the timed interval
  const double t1 = now_s();
  std::vector<u8> back;
  {
    const Scoped s(t, "rpc.stream.decompress", req);
    back = cli.decompress(std::move(copy), w).result.get();
  }
  r.decompress_s = now_s() - t1;
  r.container = container.size();
  r.ok = back == p.raw && (container == verified ||
                           bytes_match(container, p.raw, p.width));
  if (r.ok && container != verified) verified = std::move(container);
  return r;
}

E2E closed_loop(parhuff::rpc::RpcClient& cli, const std::vector<Payload>& ps,
                double seconds, Tracer& t, u64& req) {
  E2E e;
  std::vector<std::vector<u8>> verified(ps.size());
  const double start = now_s();
  while (now_s() - start < seconds) {
    for (std::size_t i = 0; i < ps.size(); ++i) {
      const Payload& p = ps[i];
      const Trip r = round_trip(cli, p, t, ++req, verified[i]);
      ++e.attempted;
      if (!r.ok) ++e.failed;
      const double raw = static_cast<double>(p.raw.size());
      e.compress_in_bytes += raw;
      e.container_bytes += static_cast<double>(r.container);
      e.add_request(i, raw, r.compress_s, r.decompress_s);
    }
  }
  return e;
}

/// One untimed round trip per payload, to warm a stack.
void warm(parhuff::rpc::RpcClient& cli, const std::vector<Payload>& ps,
          Tracer& t) {
  for (const Payload& p : ps) {
    std::vector<u8> verified;
    (void)round_trip(cli, p, t, 0, verified);
  }
}

/// What the shard's compress-stream codec does, in process: train on the
/// first chunk (with add-one smoothing), then one framed segment per chunk.
template <typename Sym>
std::vector<u8> inproc_stream(const std::vector<u8>& raw,
                              const parhuff::PipelineConfig& cfg) {
  parhuff::StreamingCompressor<Sym> sc(cfg);
  std::vector<u8> out;
  std::vector<Sym> chunk;
  for (std::size_t off = 0; off < raw.size(); off += kChunkBytes) {
    const std::size_t n = std::min(kChunkBytes, raw.size() - off);
    chunk.resize(n / sizeof(Sym));
    std::memcpy(chunk.data(), raw.data() + off, n);
    if (!sc.frozen()) {
      sc.observe(chunk);
      sc.smooth();
      sc.freeze();
      out = sc.header();
    }
    const std::vector<u8> frame = sc.encode_segment(chunk);
    out.insert(out.end(), frame.begin(), frame.end());
  }
  return out;
}

/// V100-modeled time of the paper pipeline over each payload, with the
/// shard's configs (untimed, after the window).
void model(const std::vector<Payload>& ps, E2E& e) {
  const parhuff::rpc::ServerConfig sc = server_config();
  for (const Payload& p : ps) {
    parhuff::PipelineReport rep;
    if (p.width == 1) {
      (void)parhuff::compress<u8>(p.raw, sc.pipeline8, &rep);
    } else {
      std::vector<u16> syms(p.raw.size() / 2);
      std::memcpy(syms.data(), p.raw.data(), p.raw.size());
      (void)parhuff::compress<u16>(syms, sc.pipeline16, &rep);
    }
    e.model_bytes += static_cast<double>(p.raw.size());
    e.model_ms += v100_ms(rep);
  }
}

}  // namespace

Outcome run_stream_large(const Options& o, Tracer& t) {
  Outcome out;
  std::vector<double> setups;
  std::vector<Payload> ps;
  std::unique_ptr<Stack> stack;
  u64 req = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    ps.clear();
    const double t0 = now_s();
    ps = make_payloads(o.seed);
    stack = std::make_unique<Stack>(o, "stream" + std::to_string(rep), true,
                                    stream_client());
    warm(*stack->client, ps, t);
    setups.push_back(now_s() - t0);
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "workload stream_large: closed loop, 1 caller, text %zu MiB "
                "(u8) + nyx %zu MiB (u16), %zu KiB chunks, router -> 1 shard "
                "x %d workers over unix sockets",
                kTextBytes >> 20, kNyxBytes >> 20, kChunkBytes >> 10,
                kWorkersPerShard);
  out.note(buf);
  parhuff::rpc::RpcClient& cli = *stack->client;

  if (!o.trace) {
    E2E e = closed_loop(cli, ps, o.seconds, t, req);
    model(ps, e);
    finish_e2e(e, median(setups), out);
    return out;
  }

  const E2E plain = closed_loop(cli, ps, o.seconds / 4, t, req);
  t.set_enabled(true);
  const E2E traced = closed_loop(cli, ps, o.seconds / 4, t, req);
  out.attempted += plain.attempted + traced.attempted;
  out.failed += plain.failed + traced.failed;

  // Ladder: each payload compressed in process, over RPC to one server,
  // and through the router to one server; all warm, same chunking.
  Stack direct(o, "ladder-rpc", false, stream_client());
  warm(*direct.client, ps, t);
  const parhuff::rpc::ServerConfig sc = server_config();
  std::vector<double> rung_s[3];
  int passes = 0;
  const double start = now_s();
  while (passes == 0 || now_s() - start < o.seconds / 2) {
    double pass_s[3] = {0, 0, 0};
    for (const Payload& p : ps) {
      ++req;
      for (int rung = 0; rung < 3; ++rung) {
        static const char* names[3] = {"stream.inproc", "rung.rpc.stream",
                                       "rung.router.stream"};
        std::vector<u8> container;
        // The RPC request owns its payload; it is copied before the clock
        // starts, so every rung times parhuff calls only.
        std::vector<u8> send;
        if (rung != 0) send = p.raw;
        const double t0 = now_s();
        {
          const Scoped s(t, names[rung], req);
          if (rung == 0) {
            container = p.width == 1 ? inproc_stream<u8>(p.raw, sc.pipeline8)
                                     : inproc_stream<u16>(p.raw, sc.pipeline16);
          } else {
            Stack& st = rung == 1 ? direct : *stack;
            container = st.client
                            ->compress(std::move(send),
                                       static_cast<u8>(p.width))
                            .result.get();
          }
        }
        pass_s[rung] += now_s() - t0;
        ++out.attempted;
        if (!bytes_match(container, p.raw, p.width)) ++out.failed;
      }
    }
    for (int rung = 0; rung < 3; ++rung) rung_s[rung].push_back(pass_s[rung]);
    ++passes;
  }
  t.set_enabled(false);
  auto& v = out.values;
  v["stream.inproc.s"] = median(rung_s[0]);
  v["rpc.stream.added_s"] = median(rung_s[1]) - median(rung_s[0]);
  v["router.stream.added_s"] = median(rung_s[2]) - median(rung_s[1]);
  u64 high = direct.shard->stream_buffer_high_water();
  high = std::max(high, stack->shard->stream_buffer_high_water());
  v["rpc.stream.buffer_high_water_mb"] =
      static_cast<double>(high) / (1024.0 * 1024.0);
  v["trace.overhead_frac"] =
      mean(traced.pass_s) / mean(plain.pass_s) - 1.0;
  std::snprintf(buf, sizeof buf,
                "ladder: %d passes over %zu payloads; per-pass compress "
                "medians in process %.4f s, rpc %.4f s, router %.4f s",
                passes, ps.size(), v["stream.inproc.s"], median(rung_s[1]),
                median(rung_s[2]));
  out.note(buf);
  return out;
}

}  // namespace perfbench
