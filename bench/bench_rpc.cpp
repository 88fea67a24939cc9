// RPC front-end overhead: the same closed-loop compress workload driven
// three ways — direct CompressionService::submit() calls, RPC over the
// in-memory loopback transport, and RPC over a real unix-domain socket.
//
// The loopback case isolates pure protocol cost (framing, the per-request
// response slot, one extra thread hop each way); the unix case adds kernel
// socket copies and wakeups on top. slowdown_vs_direct is the headline:
// loopback is expected to stay within ~1.3x of direct for 64 KiB requests,
// i.e. the wire machinery must not dominate the compression work it fronts.
//
// BENCH_rpc.json records one object per case plus the shared workload
// shape, in the bench schema bench/README.md documents.

#include <algorithm>
#include <future>
#include <string>
#include <vector>

#include <unistd.h>

#include "common.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "rpc/transport_inmem.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace {

using namespace parhuff;

std::vector<u8> ramp_data(std::size_t n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u8> v(n);
  for (auto& s : v) s = static_cast<u8>(rng.below(97));
  return v;
}

PipelineConfig host_config() {
  PipelineConfig cfg;
  cfg.nbins = 256;
  cfg.histogram = HistogramKind::kSerial;
  cfg.codebook = CodebookKind::kSerialTree;
  cfg.encoder = EncoderKind::kSerial;
  return cfg;
}

svc::ServiceConfig service_config() {
  svc::ServiceConfig sc;
  sc.workers = 4;
  sc.batch_window_seconds = 200e-6;
  return sc;
}

// Each case is repeated kReps times after a warm-up and scored by its
// fastest repetition: min-of-N discards scheduler noise, which dominates
// single-shot runs on small shared hosts.
constexpr int kReps = 3;

struct Workload {
  std::vector<u8> base;
  std::size_t request_bytes = 64 * 1024;
  std::size_t requests = 64;

  [[nodiscard]] std::span<const u8> slice(std::size_t i) const {
    const std::size_t off =
        (i * request_bytes) % (base.size() - request_bytes);
    return {base.data() + off, request_bytes};
  }
  [[nodiscard]] std::size_t total_bytes() const {
    return requests * request_bytes;
  }
};

double run_direct(svc::CompressionService<u8>& service, const Workload& w) {
  const PipelineConfig cfg = host_config();
  std::vector<std::future<svc::CompressResult<u8>>> futs;
  futs.reserve(w.requests);
  Timer t;
  for (std::size_t i = 0; i < w.requests; ++i) {
    futs.push_back(service.submit(w.slice(i), cfg));
  }
  for (auto& f : futs) (void)f.get();
  return t.seconds();
}

double run_rpc(rpc::RpcClient& cli, const Workload& w) {
  std::vector<rpc::RpcCall> calls;
  calls.reserve(w.requests);
  Timer t;
  for (std::size_t i = 0; i < w.requests; ++i) {
    calls.push_back(cli.compress(w.slice(i)));
  }
  for (auto& c : calls) {
    if (c.result.get().empty()) std::abort();  // keep the work live
  }
  return t.seconds();
}

rpc::ServerConfig server_config() {
  rpc::ServerConfig sc;
  sc.service = service_config();
  sc.pipeline8 = host_config();
  return sc;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Driver run("rpc", argc, argv);
  bench::banner(
      "RPC FRONT-END: direct submit() vs loopback RPC vs unix-socket RPC");

  Workload w;
  w.base = ramp_data(std::size_t{1} << 20, 97);
  run.config()
      .set("requests", static_cast<u64>(w.requests))
      .set("request_bytes", static_cast<u64>(w.request_bytes))
      .set("workers", u64{4});

  // One warm service timed across reps, the same way each RPC case below
  // times one warm server.
  double direct_s = 0;
  {
    svc::CompressionService<u8> service(service_config());
    (void)run_direct(service, w);  // warm-up
    direct_s = run_direct(service, w);
    for (int r = 1; r < kReps; ++r) {
      direct_s = std::min(direct_s, run_direct(service, w));
    }
  }

  double loopback_s = 0;
  {
    rpc::LoopbackHub hub;
    rpc::RpcServer server(hub.listener(), server_config());
    rpc::RpcClient cli([&] { return hub.connect(); });
    (void)run_rpc(cli, w);  // warm-up
    loopback_s = run_rpc(cli, w);
    for (int r = 1; r < kReps; ++r) {
      loopback_s = std::min(loopback_s, run_rpc(cli, w));
    }
  }

  double unix_s = 0;
  const std::string path =
      "/tmp/parhuff_bench_rpc_" + std::to_string(::getpid()) + ".sock";
  {
    rpc::RpcServer server(rpc::listen_unix(path), server_config());
    rpc::RpcClient cli([&] { return rpc::connect_unix(path); });
    (void)run_rpc(cli, w);  // warm-up
    unix_s = run_rpc(cli, w);
    for (int r = 1; r < kReps; ++r) {
      unix_s = std::min(unix_s, run_rpc(cli, w));
    }
  }
  ::unlink(path.c_str());

  TextTable table("closed-loop: 64 x 64 KiB compress requests (u8), best of 3");
  table.header({"case", "req/s", "MB/s", "slowdown vs direct"});
  const auto row = [&](const char* name, double seconds) {
    table.row({name,
               fmt(static_cast<double>(w.requests) / seconds, 0),
               fmt(static_cast<double>(w.total_bytes()) / seconds / 1e6, 1),
               fmt(seconds / direct_s, 2)});
  };
  row("direct submit()", direct_s);
  row("rpc loopback", loopback_s);
  row("rpc unix socket", unix_s);
  table.print();

  const auto record = [&](const char* name, double seconds) {
    obs::Json rec = obs::Json::object();
    rec.set("case", name)
        .set("seconds", seconds)
        .set("requests_per_second",
             static_cast<double>(w.requests) / seconds)
        .set("throughput_gbps", gbps(w.total_bytes(), seconds))
        .set("slowdown_vs_direct", seconds / direct_s);
    run.record(std::move(rec));
  };
  record("direct_submit", direct_s);
  record("rpc_loopback", loopback_s);
  record("rpc_unix_socket", unix_s);

  return run.finish();
}
