#pragma once
// The served stack the stream_large workload drives: one RpcServer shard,
// optionally behind a ShardRouter, on unix sockets under the work
// directory, with one RpcClient connection to the front.

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "router/router.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"

namespace perfbench {

/// Shard configuration: the shipped defaults, with the workload's worker
/// count.
inline parhuff::rpc::ServerConfig server_config() {
  parhuff::rpc::ServerConfig sc;
  sc.service.workers = kWorkersPerShard;
  return sc;
}

/// A set of unix-socket endpoints under the work directory, removed again
/// when the owner goes away.
struct SocketPaths {
  std::vector<std::string> paths;
  std::string make(const Options& o, const std::string& tag) {
    paths.push_back(o.work_dir + "/" + tag + "-" + std::to_string(::getpid()) +
                    ".sock");
    return paths.back();
  }
  ~SocketPaths() {
    for (const auto& p : paths) ::unlink(p.c_str());
  }
};

/// One RpcServer shard, reached through a router in front of it or, when
/// unrouted, dialed directly, plus one client.
/// Members are declared in dependency order, so destruction stops the
/// client first, then the router, then the shard.
struct Stack {
  SocketPaths socks;
  std::unique_ptr<parhuff::rpc::RpcServer> shard;
  std::unique_ptr<parhuff::router::ShardRouter> router;
  std::unique_ptr<parhuff::rpc::RpcClient> client;

  Stack(const Options& o, const std::string& tag, bool routed,
        const parhuff::rpc::ClientConfig& cc) {
    const std::string direct = socks.make(o, tag + "-s0");
    shard = std::make_unique<parhuff::rpc::RpcServer>(
        parhuff::rpc::listen_unix(direct), server_config());
    std::string front = direct;
    if (routed) {
      front = socks.make(o, tag + "-r");
      std::vector<parhuff::router::ShardEndpoint> eps;
      eps.push_back(
          {"shard0", [direct] { return parhuff::rpc::connect_unix(direct); }});
      parhuff::router::RouterConfig rc;
      rc.client = cc;
      router = std::make_unique<parhuff::router::ShardRouter>(
          parhuff::rpc::listen_unix(front), std::move(eps), rc);
    }
    client = std::make_unique<parhuff::rpc::RpcClient>(
        [front] { return parhuff::rpc::connect_unix(front); }, cc);
  }
};

}  // namespace perfbench
