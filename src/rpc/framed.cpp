#include "rpc/framed.hpp"

#include <array>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "util/fault_inject.hpp"

namespace parhuff::rpc {

Frame response_to(const Header& req, Status status) {
  Frame f;
  f.h.kind = Kind::kResponse;
  f.h.op = req.op;
  f.h.sym_width = req.sym_width;
  f.h.request_id = req.request_id;
  f.h.stream_id = req.stream_id;
  f.h.status = status;
  return f;
}

Frame error_frame(const Header& req, Status status,
                  const std::string& message) {
  Frame f = response_to(req, status);
  f.payload.assign(message.begin(), message.end());
  return f;
}

Frame error_frame(const Header& req, const std::exception_ptr& err,
                  Blame blame) {
  const auto answer = [&](Status s, const std::exception& e) {
    return error_frame(req, s, e.what());
  };
  try {
    std::rethrow_exception(err);
  } catch (const svc::DeadlineExceeded& e) {
    return answer(Status::kDeadlineExceeded, e);
  } catch (const DeadlineExpired& e) {
    return answer(Status::kDeadlineExceeded, e);
  } catch (const svc::CancelledError& e) {
    return answer(Status::kCancelled, e);
  } catch (const OperationCancelled& e) {
    return answer(Status::kCancelled, e);
  } catch (const svc::QueueFullError& e) {
    return answer(Status::kQueueFull, e);
  } catch (const RpcError& e) {
    return answer(e.status(), e);
  } catch (const ProtocolError& e) {
    return answer(e.status(), e);
  } catch (const util::TransientError& e) {
    return answer(Status::kInternal, e);
  } catch (const std::invalid_argument& e) {
    return answer(Status::kBadRequest, e);
  } catch (const std::logic_error& e) {
    return answer(blame == Blame::kAdmission ? Status::kShuttingDown
                                             : Status::kInternal,
                  e);
  } catch (const std::runtime_error& e) {
    return answer(blame == Blame::kServer ? Status::kInternal
                                          : Status::kBadRequest,
                  e);
  } catch (const std::exception& e) {
    return answer(blame == Blame::kAdmission ? Status::kBadRequest
                                             : Status::kInternal,
                  e);
  } catch (...) {
    return error_frame(req, Status::kInternal, "unknown exception");
  }
}

svc::Priority to_priority(u8 p) {
  if (p >= static_cast<u8>(svc::Priority::kHigh)) return svc::Priority::kHigh;
  return static_cast<svc::Priority>(p);
}

void FramedConn::enqueue(std::function<Frame()> slot) {
  {
    std::lock_guard<std::mutex> lock(mu);
    slots.push_back(std::move(slot));
  }
  cv.notify_all();
}

void FramedConn::enqueue_ready(Frame f) {
  auto boxed = std::make_shared<Frame>(std::move(f));
  enqueue([boxed]() { return std::move(*boxed); });
}

void FramedConn::reader_finished() {
  {
    std::lock_guard<std::mutex> lock(mu);
    reader_done = true;
  }
  cv.notify_all();
}

FramedCore::FramedCore(std::unique_ptr<Listener> listener, FramedConfig cfg,
                       FrameHandler& handler)
    : cfg_(std::move(cfg)), handler_(handler), listener_(std::move(listener)) {
  const std::string& p = cfg_.prefix;
  if (!listener_) {
    throw std::invalid_argument(p + ": listener must not be null");
  }
  if (cfg_.max_connections == 0) {
    throw std::invalid_argument(p + ": max_connections must be > 0");
  }
  connections_accepted_ = p + ".connections_accepted";
  connections_rejected_ = p + ".connections_rejected";
  protocol_errors_ = p + ".protocol_errors";
  protocol_error_responses_ = p + ".protocol_error_responses";
  requests_received_ = p + ".requests_received";
  cancels_received_ = p + ".cancels_received";
  responses_written_ = p + ".responses_written";
  responses_dropped_ = p + ".responses_dropped";
  stats_name_ = p + "-stats";
  kind_error_ = "response frame sent to a " + cfg_.role;
  if (!cfg_.faults.empty()) {
    accept_fault_ = cfg_.faults + ".accept";
    read_fault_ = cfg_.faults + ".read";
    write_fault_ = cfg_.faults + ".write";
  }
  const int io = cfg_.io_threads > 0
                     ? cfg_.io_threads
                     : static_cast<int>(1 + 2 * cfg_.max_connections);
  io_ = std::make_unique<WorkStealExecutor>(
      io, cfg_.clock ? cfg_.clock : &util::Clock::real());
}

void FramedCore::start() {
  io_->submit([this] { accept_loop(); });
}

void FramedCore::stop() {
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    stopping_ = true;
  }
  listener_->close();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& w : conns_) {
      if (std::shared_ptr<FramedConn> cs = w.lock()) cs->conn->shutdown();
    }
  }
  io_->wait_idle();
}

std::size_t FramedCore::connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  std::size_t live = 0;
  for (const auto& w : conns_) {
    if (!w.expired()) ++live;
  }
  return live;
}

bool FramedCore::accepting() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return !stopping_;
}

void FramedCore::accept_loop() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  for (;;) {
    std::unique_ptr<Connection> c;
    try {
      c = listener_->accept();
    } catch (...) {
      break;  // listener failed: keep serving live connections
    }
    if (!c) break;  // closed

    bool reject = false;
    if (!accept_fault_.empty()) {
      // Fault site: the connection dies right after accept (e.g. a peer
      // that vanished during the handshake).
      try {
        util::FaultInjector::global().maybe_throw(accept_fault_);
      } catch (...) {
        reject = true;
      }
    }

    std::shared_ptr<FramedConn> cs;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      std::erase_if(conns_, [](const std::weak_ptr<FramedConn>& w) {
        return w.expired();
      });
      if (stopping_ || conns_.size() >= cfg_.max_connections) reject = true;
      if (!reject) {
        cs = handler_.open_conn();
        cs->conn = std::shared_ptr<Connection>(std::move(c));
        conns_.push_back(cs);
      }
    }
    if (reject) {
      if (c) c->shutdown();
      reg.counter_add(connections_rejected_);
      continue;
    }
    reg.counter_add(connections_accepted_);

    // The writer goes first so a reader-submit failure can still unblock
    // it via reader_finished(). Executor-submit faults are transient; a
    // connection that cannot get its tasks scheduled is dropped whole.
    bool writer_up = false;
    try {
      io_->submit([this, cs] { writer_loop(cs); });
      writer_up = true;
      io_->submit([this, cs] { reader_loop(cs); });
    } catch (...) {
      cs->conn->shutdown();
      if (writer_up) cs->reader_finished();
      reg.counter_add(connections_rejected_);
    }
  }
}

void FramedCore::reader_loop(std::shared_ptr<FramedConn> cs) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  util::FaultInjector& faults = util::FaultInjector::global();
  for (;;) {
    std::array<u8, kHeaderBytes> hb;
    try {
      // Fault site: the connection dies between frames.
      if (!read_fault_.empty()) faults.maybe_throw(read_fault_);
      if (!cs->conn->read_exact(hb.data(), kHeaderBytes)) break;
    } catch (...) {
      break;
    }

    Header h;
    try {
      h = decode_header(std::span<const u8, kHeaderBytes>(hb),
                        cfg_.max_payload_bytes);
    } catch (const ProtocolError& e) {
      reg.counter_add(protocol_errors_);
      if (!e.can_respond()) break;  // stream not frame-aligned: drop
      // Stay frame-synced by consuming the declared payload when its
      // length is sane; an oversized declaration is unskippable, so the
      // typed error is the connection's last frame.
      u32 raw_len = 0;
      std::memcpy(&raw_len, hb.data() + 20, sizeof(raw_len));
      const bool resync = raw_len <= cfg_.max_payload_bytes;
      if (resync && raw_len > 0) {
        std::vector<u8> skip(raw_len);
        try {
          if (!cs->conn->read_exact(skip.data(), skip.size())) break;
        } catch (...) {
          break;
        }
      }
      reg.counter_add(protocol_error_responses_);
      cs->enqueue_ready(error_frame(
          Header{.op = Op::kCompress, .request_id = e.request_id()},
          e.status(), e.what()));
      if (!resync) break;
      continue;
    }

    std::vector<u8> payload(h.payload_len);
    try {
      if (!cs->conn->read_exact(payload.data(), payload.size())) break;
    } catch (...) {
      break;
    }

    reg.counter_add(requests_received_);
    dispatch(cs, h, std::move(payload));
  }
  cs->reader_finished();
}

void FramedCore::dispatch(const std::shared_ptr<FramedConn>& cs,
                          const Header& h, std::vector<u8> payload) {
  if (h.kind != Kind::kRequest) {
    cs->enqueue_ready(error_frame(h, Status::kBadRequest, kind_error_));
    return;
  }
  switch (h.op) {
    case Op::kStats:
      cs->enqueue([this, h]() {
        Frame f = response_to(h);
        obs::Json j = obs::Json::object();
        j.set("schema", obs::kMetricsSchema);
        j.set("name", stats_name_);
        j.set("metrics", obs::MetricsRegistry::global().to_json());
        const std::string text = j.dump();
        f.payload.assign(text.begin(), text.end());
        return f;
      });
      return;
    case Op::kHealth: {
      // Answered from the reader with current values (no future to wait
      // on): a router probe must see load *now*, not after the response
      // stream drains.
      HealthInfo info;
      info.connections = connection_count();
      info.max_connections = cfg_.max_connections;
      info.accepting = accepting();
      handler_.fill_health(info);
      Frame f = response_to(h);
      f.payload = encode_health_info(info);
      cs->enqueue_ready(std::move(f));
      return;
    }
    case Op::kCancel: {
      if (payload.size() != sizeof(u64)) {
        cs->enqueue_ready(error_frame(h, Status::kBadRequest,
                                      "cancel payload must be a u64 id"));
        return;
      }
      u64 target = 0;
      std::memcpy(&target, payload.data(), sizeof(target));
      obs::MetricsRegistry::global().counter_add(cancels_received_);
      // Applied right here in the reader — a cancel must not wait behind
      // the in-order response stream it is trying to shorten; only the
      // ack rides that stream.
      handler_.on_cancel(*cs, target, response_to(h));
      return;
    }
    default:
      handler_.on_request(cs, h, std::move(payload));
      return;
  }
}

void FramedCore::writer_loop(std::shared_ptr<FramedConn> cs) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  util::FaultInjector& faults = util::FaultInjector::global();
  const u32 bound = response_payload_bound(cfg_.max_payload_bytes);
  bool conn_ok = true;
  for (;;) {
    std::function<Frame()> slot;
    {
      std::unique_lock<std::mutex> lock(cs->mu);
      cs->cv.wait(lock,
                  [&] { return !cs->slots.empty() || cs->reader_done; });
      if (cs->slots.empty()) break;  // reader done and everything drained
      slot = std::move(cs->slots.front());
      cs->slots.pop_front();
    }
    // Resolving a slot never throws (each slot catches internally) but
    // may block on a service or backend future — which always resolves,
    // so every slot drains even after the connection died.
    Frame f = slot();
    if (!conn_ok) {
      reg.counter_add(responses_dropped_);
      continue;
    }
    try {
      // Fault site: the connection dies while a response is in flight.
      if (!write_fault_.empty()) faults.maybe_throw(write_fault_);
      try {
        write_frame(*cs->conn, f, bound);
      } catch (const std::length_error&) {
        write_frame(*cs->conn,
                    error_frame(f.h, Status::kInternal,
                                "response exceeds the frame bound"),
                    bound);
      }
      reg.counter_add(responses_written_);
    } catch (...) {
      conn_ok = false;
      cs->conn->shutdown();  // unblocks the reader too
      reg.counter_add(responses_dropped_);
    }
  }
  // Every slot has drained, so nothing on this connection can make
  // further progress: the front end settles what is still open.
  handler_.on_teardown(*cs);
  cs->conn->shutdown();
}

}  // namespace parhuff::rpc
