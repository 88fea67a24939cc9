#include "rpc/client.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <exception>

#include "core/streaming.hpp"
#include "svc/deadline.hpp"
#include "util/fault_inject.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace parhuff::rpc {

namespace {

/// Chunk frames kept in flight per stream before the driver waits on the
/// oldest ack — the transfer/encode-overlap pipelining depth.
constexpr std::size_t kStreamWindow = 8;

[[nodiscard]] std::string payload_message(const std::vector<u8>& payload) {
  return std::string(payload.begin(), payload.end());
}

/// Map a non-kOk response onto the exception the caller's future carries.
/// Deadline/cancel reuse the in-process service exception types so callers
/// handle both transports with one catch.
[[nodiscard]] std::exception_ptr status_exception(
    Status s, const std::vector<u8>& payload) {
  switch (s) {
    case Status::kDeadlineExceeded:
      return std::make_exception_ptr(svc::DeadlineExceeded());
    case Status::kCancelled:
      return std::make_exception_ptr(svc::CancelledError());
    default:
      return std::make_exception_ptr(RpcError(s, payload_message(payload)));
  }
}

/// A request header carrying the call's priority and its relative
/// deadline budget.
[[nodiscard]] Header request_header(Op op, u8 sym_width,
                                    const RpcOptions& opts) {
  Header h;
  h.op = op;
  h.sym_width = sym_width;
  h.priority = static_cast<u8>(opts.priority);
  h.deadline_micros = opts.deadline_seconds > 0
                          ? static_cast<u64>(opts.deadline_seconds * 1e6)
                          : 0;
  return h;
}

}  // namespace

RpcClient::RpcClient(Connector connect, ClientConfig cfg)
    : connector_(std::move(connect)),
      cfg_(cfg),
      clock_(cfg.clock ? cfg.clock : &util::Clock::real()) {
  if (!connector_) {
    throw std::invalid_argument("RpcClient: null connector");
  }
  reader_ = std::thread([this] { reader_loop(); });
}

RpcClient::~RpcClient() {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    conn = conn_;
  }
  conn_cv_.notify_all();
  if (conn) conn->shutdown();  // unblocks a reader parked in read_exact
  if (reader_.joinable()) reader_.join();

  // The reader fails its own generation's pendings as connections die; a
  // request registered after the final connection loss can still be left.
  std::unordered_map<u64, Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftover.swap(pending_);
  }
  for (auto& [id, p] : leftover) {
    p.promise.set_exception(std::make_exception_ptr(
        TransportError("rpc client: destroyed with request in flight")));
  }

  // Stream drivers join last: every future a driver still holds resolved
  // above (reader generation sweep, the sender's own failure path, or the
  // leftover sweep), and a driver submitting after stopping_ fails fast in
  // ensure_connected without ever registering, so no join can hang.
  std::vector<Driver> drivers;
  {
    std::lock_guard<std::mutex> lock(drivers_mu_);
    drivers.swap(drivers_);
  }
  for (Driver& d : drivers) {
    if (d.t.joinable()) d.t.join();
  }
}

RpcCall RpcClient::compress(std::span<const u8> symbol_bytes, u8 sym_width,
                            const RpcOptions& opts) {
  return compress(std::vector<u8>(symbol_bytes.begin(), symbol_bytes.end()),
                  sym_width, opts);
}

RpcCall RpcClient::compress(std::vector<u8>&& symbol_bytes, u8 sym_width,
                            const RpcOptions& opts) {
  if (use_streaming(symbol_bytes.size())) {
    return submit_stream(Op::kCompressStreamBegin, std::move(symbol_bytes),
                         sym_width, opts);
  }
  Frame f;
  f.h = request_header(Op::kCompress, sym_width, opts);
  f.payload = std::move(symbol_bytes);
  return submit_frame(std::move(f));
}

RpcCall RpcClient::decompress(std::span<const u8> container, u8 sym_width,
                              const RpcOptions& opts) {
  return decompress(std::vector<u8>(container.begin(), container.end()),
                    sym_width, opts);
}

RpcCall RpcClient::decompress(std::vector<u8>&& container, u8 sym_width,
                              const RpcOptions& opts) {
  // Only a streamed container (PHS3/PHS2) can be split at segment
  // boundaries on the server; a monolithic PHF container past the frame
  // bound keeps the typed kBadRequest from submit_frame's bound check.
  if (is_streamed_container(container) && use_streaming(container.size())) {
    return submit_stream(Op::kDecompressStreamBegin, std::move(container),
                         sym_width, opts);
  }
  Frame f;
  f.h = request_header(Op::kDecompress, sym_width, opts);
  f.payload = std::move(container);
  return submit_frame(std::move(f));
}

RpcCall RpcClient::lossy_compress(std::span<const float> field,
                                  const LossyRequestHeader& cfg,
                                  const RpcOptions& opts) {
  // Informational: the residual Huffman alphabet the server will use.
  Frame f;
  f.h = request_header(Op::kLossyCompress, cfg.nbins <= 256 ? 1 : 2, opts);
  f.payload = encode_lossy_request_header(cfg);
  const std::size_t at = f.payload.size();
  f.payload.resize(at + field.size() * sizeof(float));
  if (!field.empty()) {
    std::memcpy(f.payload.data() + at, field.data(),
                field.size() * sizeof(float));
  }
  return submit_frame(std::move(f));
}

RpcCall RpcClient::lossy_compress_raw(std::span<const u8> payload,
                                      u8 sym_width, const RpcOptions& opts) {
  return submit_frame(request_header(Op::kLossyCompress, sym_width, opts),
                      payload);
}

RpcCall RpcClient::lossy_decompress(std::span<const u8> container,
                                    const RpcOptions& opts) {
  return submit_frame(request_header(Op::kLossyDecompress, 1, opts),
                      container);
}

RpcCall RpcClient::stream_begin(Op op, u8 sym_width, const RpcOptions& opts) {
  if (!is_stream_begin_op(op)) {
    throw std::invalid_argument("stream_begin: op is not a stream Begin op");
  }
  return submit_frame(request_header(op, sym_width, opts), {});
}

RpcCall RpcClient::stream_frame(Op op, u64 stream_id,
                                std::span<const u8> payload) {
  if (!is_stream_ref_op(op)) {
    throw std::invalid_argument(
        "stream_frame: op is not a stream Chunk/End op");
  }
  Header h;
  h.op = op;
  h.stream_id = stream_id;
  return submit_frame(h, payload);
}

RpcCall RpcClient::stream_end(Op op, u64 stream_id, u64 total_bytes,
                              u64 checksum) {
  if (op != Op::kCompressStreamEnd && op != Op::kDecompressStreamEnd) {
    throw std::invalid_argument("stream_end: op is not a stream End op");
  }
  const std::vector<u8> body =
      encode_stream_end_request(StreamEndRequest{total_bytes, checksum});
  return stream_frame(op, stream_id, std::span<const u8>(body));
}

std::future<void> RpcClient::cancel(u64 request_id) {
  Frame f;
  f.h.op = Op::kCancel;
  f.payload.resize(8);
  std::memcpy(f.payload.data(), &request_id, 8);  // LE hosts only, like bytesio
  RpcCall call = submit_frame(std::move(f));
  return std::async(std::launch::deferred,
                    [fut = std::move(call.result)]() mutable { fut.get(); });
}

std::future<std::string> RpcClient::stats() {
  Frame f;
  f.h.op = Op::kStats;
  RpcCall call = submit_frame(std::move(f));
  return std::async(std::launch::deferred,
                    [fut = std::move(call.result)]() mutable {
                      return payload_message(fut.get());
                    });
}

std::future<HealthInfo> RpcClient::health() {
  Frame f;
  f.h.op = Op::kHealth;
  RpcCall call = submit_frame(std::move(f));
  return std::async(std::launch::deferred,
                    [fut = std::move(call.result)]() mutable {
                      return decode_health_info(fut.get());
                    });
}

bool RpcClient::use_streaming(std::size_t payload_bytes) const {
  const std::size_t threshold = cfg_.stream_threshold_bytes > 0
                                    ? cfg_.stream_threshold_bytes
                                    : cfg_.max_payload_bytes;
  return payload_bytes > threshold;
}

RpcCall RpcClient::submit_stream(Op begin_op, std::vector<u8> data,
                                 u8 sym_width, RpcOptions opts) {
  // Begin goes out inline so the returned id is the Begin id — the handle
  // cancel() takes for the whole stream — and so a connect failure
  // surfaces on the caller's thread, not inside a detached driver.
  RpcCall begin = stream_begin(begin_op, sym_width, opts);
  auto out = std::make_shared<std::promise<std::vector<u8>>>();
  RpcCall call{out->get_future(), begin.id};

  auto done = std::make_shared<std::atomic<bool>>(false);
  std::thread t([this, begin_op, sym_width, d = std::move(data),
                 bf = std::move(begin.result), out, done]() mutable {
    drive_stream(begin_op, std::move(d), sym_width, std::move(bf), out);
    done->store(true, std::memory_order_release);
  });

  std::lock_guard<std::mutex> lock(drivers_mu_);
  // Reap drivers that already finished — joins are instant — so a
  // long-lived client streaming forever keeps a bounded thread roster.
  for (auto it = drivers_.begin(); it != drivers_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      if (it->t.joinable()) it->t.join();
      it = drivers_.erase(it);
    } else {
      ++it;
    }
  }
  drivers_.push_back(Driver{std::move(t), std::move(done)});
  return call;
}

void RpcClient::drive_stream(Op begin_op, std::vector<u8> data, u8 sym_width,
                             std::future<std::vector<u8>> begin,
                             std::shared_ptr<std::promise<std::vector<u8>>> out) {
  std::deque<std::future<std::vector<u8>>> window;
  try {
    const std::vector<u8> sid_bytes = begin.get();  // typed/transport throws
    if (sid_bytes.size() < 8) {
      throw RpcError(Status::kInternal,
                     "rpc stream: short stream-id payload in Begin response");
    }
    u64 sid = 0;
    std::memcpy(&sid, sid_bytes.data(), 8);  // LE hosts only, like bytesio

    const bool compressing = begin_op == Op::kCompressStreamBegin;
    const Op chunk_op =
        compressing ? Op::kCompressStreamChunk : Op::kDecompressStreamChunk;
    const Op end_op =
        compressing ? Op::kCompressStreamEnd : Op::kDecompressStreamEnd;

    // Chunks carry whole symbols: a u16 symbol split across two chunks
    // would make the server's compressor see a torn alphabet.
    const std::size_t width = sym_width > 0 ? sym_width : 1;
    std::size_t chunk_bytes = cfg_.stream_chunk_bytes > 0
                                  ? cfg_.stream_chunk_bytes
                                  : kDefaultStreamChunkBytes;
    chunk_bytes -= chunk_bytes % width;
    if (chunk_bytes == 0) chunk_bytes = width;

    std::vector<u8> result;
    u64 checksum = kFnv1aSeed;
    auto drain_one = [&] {
      std::vector<u8> ack = window.front().get();
      window.pop_front();
      result.insert(result.end(), ack.begin(), ack.end());
    };

    for (std::size_t off = 0; off < data.size(); off += chunk_bytes) {
      const std::size_t n = std::min(chunk_bytes, data.size() - off);
      // The span is a view into `data` — stream_frame writes it to the
      // wire synchronously, so nothing is copied into an owned frame.
      const std::span<const u8> piece(data.data() + off, n);
      checksum = container_digest(piece, checksum);
      while (window.size() >= kStreamWindow) drain_one();
      window.push_back(stream_frame(chunk_op, sid, piece).result);
    }
    while (!window.empty()) drain_one();

    RpcCall end = stream_end(end_op, sid, data.size(), checksum);
    // The summary is the server's account of the stream: untrusted bytes
    // that must agree with what this client sent and received.
    const StreamSummary sum =
        decode_stream_summary(std::span<const u8>(end.result.get()));
    if (sum.bytes_in != data.size() || sum.bytes_out != result.size() ||
        sum.checksum != checksum) {
      throw RpcError(Status::kInternal,
                     "rpc stream: End summary disagrees with the stream");
    }
    out->set_value(std::move(result));
  } catch (...) {
    // In-flight chunk acks behind the failure still resolve (the reader's
    // generation sweep or the sender's own failure path guarantees it);
    // drain them so no future outlives this frame's stack.
    const std::exception_ptr err = std::current_exception();
    while (!window.empty()) {
      try {
        (void)window.front().get();
      } catch (...) {
      }
      window.pop_front();
    }
    out->set_exception(err);
  }
}

RpcCall RpcClient::submit_frame(Frame f) {
  return submit_frame(f.h, std::span<const u8>(f.payload));
}

RpcCall RpcClient::submit_frame(Header h, std::span<const u8> payload) {
  const u64 id = next_id_.fetch_add(1, std::memory_order_relaxed);
  h.kind = Kind::kRequest;
  h.request_id = id;
  h.status = Status::kOk;

  std::promise<std::vector<u8>> promise;
  RpcCall call{promise.get_future(), id};

  // Check the bound before touching the connection so an oversized
  // payload fails typed without burning a connect attempt.
  if (payload.size() > cfg_.max_payload_bytes) {
    promise.set_exception(std::make_exception_ptr(RpcError(
        Status::kBadRequest, "rpc: frame payload exceeds the protocol bound")));
    return call;
  }

  std::lock_guard<std::mutex> send_lock(send_mu_);
  std::shared_ptr<Connection> conn;
  u64 gen = 0;
  try {
    std::tie(conn, gen) = ensure_connected();
  } catch (...) {
    promise.set_exception(std::current_exception());
    return call;
  }

  // Register before writing: the response can arrive the instant the
  // bytes land, and the reader must find the pending entry.
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.emplace(id, Pending{gen, std::move(promise)});
  }

  try {
    util::FaultInjector::global().maybe_throw("rpc.client.send");
    write_frame(*conn, h, payload, cfg_.max_payload_bytes);
  } catch (...) {
    // Fail only our own promise (if the reader didn't already claim it as
    // part of a generation sweep), then kill the connection; the reader
    // observes the death, fails the generation's other pendings and
    // clears conn_ for the next sender to redial.
    std::promise<std::vector<u8>> mine;
    bool have = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(id);
      if (it != pending_.end() && it->second.generation == gen) {
        mine = std::move(it->second.promise);
        pending_.erase(it);
        have = true;
      }
    }
    if (have) {
      mine.set_exception(std::make_exception_ptr(
          TransportError("rpc client: send failed")));
    }
    conn->shutdown();
  }
  return call;
}

std::pair<std::shared_ptr<Connection>, u64> RpcClient::ensure_connected() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw TransportError("rpc client: shutting down");
    }
    if (conn_) return {conn_, generation_};
  }

  Xoshiro256 rng(0x5bd1e995u + next_id_.load(std::memory_order_relaxed));
  std::string last_error = "no attempt made";
  const int attempts = cfg_.connect_attempts > 0 ? cfg_.connect_attempts : 1;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      util::backoff_sleep(cfg_.backoff, attempt - 1, rng, *clock_);
    }
    try {
      util::FaultInjector::global().maybe_throw("rpc.client.connect");
      std::unique_ptr<Connection> fresh = connector_();
      if (!fresh) throw TransportError("connector returned null");
      std::shared_ptr<Connection> conn = std::move(fresh);
      u64 gen;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_) {
          conn->shutdown();
          throw TransportError("rpc client: shutting down");
        }
        conn_ = conn;
        gen = ++generation_;
      }
      conn_cv_.notify_all();  // hand the new connection to the reader
      return {conn, gen};
    } catch (const TransportError& e) {
      if (std::string_view(e.what()) == "rpc client: shutting down") throw;
      last_error = e.what();
    } catch (const std::exception& e) {
      last_error = e.what();
    }
  }
  throw TransportError("rpc client: connect failed after " +
                       std::to_string(attempts) +
                       " attempts: " + last_error);
}

void RpcClient::reader_loop() {
  for (;;) {
    std::shared_ptr<Connection> conn;
    u64 gen = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      conn_cv_.wait(lock, [&] { return conn_ != nullptr || stopping_; });
      if (stopping_) return;
      conn = conn_;
      gen = generation_;
    }

    // Drain responses until the connection dies, then fail whatever this
    // generation still has pending. The reader is the only actor that
    // fails a whole generation; senders only ever fail their own request.
    std::string why = "connection closed";
    try {
      for (;;) {
        util::FaultInjector::global().maybe_throw("rpc.client.read");
        std::array<u8, kHeaderBytes> hdr;
        if (!conn->read_exact(hdr.data(), hdr.size())) break;  // clean EOF
        const Header h = decode_header(
            std::span<const u8, kHeaderBytes>(hdr),
            response_payload_bound(cfg_.max_payload_bytes));
        std::vector<u8> payload(h.payload_len);
        if (h.payload_len > 0 &&
            !conn->read_exact(payload.data(), payload.size())) {
          throw TransportError("rpc client: EOF before payload");
        }
        if (h.kind != Kind::kResponse) {
          throw ProtocolError("request frame on the response stream",
                              Status::kBadRequest, false, h.request_id);
        }

        std::promise<std::vector<u8>> promise;
        bool have = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          auto it = pending_.find(h.request_id);
          if (it != pending_.end() && it->second.generation == gen) {
            promise = std::move(it->second.promise);
            pending_.erase(it);
            have = true;
          }
        }
        // Unmatched ids are tolerated: the sender may have failed the
        // request locally before the response arrived.
        if (!have) continue;
        if (h.status == Status::kOk) {
          promise.set_value(std::move(payload));
        } else {
          promise.set_exception(status_exception(h.status, payload));
        }
      }
    } catch (const std::exception& e) {
      why = e.what();
    }

    conn->shutdown();
    std::vector<std::promise<std::vector<u8>>> orphans;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conn_ == conn) conn_ = nullptr;  // next sender redials
      for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->second.generation == gen) {
          orphans.push_back(std::move(it->second.promise));
          it = pending_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& p : orphans) {
      p.set_exception(std::make_exception_ptr(
          TransportError("rpc client: connection lost: " + why)));
    }
  }
}

}  // namespace parhuff::rpc
