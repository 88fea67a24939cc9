#include "rpc/transport_inmem.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <utility>
#include <vector>

namespace parhuff::rpc {

namespace {

using detail::Pipe;

/// One endpoint: reads from `in`, writes to `out`. The two endpoints of a
/// connection hold the same pipes crossed over.
class LoopbackConnection final : public Connection {
 public:
  LoopbackConnection(std::shared_ptr<Pipe> in, std::shared_ptr<Pipe> out)
      : in_(std::move(in)), out_(std::move(out)) {}
  ~LoopbackConnection() override { shutdown(); }

  bool read_exact(u8* dst, std::size_t n) override {
    std::size_t got = 0;
    std::unique_lock<std::mutex> lock(in_->mu);
    while (got < n) {
      in_->cv.wait(lock,
                   [&] { return in_->unread() != 0 || in_->closed; });
      const std::size_t take = std::min(n - got, in_->unread());
      if (take != 0) {  // a closed, drained pipe may hold no buffer at all
        std::memcpy(dst + got, in_->buf.data() + in_->head, take);
      }
      in_->head += take;
      in_->compact();
      got += take;
      if (got < n && in_->closed && in_->unread() == 0) {
        if (got == 0) return false;  // clean EOF between frames
        throw TransportError("rpc loopback: EOF mid-frame");
      }
    }
    return true;
  }

  void write_all(const u8* src, std::size_t n) override {
    {
      std::lock_guard<std::mutex> lock(out_->mu);
      if (out_->closed) {
        throw TransportError("rpc loopback: write on closed connection");
      }
      out_->buf.insert(out_->buf.end(), src, src + n);
    }
    // Exactly one reader per pipe direction; notify_one avoids spurious
    // wakeup churn on the hot frame path.
    out_->cv.notify_one();
  }

  void write_two(const u8* a, std::size_t na, const u8* b,
                 std::size_t nb) override {
    // One lock and one wakeup per frame instead of two: the reader sees
    // header and payload land together.
    {
      std::lock_guard<std::mutex> lock(out_->mu);
      if (out_->closed) {
        throw TransportError("rpc loopback: write on closed connection");
      }
      out_->buf.insert(out_->buf.end(), a, a + na);
      out_->buf.insert(out_->buf.end(), b, b + nb);
    }
    out_->cv.notify_one();
  }

  void shutdown() override {
    // Close both directions: our writes stop (peer drains then sees EOF)
    // and our blocked reads unblock.
    out_->close();
    in_->close();
  }

 private:
  std::shared_ptr<Pipe> in_;
  std::shared_ptr<Pipe> out_;
};

}  // namespace

struct LoopbackHub::State {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::unique_ptr<Connection>> backlog;  // server halves
  bool closed = false;
};

namespace {

class LoopbackListener final : public Listener {
 public:
  explicit LoopbackListener(std::shared_ptr<LoopbackHub::State> st)
      : st_(std::move(st)) {}

  std::unique_ptr<Connection> accept() override {
    std::unique_lock<std::mutex> lock(st_->mu);
    st_->cv.wait(lock, [&] { return !st_->backlog.empty() || st_->closed; });
    if (st_->backlog.empty()) return nullptr;  // closed
    std::unique_ptr<Connection> c = std::move(st_->backlog.front());
    st_->backlog.pop_front();
    return c;
  }

  void close() override {
    {
      std::lock_guard<std::mutex> lock(st_->mu);
      st_->closed = true;
    }
    st_->cv.notify_all();
  }

 private:
  std::shared_ptr<LoopbackHub::State> st_;
};

}  // namespace

LoopbackHub::LoopbackHub() : st_(std::make_shared<State>()) {}

LoopbackHub::~LoopbackHub() { close(); }

std::unique_ptr<Listener> LoopbackHub::listener() {
  return std::make_unique<LoopbackListener>(st_);
}

std::unique_ptr<Connection> LoopbackHub::connect() {
  auto c2s = std::make_shared<Pipe>();  // client writes, server reads
  auto s2c = std::make_shared<Pipe>();  // server writes, client reads
  auto client = std::make_unique<LoopbackConnection>(s2c, c2s);
  auto server = std::make_unique<LoopbackConnection>(c2s, s2c);
  {
    std::lock_guard<std::mutex> lock(st_->mu);
    if (st_->closed) {
      throw TransportError("rpc loopback: connect() on a closed hub");
    }
    st_->backlog.push_back(std::move(server));
  }
  st_->cv.notify_all();
  return client;
}

void LoopbackHub::close() {
  {
    std::lock_guard<std::mutex> lock(st_->mu);
    st_->closed = true;
    // Pending halves never accepted: closing them makes the matching
    // client side observe EOF instead of hanging.
    for (auto& c : st_->backlog) c->shutdown();
    st_->backlog.clear();
  }
  st_->cv.notify_all();
}

}  // namespace parhuff::rpc
