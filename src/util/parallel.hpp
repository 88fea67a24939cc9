#pragma once
// Thin OpenMP helpers shared by the host-parallel code paths (the
// multithreaded CPU encoder/codebook builder and the SIMT simulator's block
// scheduler). Kept header-only so loop bodies inline.

#include <atomic>
#include <cstddef>
#include <exception>
#include <vector>

#include <omp.h>

namespace parhuff {

/// Number of OpenMP threads the next parallel region will use.
[[nodiscard]] inline int max_threads() { return omp_get_max_threads(); }

/// The calling thread's index in its OpenMP team (0 outside a parallel
/// region). Inside a parallel_for with the default team it is below the
/// max_threads() read before the loop, so it can index per-thread state.
[[nodiscard]] inline std::size_t thread_index() {
  return static_cast<std::size_t>(omp_get_thread_num());
}

/// Run `fn(i)` for i in [0, n) across `threads` OpenMP threads
/// (0 = library default). Static schedule: all our loops are regular.
///
/// Exceptions thrown by `fn` are captured and rethrown after the region
/// (an exception escaping an OpenMP construct is otherwise fatal); when
/// several iterations throw, the first to claim the error slot wins. The
/// slot is claimed with a single atomic exchange, so a mass-throwing
/// kernel (every iteration of a decoder hitting corruption) never
/// serializes on a lock — losers drop their exception and move on.
/// Iterations are not cancelled — kernels that throw must leave shared
/// state merely unspecified, never invalid.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, int threads = 0) {
  if (threads == 1 || n == 0) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::exception_ptr first_error;
  std::atomic<bool> error_claimed{false};
  std::atomic<bool> error_ready{false};
#pragma omp parallel for schedule(static) num_threads(threads > 0 ? threads : omp_get_max_threads())
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
    try {
      fn(static_cast<std::size_t>(i));
    } catch (...) {
      if (!error_claimed.exchange(true, std::memory_order_relaxed)) {
        // Sole writer: the exchange admits exactly one thread. The
        // release store below (paired with the acquire load after the
        // region) publishes first_error without leaning on the OMP
        // barrier, keeping the handoff visible to TSan.
        first_error = std::current_exception();
        error_ready.store(true, std::memory_order_release);
      }
    }
  }
  if (error_ready.load(std::memory_order_acquire)) {
    std::rethrow_exception(first_error);
  }
}

/// Chunked variant: splits [0, n) into `pieces` contiguous ranges and runs
/// `fn(piece_index, begin, end)` in parallel. Used by the coarse-grained
/// (chunk-per-thread) baselines.
template <typename Fn>
void parallel_chunks(std::size_t n, std::size_t pieces, Fn&& fn,
                     int threads = 0) {
  if (pieces == 0) return;
  const std::size_t per = (n + pieces - 1) / pieces;
  parallel_for(
      pieces,
      [&](std::size_t p) {
        const std::size_t begin = p * per;
        const std::size_t end = begin + per < n ? begin + per : n;
        if (begin < end) fn(p, begin, end);
      },
      threads);
}

/// Exclusive prefix sum over `v`, returning the total. Sequential below a
/// size threshold, two-pass blocked scan above it. The Rahmani-style encoder
/// and the chunk-placement stage both depend on this.
template <typename T>
T exclusive_scan(std::vector<T>& v, int threads = 0) {
  const std::size_t n = v.size();
  if (n == 0) return T{0};
  const int p = threads > 0 ? threads : omp_get_max_threads();
  if (n < 4096 || p <= 1) {
    T run{0};
    for (std::size_t i = 0; i < n; ++i) {
      T x = v[i];
      v[i] = run;
      run += x;
    }
    return run;
  }
  const std::size_t pieces = static_cast<std::size_t>(p);
  const std::size_t per = (n + pieces - 1) / pieces;
  std::vector<T> piece_total(pieces, T{0});
  parallel_for(
      pieces,
      [&](std::size_t b) {
        const std::size_t begin = b * per;
        const std::size_t end = begin + per < n ? begin + per : n;
        T run{0};
        for (std::size_t i = begin; i < end; ++i) {
          T x = v[i];
          v[i] = run;
          run += x;
        }
        piece_total[b] = run;
      },
      p);
  T total{0};
  for (std::size_t b = 0; b < pieces; ++b) {
    T x = piece_total[b];
    piece_total[b] = total;
    total += x;
  }
  parallel_for(
      pieces,
      [&](std::size_t b) {
        const std::size_t begin = b * per;
        const std::size_t end = begin + per < n ? begin + per : n;
        const T offset = piece_total[b];
        for (std::size_t i = begin; i < end; ++i) v[i] += offset;
      },
      p);
  return total;
}

}  // namespace parhuff
