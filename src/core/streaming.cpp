#include "core/streaming.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/bytesio.hpp"
#include "core/decode.hpp"
#include "core/format.hpp"
#include "core/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/fault_inject.hpp"
#include "util/timer.hpp"

namespace parhuff {

namespace {
constexpr u32 kFrameMagic = 0x50485346u;  // "PHSF"
constexpr std::size_t kFramePreamble = sizeof(u32) + sizeof(u64);

/// Reads a stream header (magic + symbol width + codebook section) at
/// `r`'s cursor.
template <typename Sym>
Codebook parse_header(ByteReader& r) {
  const auto magic = r.get_array<char>(4);
  if (std::memcmp(magic.data(), kStreamHeaderMagic, 4) != 0) {
    throw std::runtime_error("parhuff stream: bad header magic");
  }
  const u8 sym_bytes = r.get<u8>();
  if (sym_bytes != sizeof(Sym)) {
    throw std::runtime_error("parhuff stream: symbol width mismatch");
  }
  return read_codebook(r);
}

/// Reads a frame preamble (magic + body length) at `r`'s cursor and
/// returns the body length, which leaves room for the preamble in a
/// size_t, so preamble + body never wraps.
std::size_t read_preamble(ByteReader& r) {
  if (r.get<u32>() != kFrameMagic) {
    throw std::runtime_error("parhuff stream: bad frame magic");
  }
  const u64 body_len = r.get<u64>();
  if (body_len > SIZE_MAX - kFramePreamble) {
    throw std::runtime_error("parhuff stream: frame body length overflows");
  }
  return static_cast<std::size_t>(body_len);
}
}  // namespace

template <typename Sym>
StreamingCompressor<Sym>::StreamingCompressor(PipelineConfig cfg)
    : cfg_(std::move(cfg)), freq_(cfg_.nbins, 0) {
  if (cfg_.nbins == 0) throw std::invalid_argument("nbins must be positive");
}

template <typename Sym>
void StreamingCompressor<Sym>::observe(std::span<const Sym> segment) {
  if (frozen_) {
    throw std::logic_error("StreamingCompressor: observe() after freeze()");
  }
  // Injection site fires before the histogram touches freq_, so a failed
  // observe() leaves the accumulated profile unchanged and retryable.
  util::FaultInjector::global().maybe_throw("streaming.observe");
  obs::TraceSpan span("streaming.observe", "streaming");
  obs::MetricsRegistry::global().counter_add("streaming.segments_observed");
  obs::MetricsRegistry::global().counter_add(
      "streaming.observed_bytes", segment.size() * sizeof(Sym));
  const auto h = histogram_openmp<Sym>(segment, cfg_.nbins, cfg_.cpu_threads);
  for (std::size_t b = 0; b < freq_.size(); ++b) freq_[b] += h[b];
}

template <typename Sym>
void StreamingCompressor<Sym>::smooth() {
  if (frozen_) {
    throw std::logic_error("StreamingCompressor: smooth() after freeze()");
  }
  for (u64& f : freq_) {
    if (f == 0) f = 1;
  }
}

template <typename Sym>
void StreamingCompressor<Sym>::freeze() {
  if (frozen_) throw std::logic_error("StreamingCompressor: double freeze()");
  u64 total = 0;
  for (u64 f : freq_) total += f;
  if (total == 0) {
    throw std::logic_error("StreamingCompressor: freeze() before observe()");
  }
  // Fires before frozen_ flips, so a failed freeze() leaves the
  // compressor un-frozen: callers may retry freeze() or reset().
  util::FaultInjector::global().maybe_throw("streaming.freeze");
  obs::TraceSpan span("streaming.freeze", "streaming");
  cb_ = build_codebook(freq_, cfg_);
  frozen_ = true;
}

template <typename Sym>
void StreamingCompressor<Sym>::reset() {
  freq_.assign(cfg_.nbins, 0);
  cb_ = Codebook{};
  frozen_ = false;
  obs::MetricsRegistry::global().counter_add("streaming.resets");
}

template <typename Sym>
const Codebook& StreamingCompressor<Sym>::codebook() const {
  if (!frozen_) {
    throw std::logic_error("StreamingCompressor: codebook() before freeze()");
  }
  return cb_;
}

template <typename Sym>
std::vector<u8> StreamingCompressor<Sym>::header() const {
  if (!frozen_) {
    throw std::logic_error("StreamingCompressor: header() before freeze()");
  }
  ByteWriter w;
  w.put_array(std::span<const char>(kStreamHeaderMagic, 4));
  w.put<u8>(static_cast<u8>(sizeof(Sym)));
  write_codebook(w, cb_);
  return w.take();
}

template <typename Sym>
std::vector<u8> StreamingCompressor<Sym>::encode_segment(
    std::span<const Sym> segment, const CancelToken* cancel) {
  if (!frozen_) {
    throw std::logic_error(
        "StreamingCompressor: encode_segment() before freeze()");
  }
  // A failed segment encode loses only that frame — the codebook and
  // header stay valid, so the caller can re-encode the same segment.
  util::FaultInjector::global().maybe_throw("streaming.encode_segment");
  obs::TraceSpan span("streaming.encode_segment", "streaming");
  Timer seg_timer;
  const EncodedStream s = encode_with_codebook<Sym>(segment, cb_, cfg_, freq_,
                                                    nullptr, cancel);
  ByteWriter w;
  w.put<u32>(kFrameMagic);
  w.put<u64>(0);  // body length, patched below
  write_stream(w, s);
  w.patch<u64>(sizeof(u32), static_cast<u64>(w.size() - kFramePreamble));
  auto frame = w.take();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  reg.stage_add("streaming.encode_segment", seg_timer.seconds());
  reg.counter_add("streaming.segments_encoded");
  reg.counter_add("streaming.input_bytes", segment.size() * sizeof(Sym));
  reg.counter_add("streaming.frame_bytes", frame.size());
  return frame;
}

template <typename Sym>
StreamingDecompressor<Sym>::StreamingDecompressor(
    std::span<const u8> header) {
  ByteReader r(header);
  cb_ = parse_header<Sym>(r);
  if (!r.done()) {
    throw std::runtime_error("parhuff stream: trailing header bytes");
  }
}

template <typename Sym>
std::vector<Sym> StreamingDecompressor<Sym>::decode_segment(
    std::span<const u8> frame, const CancelToken* cancel) const {
  obs::TraceSpan span("streaming.decode_segment", "streaming");
  obs::MetricsRegistry::global().counter_add("streaming.segments_decoded");
  ByteReader r(frame);
  const std::size_t body_len = read_preamble(r);
  const EncodedStream s = read_stream(r);
  // The body is exactly one stream section and runs to the frame's end.
  if (!r.done() || kFramePreamble + body_len != frame.size()) {
    throw std::runtime_error("parhuff stream: frame length mismatch");
  }
  return decode_stream<Sym>(s, cb_, 0, cancel);
}

template <typename Sym>
std::size_t StreamingDecompressor<Sym>::header_length(
    std::span<const u8> bytes) {
  ByteReader r(bytes);
  (void)parse_header<Sym>(r);
  return r.position();
}

template <typename Sym>
std::vector<std::span<const u8>> StreamingDecompressor<Sym>::split_frames(
    std::span<const u8> bytes) {
  std::vector<std::span<const u8>> frames;
  ByteReader r(bytes);
  while (!r.done()) {
    const std::size_t frame_start = r.position();
    (void)r.get_view(read_preamble(r));
    frames.push_back(bytes.subspan(frame_start,
                                   r.position() - frame_start));
  }
  return frames;
}

template <typename Sym>
std::vector<u8> StreamReader<Sym>::push(std::vector<u8> piece,
                                        const CancelToken* cancel) {
  if (pending_.empty()) {
    pending_ = std::move(piece);
  } else {
    pending_.insert(pending_.end(), piece.begin(), piece.end());
  }
  if (pending_.size() > high_water_) high_water_ = pending_.size();
  std::vector<u8> out;
  std::size_t head = 0;
  if (!dec_) {
    // Fast-fail a stream that is not PHS2 at all (e.g. a monolithic PHF
    // container pushed through the chunk verbs) instead of buffering up
    // to the bound first.
    if (pending_.size() >= 4 &&
        std::memcmp(pending_.data(), kStreamHeaderMagic, 4) != 0) {
      throw std::invalid_argument("stream is not a PHS2 streamed container");
    }
    try {
      const std::size_t hl =
          StreamingDecompressor<Sym>::header_length(pending_);
      dec_.emplace(std::span<const u8>(pending_).first(hl));
      head = hl;
    } catch (const std::runtime_error&) {
      // Not parsable yet: either truncated (wait for more bytes) or
      // corrupt — the unit bound decides when waiting stops being an
      // option.
      if (pending_.size() > unit_bound_) {
        throw std::invalid_argument(
            "stream header unparsable within the buffering bound");
      }
      return out;
    }
  }
  for (;;) {
    const std::span<const u8> rest =
        std::span<const u8>(pending_).subspan(head);
    if (rest.size() < kFramePreamble) break;
    ByteReader preamble(rest);
    const std::size_t total = kFramePreamble + read_preamble(preamble);
    if (total > unit_bound_) {
      throw std::invalid_argument(
          "stream segment exceeds the buffering bound");
    }
    if (rest.size() < total) break;
    const std::vector<Sym> syms =
        dec_->decode_segment(rest.first(total), cancel);
    const std::size_t bytes = syms.size() * sizeof(Sym);
    if (out.size() + bytes > output_bound_) {
      throw std::invalid_argument(
          "chunk decodes beyond the response bound; stream smaller chunks");
    }
    const auto* b = reinterpret_cast<const u8*>(syms.data());
    out.insert(out.end(), b, b + bytes);
    head += total;
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(head));
  return out;
}

template <typename Sym>
void StreamReader<Sym>::finish() const {
  if (!pending_.empty()) {
    throw std::invalid_argument(
        "stream ended with " + std::to_string(pending_.size()) +
        " bytes of an incomplete header/segment");
  }
}

template class StreamingCompressor<u8>;
template class StreamingCompressor<u16>;
template class StreamingDecompressor<u8>;
template class StreamingDecompressor<u16>;
template class StreamReader<u8>;
template class StreamReader<u16>;

}  // namespace parhuff
