#pragma once
// Bounded-memory, multi-segment compression — the shape HPC integrations
// actually use (the paper's §I motivation: compress simulation output *as
// it streams*, timestep by timestep, without holding the run in memory).
// This module is the only one that knows the streamed container's (PHS2)
// layout: it writes it and it reads it.
//
// Two-pass protocol with one shared codebook:
//
//   StreamingCompressor<u16> sc(cfg);
//   for (auto seg : segments) sc.observe(seg);     // pass 1: histogram only
//   sc.freeze();                                   // build the codebook
//   sink(sc.header());                             // magic + codebook, once
//   for (auto seg : segments) sink(sc.encode_segment(seg));  // pass 2
//
//   StreamingDecompressor<u16> sd(header_bytes);
//   for (...) out += sd.decode_segment(frame);
//
// Segments are independent framed stream sections (u32 frame magic +
// u64 length + stream section), so a reader can skip, parallelize across,
// or re-order segments; the codebook travels once. A segment has no
// optional-field region, so streamed containers never carry gap metadata:
// PipelineConfig::gap_subseq_bits is silently ignored here, and segments
// always decode with the host tier (docs/decode.md). observe/encode may also
// be interleaved per timestep when the caller pre-trains the histogram on
// representative data and calls freeze() early — encode_segment only
// requires frozen state.
//
// A container that arrives in pieces cut anywhere (the RPC streaming
// verbs' chunks) goes through StreamReader: push() each piece, then
// finish(). header_length and split_frames stay public for callers that
// hold a whole container and want its frames as views (perfbench).
//
// Compressor state machine (two states, transitions throw std::logic_error
// when taken from the wrong state):
//
//   OBSERVING  — the initial state. Valid: observe(), smooth(), reset(),
//                freeze() (requires at least one observed symbol).
//   FROZEN     — after freeze(). Valid: codebook(), header(),
//                encode_segment(), reset().
//
//   OBSERVING --freeze()--> FROZEN --reset()--> OBSERVING
//
// reset() returns the compressor to OBSERVING with a cleared histogram and
// no codebook, keeping the config: one compressor object can be reused for
// stream after stream (the service layer reuses per-session compressors
// this way) without reconstructing.

#include <optional>
#include <span>
#include <vector>

#include "core/canonical.hpp"
#include "core/pipeline.hpp"
#include "util/types.hpp"

namespace parhuff {

/// First four bytes of a StreamingCompressor header ("PHS2") — public so
/// callers (the RPC decompress verb, the client's container sniffing) can
/// recognize a streamed container without parsing it.
inline constexpr char kStreamHeaderMagic[4] = {'P', 'H', 'S', '2'};

template <typename Sym>
class StreamingCompressor {
 public:
  explicit StreamingCompressor(PipelineConfig cfg);

  /// Pass 1: accumulate the histogram. Invalid after freeze().
  void observe(std::span<const Sym> segment);

  /// Add-one (Laplace) smoothing: every zero-frequency bin gets a count
  /// of 1 before the codebook is built, so any symbol of the alphabet
  /// stays encodable at worst-case code length even if later segments
  /// drift beyond the training data. Call before freeze().
  void smooth();

  /// Build the codebook from everything observed. Throws if nothing was
  /// observed or if already frozen.
  void freeze();

  /// Return to the OBSERVING state for a new stream: clears the
  /// accumulated histogram and drops the codebook while keeping the
  /// config. Valid in any state.
  void reset();

  [[nodiscard]] bool frozen() const { return frozen_; }
  [[nodiscard]] const Codebook& codebook() const;

  /// The once-per-stream header: magic + symbol width + codebook section.
  [[nodiscard]] std::vector<u8> header() const;

  /// Pass 2: one framed segment. Symbols absent from the observed
  /// histogram throw (the codebook cannot encode them). `cancel` follows
  /// the encode-side contract (checked at stage entry, polled per chunk
  /// inside the SIMT encoders) — the RPC streaming verbs thread the
  /// per-stream token through here.
  [[nodiscard]] std::vector<u8> encode_segment(
      std::span<const Sym> segment, const CancelToken* cancel = nullptr);

 private:
  PipelineConfig cfg_;
  std::vector<u64> freq_;
  Codebook cb_;
  bool frozen_ = false;
};

template <typename Sym>
class StreamingDecompressor {
 public:
  /// Parses a header produced by StreamingCompressor::header().
  explicit StreamingDecompressor(std::span<const u8> header);

  [[nodiscard]] const Codebook& codebook() const { return cb_; }

  /// Decodes one framed segment (a frame produced by encode_segment).
  /// Const and touches only the immutable codebook, so segments of one
  /// stream can be decoded from many threads concurrently (tested in
  /// test_streaming). `cancel` is polled per the decode-side contract
  /// (at least every 64 Ki symbols).
  [[nodiscard]] std::vector<Sym> decode_segment(
      std::span<const u8> frame, const CancelToken* cancel = nullptr) const;

  /// Splits a concatenation of frames into individual frames (views into
  /// the input).
  [[nodiscard]] static std::vector<std::span<const u8>> split_frames(
      std::span<const u8> bytes);

  /// Length in bytes of the stream header (magic + width + codebook) at
  /// the front of `bytes`. Throws std::runtime_error when the prefix is
  /// not a parsable header for this symbol width, the truncated case
  /// included.
  [[nodiscard]] static std::size_t header_length(std::span<const u8> bytes);

 private:
  Codebook cb_;
};

/// Split-tolerant reader of one streamed container. Bytes accumulate only
/// until the current header or frame completes, never the whole stream.
template <typename Sym>
class StreamReader {
 public:
  /// `unit_bound` caps one header or frame while it is waited on (a forged
  /// length never balloons the buffer); `output_bound` caps the decoded
  /// bytes of one push(). The defaults bound nothing.
  explicit StreamReader(u64 unit_bound = ~u64{0},
                        u64 output_bound = ~u64{0})
      : unit_bound_(unit_bound), output_bound_(output_bound) {}

  /// Takes the next piece (moved in when nothing is buffered) and returns
  /// the symbols of every frame it completes as bytes, the decode verbs'
  /// response layout. A bound, or a stream whose first 4 bytes are not
  /// PHS2, throws std::invalid_argument; a corrupt frame std::runtime_error.
  [[nodiscard]] std::vector<u8> push(std::vector<u8> piece,
                                     const CancelToken* cancel = nullptr);

  /// Throws std::invalid_argument when bytes of an incomplete header or
  /// frame are left over.
  void finish() const;

  /// Most bytes ever buffered across pieces.
  [[nodiscard]] u64 buffered_high_water() const { return high_water_; }

 private:
  u64 unit_bound_;
  u64 output_bound_;
  std::vector<u8> pending_;
  u64 high_water_ = 0;
  std::optional<StreamingDecompressor<Sym>> dec_;
};

extern template class StreamingCompressor<u8>;
extern template class StreamingCompressor<u16>;
extern template class StreamingDecompressor<u8>;
extern template class StreamingDecompressor<u16>;
extern template class StreamReader<u8>;
extern template class StreamReader<u16>;

}  // namespace parhuff
