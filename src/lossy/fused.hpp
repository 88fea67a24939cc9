#pragma once
// Fused error-bounded lossy compression (cuSZ+-style, PAPERS.md #5;
// docs/lossy.md). A glued pipeline materializes the full quantization-code
// buffer, then hands it to the Huffman pipeline, which scans it again for
// the histogram. The fused path does prediction, quantization,
// histogramming and run-length extraction in ONE pass:
//
//   float field ─► prequantize ─► integer Lorenzo ─► RleAccumulator
//                   (quanta)            │                  │
//                                  outlier side      residual codes +
//                                    channel         residual histogram
//                                                          │
//                                         codebook (or cache hit) ─► encode
//
// Dual quantization: each value is first rounded to its quanta, an integer
// count of 2·eb steps from the anchor (the field's first finite value),
// and Lorenzo predicts quanta from quanta. No element waits on its
// neighbour's reconstructed float, and the reader rebuilds quanta by an
// integer recurrence.
//
// The full N-symbol code buffer never exists: long runs of the
// perfect-prediction code (overwhelming on smooth fields) go straight to
// the container's checksummed "RLE1" optional field (core/rle.hpp,
// core/format.hpp), and only the residual stream is Huffman-coded — over
// the narrow u8 alphabet when nbins <= 256, u16 otherwise. The reader
// pulls each row's codes back out of the residual and the run table
// (RleReader) inside its one reconstruct walk, so it never builds the
// code buffer either.
//
// Container: "PHL3" = header (with the f32 anchor) + outlier side channel
// + an embedded PHF4 container (PHF2/PHF3 in older files) whose stream
// may carry the RLE1 field; lossy::decompress_field() (lossy.hpp) reads it,
// and still reads the float-walk "PHL2" the compressor wrote before.
// Decompression guarantees |out - in| <= eb elementwise; outliers —
// including NaN/Inf inputs and values whose float rebuild would miss by
// more than eb — are restored bit-exactly, and both sides predict their
// neighbours from the same quanta of the stored value.
//
// The CodebookSource hook is how the service layer splices its sharded-LRU
// codebook cache into the fused path: find() is consulted with the
// residual histogram before a build (a covers()-guarded hit skips the
// build), store() publishes fresh builds. Fault sites: lossy.quantize,
// lossy.encode.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "core/pipeline.hpp"
#include "lossy/lossy.hpp"
#include "util/types.hpp"

namespace parhuff::lossy {

struct FusedConfig {
  /// Error bound relative to the field's finite-value range; the absolute
  /// bound is rel_error_bound * (max - min).
  double rel_error_bound = 1e-3;
  /// Absolute bound; used instead of the relative one when positive.
  double abs_error_bound = 0.0;
  /// Quantizer bins; nbins <= 256 selects the u8 Huffman alphabet.
  u32 nbins = 1024;
  /// Minimum run of perfect-prediction codes extracted into the RLE side
  /// channel. 0 disables extraction (container stays RLE-less).
  u32 rle_min_run = 256;
  /// Huffman stage configuration. nbins is overridden from the quantizer's
  /// nbins above; everything else (encoder kind, magnitude, gap
  /// annotation, threads) applies as-is.
  PipelineConfig pipeline;
};

struct FusedReport {
  double error_bound = 0;  ///< resolved absolute bound
  std::size_t outliers = 0;
  std::size_t rle_runs = 0;
  u64 rle_run_symbols = 0;       ///< symbols extracted into runs
  std::size_t residual_symbols = 0;  ///< symbols actually Huffman-coded
  double quantize_seconds = 0;   ///< the fused predict/quantize/RLE pass
  bool cache_hit = false;        ///< codebook came from a CodebookSource
  PipelineReport huffman;
  std::size_t raw_bytes = 0;
  std::size_t compressed_bytes = 0;
  std::size_t outlier_bytes = 0;

  [[nodiscard]] double ratio() const {
    return compressed_bytes == 0
               ? 0.0
               : static_cast<double>(raw_bytes) /
                     static_cast<double>(compressed_bytes);
  }
};

/// External codebook source — the service layer's cache, fingerprinted
/// over the residual quant-code histogram. find() returns a codebook that
/// covers `freq` (the caller has already applied its correctness guard) or
/// nullptr; store() receives freshly built books. Either hook may be
/// empty.
struct CodebookSource {
  std::function<std::shared_ptr<const Codebook>(std::span<const u64> freq,
                                                const PipelineConfig&)>
      find;
  std::function<void(std::span<const u64> freq, const PipelineConfig&,
                     const std::shared_ptr<const Codebook>&)>
      store;
};

/// Fused compress: one pass over `field`, then codebook + encode over the
/// residual stream only. Throws std::invalid_argument on shape/parameter
/// errors; `cancel` is polled inside the quantize pass (per row slab) and
/// through the pipeline stages.
[[nodiscard]] std::vector<u8> compress_field_fused(
    std::span<const float> field, data::Dims dims, const FusedConfig& cfg = {},
    FusedReport* report = nullptr, const CodebookSource* books = nullptr,
    const CancelToken* cancel = nullptr);

}  // namespace parhuff::lossy
