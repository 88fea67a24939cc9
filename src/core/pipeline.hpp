#pragma once
// End-to-end Huffman encoder pipeline (§IV): histogram → codebook →
// encode, with per-stage timing and simulator tallies. This is the object
// the examples and benches drive; Table V's breakdown columns map 1:1 onto
// PipelineReport.

#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encoded.hpp"
#include "core/par_codebook.hpp"
#include "simt/mem_model.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace parhuff {

enum class HistogramKind {
  kSerial,
  kOpenMP,
  kSimt,  ///< Gómez-Luna privatized kernel (default)
};

enum class CodebookKind {
  kSerialTree,    ///< two-queue serial baseline (SZ-style)
  kParallelSimt,  ///< Algorithm 1 on the cooperative grid (default)
  kParallelOmp,   ///< Algorithm 1 via OpenMP (the Table IV builder)
};

enum class EncoderKind {
  kSerial,             ///< single-thread reference
  kOpenMP,             ///< multithreaded CPU encoder (Table VI)
  kCoarseSimt,         ///< cuSZ-style chunk-per-thread baseline
  kPrefixSumSimt,      ///< Rahmani-style prefix-sum baseline
  kReduceShuffleSimt,  ///< the paper's encoder (default)
  kAdaptiveSimt,       ///< §VII extension: per-chunk reduce factors
};

struct PipelineConfig {
  std::size_t nbins = 256;
  HistogramKind histogram = HistogramKind::kSimt;
  CodebookKind codebook = CodebookKind::kParallelSimt;
  EncoderKind encoder = EncoderKind::kReduceShuffleSimt;
  u32 magnitude = 10;  ///< chunk = 2^magnitude symbols
  /// REDUCE-merge factor; unset → decided from the measured avg bitwidth
  /// (decide_reduce_factor).
  std::optional<u32> reduce_factor;
  int cpu_threads = 0;  ///< for the OpenMP stages (0 = library default)
  /// When nonzero, annotate the encoded stream with gap-array decode
  /// metadata at this subsequence granularity (core/decode_gaparray.hpp):
  /// decoders then skip the self-sync passes entirely. Stored as a
  /// versioned optional container field; 0 (default) keeps the container
  /// byte-identical to the previous format version.
  u32 gap_subseq_bits = 0;

  /// Memberwise equality — the service layer's request batcher coalesces
  /// requests whose configs compare equal.
  friend bool operator==(const PipelineConfig&,
                         const PipelineConfig&) = default;
};

struct PipelineReport {
  double hist_seconds = 0;
  double codebook_seconds = 0;
  double encode_seconds = 0;
  double gap_seconds = 0;  ///< gap-array annotation (0 unless enabled)
  simt::MemTally hist_tally;
  simt::MemTally codebook_tally;
  simt::MemTally encode_tally;
  double entropy_bits = 0;
  double avg_bits = 0;
  u32 reduce_factor = 0;
  ReduceShuffleStats rs;
  ParCodebookStats cb_stats;
  std::size_t input_bytes = 0;
  std::size_t compressed_bytes = 0;

  [[nodiscard]] double compression_ratio() const {
    return compressed_bytes == 0
               ? 0.0
               : static_cast<double>(input_bytes) /
                     static_cast<double>(compressed_bytes);
  }
  [[nodiscard]] double total_seconds() const {
    return hist_seconds + codebook_seconds + encode_seconds + gap_seconds;
  }
};

/// A compressed buffer: the canonical codebook plus the chunked stream.
template <typename Sym>
struct Compressed {
  Codebook codebook;
  EncodedStream stream;
};

// CancelToken / OperationCancelled / DeadlineExpired live in
// core/cancel.hpp (included above). Tokens are polled both between stages
// and *inside* the stage kernels (per chunk / per reduce group), so a
// cancelled or deadline-expired request abandons work mid-stage.

/// Runs the configured pipeline. `Sym` is u8 for generic byte data or u16
/// for multi-byte symbols (quantization codes, k-mer ids). When `cancel`
/// is given, it is polled between stages and at the kernels' cooperative
/// poll points; a fired token aborts with OperationCancelled /
/// DeadlineExpired (already-finished stage work is discarded).
template <typename Sym>
[[nodiscard]] Compressed<Sym> compress(std::span<const Sym> data,
                                       const PipelineConfig& cfg,
                                       PipelineReport* report = nullptr,
                                       const CancelToken* cancel = nullptr);

// --- Stage entry points (what compress() composes). -------------------------
//
// The service layer (src/svc/) drives these directly: its batcher builds
// one codebook per batch and encodes every member request against it, and
// its cache hands the same frozen Codebook instance to many requests at
// once. Neither function mutates the codebook, so a `const Codebook`
// (typically behind a shared_ptr) is safely shareable across threads.

/// Stage 1 standalone: the frequency profile of `data` under cfg's
/// histogram policy (cfg.nbins slots). `tally` collects the SIMT kernel's
/// transactions (ignored by the host kernels); `cancel` is polled inside
/// every kernel.
template <typename Sym>
[[nodiscard]] std::vector<u64> build_histogram(
    std::span<const Sym> data, const PipelineConfig& cfg,
    simt::MemTally* tally = nullptr, const CancelToken* cancel = nullptr);

/// Stages 2+3 standalone: build a canonical codebook for the frequency
/// profile `freq` (one slot per symbol; freq.size() is the alphabet size)
/// under cfg's codebook policy. When `report` is given, fills
/// codebook_seconds, codebook_tally and cb_stats only. `cancel` is polled
/// per reduce round in the parallel builders.
[[nodiscard]] Codebook build_codebook(std::span<const u64> freq,
                                      const PipelineConfig& cfg,
                                      PipelineReport* report = nullptr,
                                      const CancelToken* cancel = nullptr);

/// Stage 4 standalone: encode `data` against an existing codebook, which
/// is never mutated. `freq` (optional) is the frequency profile used to
/// pick the REDUCE factor when cfg.reduce_factor is unset; when empty and
/// the encoder needs one, a serial histogram of `data` is taken. Symbols
/// without a codeword (length 0) throw std::runtime_error from the
/// encoders — callers reusing a foreign codebook must guarantee coverage
/// (the service cache's correctness guard). When `report` is given, fills
/// encode_seconds, encode_tally, reduce_factor, rs and avg_bits only.
/// `cancel` is checked at stage entry and polled once per chunk inside the
/// SIMT encoders (coarse, prefix-sum, reduce/shuffle and adaptive).
template <typename Sym>
[[nodiscard]] EncodedStream encode_with_codebook(
    std::span<const Sym> data, const Codebook& cb, const PipelineConfig& cfg,
    std::span<const u64> freq = {}, PipelineReport* report = nullptr,
    const CancelToken* cancel = nullptr);

/// Stage 4 plus the optional stage 5: encode_with_codebook, then — when
/// cfg.gap_subseq_bits is set — annotate the stream with gap-array decode
/// metadata (fills report->gap_seconds). compress(), the fused lossy path
/// and the service all encode through this, so each honours
/// gap_subseq_bits.
template <typename Sym>
[[nodiscard]] EncodedStream encode_and_annotate(
    std::span<const Sym> data, const Codebook& cb, const PipelineConfig& cfg,
    std::span<const u64> freq = {}, PipelineReport* report = nullptr,
    const CancelToken* cancel = nullptr);

/// Inverse of compress (any encoder kind). Routes through decode_auto, so
/// streams carrying gap metadata take the gap-array tier.
template <typename Sym>
[[nodiscard]] std::vector<Sym> decompress(const Compressed<Sym>& blob,
                                          int threads = 0);

/// Tier selection for the read path (docs/decode.md): gap-array when the
/// stream carries metadata (per-chunk overflow fallback included), the
/// chunk-parallel host decoder otherwise. Emits `decode.*` counters and
/// stage timings to the global metrics registry — this is what the service
/// and RPC decompress paths call. `cancel` follows the decode-side
/// contract (polled at least once per 64 Ki symbols).
template <typename Sym>
[[nodiscard]] std::vector<Sym> decode_auto(const EncodedStream& s,
                                           const Codebook& cb,
                                           int threads = 0,
                                           const CancelToken* cancel = nullptr);

extern template EncodedStream encode_with_codebook<u8>(std::span<const u8>,
                                                       const Codebook&,
                                                       const PipelineConfig&,
                                                       std::span<const u64>,
                                                       PipelineReport*,
                                                       const CancelToken*);
extern template EncodedStream encode_with_codebook<u16>(std::span<const u16>,
                                                        const Codebook&,
                                                        const PipelineConfig&,
                                                        std::span<const u64>,
                                                        PipelineReport*,
                                                        const CancelToken*);
extern template Compressed<u8> compress<u8>(std::span<const u8>,
                                            const PipelineConfig&,
                                            PipelineReport*,
                                            const CancelToken*);
extern template Compressed<u16> compress<u16>(std::span<const u16>,
                                              const PipelineConfig&,
                                              PipelineReport*,
                                              const CancelToken*);
extern template std::vector<u8> decompress<u8>(const Compressed<u8>&, int);
extern template std::vector<u16> decompress<u16>(const Compressed<u16>&, int);
extern template std::vector<u8> decode_auto<u8>(const EncodedStream&,
                                                const Codebook&, int,
                                                const CancelToken*);
extern template std::vector<u16> decode_auto<u16>(const EncodedStream&,
                                                  const Codebook&, int,
                                                  const CancelToken*);

}  // namespace parhuff
