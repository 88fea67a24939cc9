#include "core/pipeline.hpp"

#include <stdexcept>

#include "core/decode.hpp"
#include "core/decode_gaparray.hpp"
#include "core/encode_adaptive.hpp"
#include "core/encode_serial.hpp"
#include "core/encode_simt.hpp"
#include "core/entropy.hpp"
#include "core/executor.hpp"
#include "core/histogram.hpp"
#include "core/tree.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "simt/coop.hpp"

namespace parhuff {

template <typename Sym>
std::vector<u64> build_histogram(std::span<const Sym> data,
                                 const PipelineConfig& cfg,
                                 simt::MemTally* tally,
                                 const CancelToken* cancel) {
  obs::TraceSpan span("pipeline.histogram", "pipeline");
  switch (cfg.histogram) {
    case HistogramKind::kSerial:
      return histogram_serial(data, cfg.nbins, cancel);
    case HistogramKind::kOpenMP:
      return histogram_openmp(data, cfg.nbins, cfg.cpu_threads, cancel);
    case HistogramKind::kSimt:
      break;
  }
  return histogram_simt(data, cfg.nbins, tally, SimtHistogramConfig{},
                        cancel);
}

Codebook build_codebook(std::span<const u64> freq, const PipelineConfig& cfg,
                        PipelineReport* report, const CancelToken* cancel) {
  if (freq.empty()) {
    throw std::invalid_argument("build_codebook: empty frequency profile");
  }
  obs::TraceSpan span("pipeline.codebook", "pipeline");
  PipelineReport local;
  PipelineReport& rep = report ? *report : local;
  if (cancel) cancel->check();
  Timer t;
  Codebook cb;
  switch (cfg.codebook) {
    case CodebookKind::kSerialTree: {
      SerialBuildStats st;
      cb = build_codebook_serial(freq, &st);
      rep.codebook_tally.serial_dependent_ops += st.dependent_ops;
      break;
    }
    case CodebookKind::kParallelSimt: {
      simt::CooperativeGrid grid(
          std::min<std::size_t>(freq.size(), 64 * 1024), &rep.codebook_tally);
      cb = build_codebook_parallel(grid, freq, &rep.cb_stats, grid.tally(),
                                   cancel);
      break;
    }
    case CodebookKind::kParallelOmp: {
      OmpExec exec(cfg.cpu_threads);
      cb = build_codebook_parallel(exec, freq, &rep.cb_stats, nullptr, cancel);
      break;
    }
  }
  rep.codebook_seconds = t.seconds();
  return cb;
}

template <typename Sym>
EncodedStream encode_with_codebook(std::span<const Sym> data,
                                   const Codebook& cb,
                                   const PipelineConfig& cfg,
                                   std::span<const u64> freq,
                                   PipelineReport* report,
                                   const CancelToken* cancel) {
  obs::TraceSpan span("pipeline.encode", "pipeline");
  // One range for every encoder kind: 2^12 symbols is the largest chunk a
  // block's 96 KiB of shared memory holds, and a config must not turn
  // invalid when only its encoder changes.
  if (cfg.magnitude < 1 || cfg.magnitude > 12) {
    throw std::invalid_argument("magnitude must be in [1, 12]");
  }
  PipelineReport local;
  PipelineReport& rep = report ? *report : local;
  // The modeled tally costs host time; charge it only when a report will
  // carry it.
  simt::MemTally* const tally = report ? &report->encode_tally : nullptr;
  // Stage-entry check covers the encoder kinds without in-kernel polls
  // (serial / OpenMP); the SIMT encoders below also poll per chunk.
  if (cancel) cancel->check();
  // REDUCE-factor choice needs an average bitwidth; take a serial
  // histogram only when the caller didn't supply a profile and the
  // encoder actually needs one.
  std::vector<u64> own_freq;
  std::span<const u64> profile = freq;
  if (profile.empty() && !cfg.reduce_factor &&
      cfg.encoder == EncoderKind::kReduceShuffleSimt) {
    own_freq = histogram_serial(data, cb.nbins, cancel);
    profile = own_freq;
  }
  if (!profile.empty()) rep.avg_bits = average_bitwidth(cb, profile);

  EncodedStream stream;
  Timer t;
  const u32 chunk = u32{1} << cfg.magnitude;
  switch (cfg.encoder) {
    case EncoderKind::kSerial:
      stream = encode_serial(data, cb, chunk);
      break;
    case EncoderKind::kOpenMP:
      stream = encode_openmp(data, cb, chunk, cfg.cpu_threads);
      break;
    case EncoderKind::kCoarseSimt:
      stream = encode_coarse_simt(data, cb, chunk, tally, cancel);
      break;
    case EncoderKind::kPrefixSumSimt:
      stream = encode_prefixsum_simt(data, cb, chunk, tally, cancel);
      break;
    case EncoderKind::kReduceShuffleSimt: {
      ReduceShuffleConfig rs;
      rs.magnitude = cfg.magnitude;
      rs.reduce_factor =
          cfg.reduce_factor
              ? *cfg.reduce_factor
              : decide_reduce_factor(rep.avg_bits, cfg.magnitude);
      rep.reduce_factor = rs.reduce_factor;
      // The host emitter writes the kernel's bytes and charges the
      // kernel's modeled tally; encode_reduceshuffle_simt is the model.
      stream = emit_reduceshuffle(data, cb, rs, tally, &rep.rs, cancel);
      break;
    }
    case EncoderKind::kAdaptiveSimt: {
      AdaptiveConfig ac;
      ac.magnitude = cfg.magnitude;
      AdaptiveStats st;
      stream = emit_adaptive<Sym, 32>(data, cb, ac, tally, &st, cancel);
      rep.rs.breaking_groups = st.breaking_groups;
      rep.rs.breaking_symbols = st.breaking_symbols;
      break;
    }
  }
  rep.encode_seconds = t.seconds();
  return stream;
}

template <typename Sym>
EncodedStream encode_and_annotate(std::span<const Sym> data,
                                  const Codebook& cb,
                                  const PipelineConfig& cfg,
                                  std::span<const u64> freq,
                                  PipelineReport* report,
                                  const CancelToken* cancel) {
  EncodedStream stream =
      encode_with_codebook<Sym>(data, cb, cfg, freq, report, cancel);
  if (cfg.gap_subseq_bits != 0) {
    if (cancel) cancel->check();
    obs::TraceSpan span("pipeline.gap_annotate", "pipeline");
    Timer t;
    annotate_gaps(stream, cb, cfg.gap_subseq_bits);
    if (report) report->gap_seconds = t.seconds();
  }
  return stream;
}

template <typename Sym>
Compressed<Sym> compress(std::span<const Sym> data, const PipelineConfig& cfg,
                         PipelineReport* report, const CancelToken* cancel) {
  if (cfg.nbins == 0) throw std::invalid_argument("nbins must be positive");
  obs::TraceSpan compress_span("pipeline.compress", "pipeline");
  PipelineReport local;
  PipelineReport& rep = report ? *report : local;
  rep = PipelineReport{};
  rep.input_bytes = data.size() * sizeof(Sym);

  Compressed<Sym> out;
  if (cancel) cancel->check();

  // --- Stage 1: histogram. ------------------------------------------------
  Timer t;
  const std::vector<u64> freq =
      build_histogram(data, cfg, &rep.hist_tally, cancel);
  rep.hist_seconds = t.seconds();
  rep.entropy_bits = shannon_entropy(freq);
  if (cancel) cancel->check();

  // --- Stage 2+3: codebook construction + canonization. -------------------
  out.codebook = build_codebook(freq, cfg, &rep, cancel);
  rep.avg_bits = average_bitwidth(out.codebook, freq);
  if (cancel) cancel->check();

  // --- Stage 4 (+ optional stage 5, gap-array decode metadata). ----------
  out.stream =
      encode_and_annotate<Sym>(data, out.codebook, cfg, freq, &rep, cancel);
  rep.compressed_bytes = out.stream.stored_bytes();
  obs::publish(obs::MetricsRegistry::global(), rep);
  return out;
}

template <typename Sym>
std::vector<Sym> decode_auto(const EncodedStream& s, const Codebook& cb,
                             int threads, const CancelToken* cancel) {
  auto& reg = obs::MetricsRegistry::global();
  if (s.has_gaps()) {
    obs::TraceSpan span("pipeline.decode.gaparray", "pipeline");
    Timer t;
    GapArrayStats st;
    auto out = decode_gaparray<Sym>(s, cb, nullptr, &st, cancel);
    reg.stage_add("decode.gaparray", t.seconds());
    reg.counter_add("decode.gaparray");
    reg.counter_add("decode.symbols", out.size());
    reg.counter_add("decode.gaparray_subsequences", st.subsequences);
    if (st.fallback_chunks != 0) {
      reg.counter_add("decode.gaparray_fallback_chunks", st.fallback_chunks);
    }
    return out;
  }
  obs::TraceSpan span("pipeline.decode.host", "pipeline");
  Timer t;
  auto out = decode_stream<Sym>(s, cb, threads, cancel);
  reg.stage_add("decode.host", t.seconds());
  reg.counter_add("decode.host");
  reg.counter_add("decode.symbols", out.size());
  return out;
}

template <typename Sym>
std::vector<Sym> decompress(const Compressed<Sym>& blob, int threads) {
  obs::TraceSpan span("pipeline.decompress", "pipeline");
  return decode_auto<Sym>(blob.stream, blob.codebook, threads);
}

template EncodedStream encode_with_codebook<u8>(std::span<const u8>,
                                                const Codebook&,
                                                const PipelineConfig&,
                                                std::span<const u64>,
                                                PipelineReport*,
                                                const CancelToken*);
template EncodedStream encode_with_codebook<u16>(std::span<const u16>,
                                                 const Codebook&,
                                                 const PipelineConfig&,
                                                 std::span<const u64>,
                                                 PipelineReport*,
                                                 const CancelToken*);
template std::vector<u64> build_histogram<u8>(std::span<const u8>,
                                              const PipelineConfig&,
                                              simt::MemTally*,
                                              const CancelToken*);
template std::vector<u64> build_histogram<u16>(std::span<const u16>,
                                               const PipelineConfig&,
                                               simt::MemTally*,
                                               const CancelToken*);
template EncodedStream encode_and_annotate<u8>(std::span<const u8>,
                                               const Codebook&,
                                               const PipelineConfig&,
                                               std::span<const u64>,
                                               PipelineReport*,
                                               const CancelToken*);
template EncodedStream encode_and_annotate<u16>(std::span<const u16>,
                                                const Codebook&,
                                                const PipelineConfig&,
                                                std::span<const u64>,
                                                PipelineReport*,
                                                const CancelToken*);
template Compressed<u8> compress<u8>(std::span<const u8>,
                                     const PipelineConfig&, PipelineReport*,
                                     const CancelToken*);
template Compressed<u16> compress<u16>(std::span<const u16>,
                                       const PipelineConfig&, PipelineReport*,
                                       const CancelToken*);
template std::vector<u8> decompress<u8>(const Compressed<u8>&, int);
template std::vector<u16> decompress<u16>(const Compressed<u16>&, int);
template std::vector<u8> decode_auto<u8>(const EncodedStream&, const Codebook&,
                                         int, const CancelToken*);
template std::vector<u16> decode_auto<u16>(const EncodedStream&,
                                           const Codebook&, int,
                                           const CancelToken*);

}  // namespace parhuff
