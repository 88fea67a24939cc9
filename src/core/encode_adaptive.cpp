#include "core/encode_adaptive.hpp"

#include <stdexcept>

#include "core/merge.hpp"

namespace parhuff {

namespace {

/// The chunk's r from its lookup-phase bit total: the largest r in
/// [min_reduce, max_reduce] whose expected merged cell stays under `width`
/// bits.
u32 chunk_reduce(u64 chunk_code_bits, std::size_t nc, unsigned width,
                 const AdaptiveConfig& cfg) {
  const double avg = nc > 0 ? static_cast<double>(chunk_code_bits) /
                                  static_cast<double>(nc)
                            : 1.0;
  // A 25% headroom below the cell width absorbs within-chunk variance:
  // a chunk whose average admits r exactly would break on every group
  // that runs slightly dense (mixed calm/burst chunks).
  const double budget = static_cast<double>(width) * 0.75;
  u32 r = cfg.min_reduce;
  while (r < cfg.max_reduce &&
         avg * static_cast<double>(u64{1} << (r + 1)) < budget) {
    ++r;
  }
  return r;
}

void validate(const AdaptiveConfig& cfg) {
  if (cfg.magnitude < 1 || cfg.magnitude > 12) {
    throw std::invalid_argument("magnitude must be in [1, 12]");
  }
  if (cfg.min_reduce < 1 || cfg.min_reduce > cfg.max_reduce ||
      cfg.max_reduce >= cfg.magnitude) {
    throw std::invalid_argument("need 1 <= min_reduce <= max_reduce < magnitude");
  }
}

EncodedStream empty_stream(std::size_t n_symbols, const AdaptiveConfig& cfg) {
  EncodedStream out;
  out.chunk_symbols = u32{1} << cfg.magnitude;
  out.n_symbols = n_symbols;
  out.reduce_factor = cfg.min_reduce;  // fallback for chunks beyond the array
  const std::size_t chunks =
      (n_symbols + out.chunk_symbols - 1) / out.chunk_symbols;
  out.chunk_bits.assign(chunks, 0);
  out.chunk_reduce.assign(chunks, static_cast<u8>(cfg.min_reduce));
  return out;
}

void record(AdaptiveStats* stats, merging::BreakingCount broken,
            const EncodedStream& out, std::span<const u64> chunk_code_bits) {
  if (!stats) return;
  stats->breaking_groups += broken.groups;
  stats->breaking_symbols += broken.symbols;
  for (std::size_t c = 0; c < out.chunks(); ++c) {
    stats->r_histogram[out.chunk_reduce[c]] += 1;
    stats->total_code_bits += chunk_code_bits[c];
  }
}

/// One body for both forms: `merge` is merging::simulate or merging::emit.
template <unsigned Width, typename Sym, typename Merge>
EncodedStream encode(std::span<const Sym> data, const Codebook& cb,
                     const AdaptiveConfig& cfg, simt::MemTally* tally,
                     AdaptiveStats* stats, const CancelToken* cancel,
                     Merge&& merge) {
  static_assert(Width == 32 || Width == 64,
                "cells are stored in 32-bit payload words");
  validate(cfg);
  EncodedStream out = empty_stream(data.size(), cfg);
  if (out.chunk_bits.empty()) return out;
  // Per-chunk lookup-phase bit totals (each block writes its own slot).
  std::vector<u64> chunk_lookup_bits(out.chunks(), 0);
  // The per-chunk rule: the chunk's code lengths summed (a block-local
  // reduction over the lookup phase on the GPU) pick its r.
  const auto reduce_of = [&](std::size_t c, std::span<const Sym> chunk) {
    u64 bits = 0;
    for (const Sym sym : chunk) {
      const u8 len = cb.cw[static_cast<std::size_t>(sym)].len;
      if (len == 0) throw std::runtime_error("symbol absent");
      bits += len;
    }
    chunk_lookup_bits[c] = bits;
    const u32 r = chunk_reduce(bits, chunk.size(), Width, cfg);
    out.chunk_reduce[c] = static_cast<u8>(r);
    return r;
  };
  const merging::BreakingCount broken =
      merge(out, data, cb, merging::Kernel::kAdaptive,
            out.chunk_symbols >> cfg.min_reduce, reduce_of, tally, cancel);
  record(stats, broken, out, chunk_lookup_bits);
  return out;
}

}  // namespace

template <typename Sym, unsigned Width>
EncodedStream encode_adaptive_simt(std::span<const Sym> data,
                                   const Codebook& cb,
                                   const AdaptiveConfig& cfg,
                                   simt::MemTally* tally, AdaptiveStats* stats,
                                   const CancelToken* cancel) {
  return encode<Width>(data, cb, cfg, tally, stats, cancel,
                       [](auto&&... a) {
                         return merging::simulate<Width>(a...);
                       });
}

template <typename Sym, unsigned Width>
EncodedStream emit_adaptive(std::span<const Sym> data, const Codebook& cb,
                            const AdaptiveConfig& cfg, simt::MemTally* tally,
                            AdaptiveStats* stats, const CancelToken* cancel) {
  return encode<Width>(data, cb, cfg, tally, stats, cancel,
                       [](auto&&... a) { return merging::emit<Width>(a...); });
}

template EncodedStream encode_adaptive_simt<u8, 32>(std::span<const u8>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*,
    const CancelToken*);
template EncodedStream encode_adaptive_simt<u16, 32>(std::span<const u16>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*,
    const CancelToken*);
template EncodedStream encode_adaptive_simt<u8, 64>(std::span<const u8>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*,
    const CancelToken*);
template EncodedStream encode_adaptive_simt<u16, 64>(std::span<const u16>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*,
    const CancelToken*);
template EncodedStream emit_adaptive<u8, 32>(std::span<const u8>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*,
    const CancelToken*);
template EncodedStream emit_adaptive<u16, 32>(std::span<const u16>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*,
    const CancelToken*);
template EncodedStream emit_adaptive<u8, 64>(std::span<const u8>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*,
    const CancelToken*);
template EncodedStream emit_adaptive<u16, 64>(std::span<const u16>,
    const Codebook&, const AdaptiveConfig&, simt::MemTally*, AdaptiveStats*,
    const CancelToken*);

}  // namespace parhuff
