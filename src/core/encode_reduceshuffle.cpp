#include "core/encode_reduceshuffle.hpp"

#include <stdexcept>

#include "core/merge.hpp"

namespace parhuff {

namespace {

void validate(const ReduceShuffleConfig& cfg) {
  // 2^12 x 16-byte merge cells fill 64 KiB of the 96 KiB shared-memory
  // budget; the paper's sweep tops out at magnitude 12 for the same reason.
  if (cfg.magnitude < 1 || cfg.magnitude > 12) {
    throw std::invalid_argument("magnitude must be in [1, 12]");
  }
  if (cfg.reduce_factor < 1 || cfg.reduce_factor > cfg.magnitude) {
    throw std::invalid_argument("reduce factor must be in [1, magnitude]");
  }
}

EncodedStream empty_stream(std::size_t n_symbols,
                           const ReduceShuffleConfig& cfg) {
  EncodedStream out;
  out.chunk_symbols = u32{1} << cfg.magnitude;
  out.n_symbols = n_symbols;
  out.reduce_factor = cfg.reduce_factor;
  out.chunk_bits.assign((n_symbols + out.chunk_symbols - 1) / out.chunk_symbols,
                        0);
  return out;
}

void record(ReduceShuffleStats* stats, merging::BreakingCount broken,
            const ReduceShuffleConfig& cfg) {
  if (!stats) return;
  stats->breaking_groups += broken.groups;
  stats->breaking_symbols += broken.symbols;
  stats->reduce_iterations = cfg.reduce_factor;
  stats->shuffle_iterations = cfg.magnitude - cfg.reduce_factor;
}

/// One body for both forms: `merge` is merging::simulate or merging::emit.
template <typename Sym, typename Merge>
EncodedStream encode(std::span<const Sym> data, const Codebook& cb,
                     const ReduceShuffleConfig& cfg, simt::MemTally* tally,
                     ReduceShuffleStats* stats, const CancelToken* cancel,
                     Merge&& merge) {
  validate(cfg);
  EncodedStream out = empty_stream(data.size(), cfg);
  if (out.chunk_bits.empty()) return out;
  const u32 r = cfg.reduce_factor;
  record(stats,
         merge(out, data, cb, merging::Kernel::kReduceShuffle,
               std::size_t{1} << (cfg.magnitude - r),
               [r](std::size_t, std::span<const Sym>) { return r; }, tally,
               cancel),
         cfg);
  return out;
}

}  // namespace

template <typename Sym>
EncodedStream encode_reduceshuffle_simt(std::span<const Sym> data,
                                        const Codebook& cb,
                                        const ReduceShuffleConfig& cfg,
                                        simt::MemTally* tally,
                                        ReduceShuffleStats* stats,
                                        const CancelToken* cancel) {
  return encode(data, cb, cfg, tally, stats, cancel, [](auto&&... a) {
    return merging::simulate<kWordBits>(a...);
  });
}

template <typename Sym>
EncodedStream emit_reduceshuffle(std::span<const Sym> data,
                                 const Codebook& cb,
                                 const ReduceShuffleConfig& cfg,
                                 simt::MemTally* tally,
                                 ReduceShuffleStats* stats,
                                 const CancelToken* cancel) {
  return encode(data, cb, cfg, tally, stats, cancel, [](auto&&... a) {
    return merging::emit<kWordBits>(a...);
  });
}

template EncodedStream encode_reduceshuffle_simt<u8>(std::span<const u8>,
                                                     const Codebook&,
                                                     const ReduceShuffleConfig&,
                                                     simt::MemTally*,
                                                     ReduceShuffleStats*,
                                                     const CancelToken*);
template EncodedStream encode_reduceshuffle_simt<u16>(
    std::span<const u16>, const Codebook&, const ReduceShuffleConfig&,
    simt::MemTally*, ReduceShuffleStats*, const CancelToken*);
template EncodedStream emit_reduceshuffle<u8>(std::span<const u8>,
                                              const Codebook&,
                                              const ReduceShuffleConfig&,
                                              simt::MemTally*,
                                              ReduceShuffleStats*,
                                              const CancelToken*);
template EncodedStream emit_reduceshuffle<u16>(std::span<const u16>,
                                               const Codebook&,
                                               const ReduceShuffleConfig&,
                                               simt::MemTally*,
                                               ReduceShuffleStats*,
                                               const CancelToken*);

}  // namespace parhuff
