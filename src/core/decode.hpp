#pragma once
// Treeless canonical decoding using the First/Entry metadata (§IV-B2).
//
// After reading L bits with accumulated value v, the code is complete iff
// first[L] <= v < first[L] + count[L]; the symbol is then
// sorted_syms[entry[L] + (v - first[L])]. No tree is touched — the three
// small arrays are the whole decoder state, which is why the paper caches
// them for decoding throughput. decode_symbols walks them bit by bit: it
// is the reference decoder and the corruption detector. Every decode path
// runs on the table-driven core (core/decode_table.hpp), which falls back
// to decode_symbols for escapes and segment tails.
//
// decode_stream understands the chunked container: the chunk → segment
// walk (plan_chunk) turns every chunk into its main-stream segment plus
// one segment per overflow (breaking) group, and the core decodes them
// with overflow groups landing at their group boundaries.
//
// All entry points take an optional CancelToken polled cooperatively (at
// every chunk entry and every 64 Ki decoded symbols) — a decode whose
// deadline passes or whose request is cancelled abandons mid-stream by
// throwing, exactly like the encode stages (core/cancel.hpp). The no-token
// path costs one predictable branch per batch of symbols.

#include <span>
#include <vector>

#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "core/decode_table.hpp"
#include "core/encoded.hpp"
#include "util/types.hpp"

namespace parhuff {

/// Decode exactly `count` symbols from `br`. Throws std::runtime_error on a
/// corrupt stream (code longer than max_len or stream exhaustion);
/// OperationCancelled / DeadlineExpired from a fired `cancel` poll.
template <typename Sym>
void decode_symbols(BitReader& br, const Codebook& cb, std::size_t count,
                    Sym* out, const CancelToken* cancel = nullptr);

/// Chunk → overflow-entry index: chunk c's entries are
/// s.overflow[index[c], index[c + 1]). Throws std::runtime_error unless the
/// entries are strictly ascending by (chunk, group) with chunk in range.
[[nodiscard]] std::vector<std::size_t> overflow_index(const EncodedStream& s);

/// The chunk → segment walk: appends chunk `c`'s decode work to `plan`,
/// its symbols landing at dst[0, chunk_size(c)). The main stream becomes
/// one segment whose output pieces skip the overflow groups; every
/// overflow entry becomes its own segment in the side stream. The chunk's
/// first segment polls the cancel token. Throws std::runtime_error for an
/// overflow entry that is not one whole group of the chunk
/// (EncodedStream::overflow_entry_fits), std::out_of_range for a chunk
/// whose extent exceeds the payload.
template <typename Sym>
void plan_chunk(const EncodedStream& s, std::span<const std::size_t> index,
                std::size_t c, Sym* dst, SegmentPlan<Sym>& plan);

/// Decode a full chunked stream (any encoder's output).
template <typename Sym>
[[nodiscard]] std::vector<Sym> decode_stream(const EncodedStream& s,
                                             const Codebook& cb,
                                             int threads = 0,
                                             const CancelToken* cancel =
                                                 nullptr);

/// Random access: decode only symbols [first, first + count) — the chunked
/// layout makes this touch just the covering chunks, so reading a slice of
/// a large compressed array costs O(slice + one chunk) work, not a full
/// decompress. Throws std::out_of_range when the range exceeds the stream.
template <typename Sym>
[[nodiscard]] std::vector<Sym> decode_range(const EncodedStream& s,
                                            const Codebook& cb,
                                            std::size_t first,
                                            std::size_t count,
                                            int threads = 0,
                                            const CancelToken* cancel =
                                                nullptr);

extern template void decode_symbols<u8>(BitReader&, const Codebook&,
                                        std::size_t, u8*, const CancelToken*);
extern template void decode_symbols<u16>(BitReader&, const Codebook&,
                                         std::size_t, u16*,
                                         const CancelToken*);
extern template void plan_chunk<u8>(const EncodedStream&,
                                    std::span<const std::size_t>,
                                    std::size_t, u8*, SegmentPlan<u8>&);
extern template void plan_chunk<u16>(const EncodedStream&,
                                     std::span<const std::size_t>,
                                     std::size_t, u16*, SegmentPlan<u16>&);
extern template std::vector<u8> decode_stream<u8>(const EncodedStream&,
                                                  const Codebook&, int,
                                                  const CancelToken*);
extern template std::vector<u16> decode_stream<u16>(const EncodedStream&,
                                                    const Codebook&, int,
                                                    const CancelToken*);
extern template std::vector<u8> decode_range<u8>(const EncodedStream&,
                                                 const Codebook&, std::size_t,
                                                 std::size_t, int,
                                                 const CancelToken*);
extern template std::vector<u16> decode_range<u16>(const EncodedStream&,
                                                   const Codebook&,
                                                   std::size_t, std::size_t,
                                                   int, const CancelToken*);

}  // namespace parhuff
