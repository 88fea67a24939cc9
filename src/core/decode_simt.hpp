#pragma once
// GPU-style chunk-parallel decoder.
//
// The paper's coarse-grained chunking exists partly "because it will
// facilitate the reverse process, decoding" (§III-A): each chunk's
// bitstream is self-contained, so decoding is embarrassingly parallel at
// chunk granularity. This kernel maps one thread to one chunk (as cuSZ
// decodes), stages the treeless decoder state — First/Entry/count plus the
// reverse codebook — in shared memory per block, and walks each chunk's
// bits sequentially. The tally records the access profile (strided payload
// reads, coalesced-but-thread-owned output writes), which is what bounds
// decode throughput on real hardware. On the host, a block's chunks run
// through the shared decode core (core/decode_table.hpp); the tally still
// prices the bit-serial walk a GPU thread performs.

#include <span>
#include <vector>

#include "core/cancel.hpp"
#include "core/canonical.hpp"
#include "core/encoded.hpp"
#include "simt/mem_model.hpp"
#include "util/types.hpp"

namespace parhuff {

/// `cancel` is polled cooperatively at every chunk entry (one poll per
/// simulated thread) and every 64 Ki symbols inside the bit walk; a fired
/// token aborts the launch by throwing OperationCancelled/DeadlineExpired.
template <typename Sym>
[[nodiscard]] std::vector<Sym> decode_simt(const EncodedStream& s,
                                           const Codebook& cb,
                                           simt::MemTally* tally = nullptr,
                                           const CancelToken* cancel =
                                               nullptr);

extern template std::vector<u8> decode_simt<u8>(const EncodedStream&,
                                                const Codebook&,
                                                simt::MemTally*,
                                                const CancelToken*);
extern template std::vector<u16> decode_simt<u16>(const EncodedStream&,
                                                  const Codebook&,
                                                  simt::MemTally*,
                                                  const CancelToken*);

}  // namespace parhuff
