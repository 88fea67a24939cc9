#pragma once
// Baseline encoders that walk chunks with a CellWriter:
//  * encode_serial — the SZ-style single-thread encoder.
//  * encode_openmp — the paper's multithreaded CPU encoder (Table VI):
//    chunks are distributed over OpenMP threads, each thread encodes its
//    chunks independently, and the chunk layout makes the outputs
//    order-independent.
//
// Both produce bit-identical streams (and identical to the coarse-grained
// and prefix-sum GPU baselines): per chunk, codewords concatenated MSB-first
// in symbol order.

#include <span>

#include "core/canonical.hpp"
#include "core/encoded.hpp"
#include "util/types.hpp"

namespace parhuff {

template <typename Sym>
[[nodiscard]] EncodedStream encode_serial(std::span<const Sym> data,
                                          const Codebook& cb,
                                          u32 chunk_symbols = 1024);

template <typename Sym>
[[nodiscard]] EncodedStream encode_openmp(std::span<const Sym> data,
                                          const Codebook& cb,
                                          u32 chunk_symbols = 1024,
                                          int threads = 0);

extern template EncodedStream encode_serial<u8>(std::span<const u8>,
                                                const Codebook&, u32);
extern template EncodedStream encode_serial<u16>(std::span<const u16>,
                                                 const Codebook&, u32);
extern template EncodedStream encode_openmp<u8>(std::span<const u8>,
                                                const Codebook&, u32, int);
extern template EncodedStream encode_openmp<u16>(std::span<const u16>,
                                                 const Codebook&, u32, int);

}  // namespace parhuff
