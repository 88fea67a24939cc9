#include "core/encode_serial.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/parallel.hpp"

namespace parhuff {

namespace {

/// Two passes over each chunk: its bit count (which places it), then its
/// codewords, written in place through a CellWriter.
template <typename Sym>
EncodedStream encode_chunked(std::span<const Sym> data, const Codebook& cb,
                             u32 chunk_symbols, int threads) {
  assert(chunk_symbols > 0);
  EncodedStream out;
  out.chunk_symbols = chunk_symbols;
  out.n_symbols = data.size();
  const std::size_t chunks =
      (data.size() + chunk_symbols - 1) / chunk_symbols;
  out.chunk_bits.assign(chunks, 0);
  const Codeword* table = cb.cw.data();
  const auto chunk_of = [&](std::size_t c) {
    const std::size_t begin = c * chunk_symbols;
    return data.subspan(begin, std::min<std::size_t>(chunk_symbols,
                                                     data.size() - begin));
  };

  parallel_for(
      chunks,
      [&](std::size_t c) {
        u64 bits = 0;
        for (const Sym sym : chunk_of(c)) {
          const u8 len = table[static_cast<std::size_t>(sym)].len;
          if (len == 0) {
            throw std::runtime_error("symbol absent from codebook");
          }
          bits += len;
        }
        out.chunk_bits[c] = bits;
      },
      threads);

  out.payload.assign(layout_chunks(out), 0);
  parallel_for(
      chunks,
      [&](std::size_t c) {
        CellWriter w(out.payload.data() + out.chunk_word_offset[c]);
        for (const Sym sym : chunk_of(c)) {
          const Codeword cw = table[static_cast<std::size_t>(sym)];
          w.put(cw.bits, cw.len);
        }
        w.finish();
      },
      threads);
  return out;
}

}  // namespace

template <typename Sym>
EncodedStream encode_serial(std::span<const Sym> data, const Codebook& cb,
                            u32 chunk_symbols) {
  return encode_chunked(data, cb, chunk_symbols, /*threads=*/1);
}

template <typename Sym>
EncodedStream encode_openmp(std::span<const Sym> data, const Codebook& cb,
                            u32 chunk_symbols, int threads) {
  return encode_chunked(data, cb, chunk_symbols, threads);
}

template EncodedStream encode_serial<u8>(std::span<const u8>, const Codebook&,
                                         u32);
template EncodedStream encode_serial<u16>(std::span<const u16>,
                                          const Codebook&, u32);
template EncodedStream encode_openmp<u8>(std::span<const u8>, const Codebook&,
                                         u32, int);
template EncodedStream encode_openmp<u16>(std::span<const u16>,
                                          const Codebook&, u32, int);

}  // namespace parhuff
