// One equivalence property for every encoder, decoder and serving path.
//
// Rows are input families: proptest byte buffers (u8), the three drift
// schedules, the float-field families as u16 symbols, random symbol
// streams, the adaptive stream kinds, and pinned books (a deep book with
// codes past 32 bits, a single-symbol alphabet, and 1024 equiprobable
// symbols, where every reduce group of four or more breaks). Each case
// draws a chunk count 4 rarely divides, chunks down to 8 symbols (not
// always a power of two), and a tail that is short or empty; case 0 of
// each row is the empty input.
//
// Columns:
//   * encoders: encode_serial is the reference. encode_openmp (1, 2 and 4
//     threads), encode_coarse_simt and encode_prefixsum_simt must write
//     the same stream, field for field. encode_reduceshuffle_simt and
//     emit_reduceshuffle run at every r in [1, M] for M in {1, 4, 10, 12};
//     encode_adaptive_simt and emit_adaptive at cell widths 32 and 64
//     under four configs. Kernel and emitter must agree on every stream
//     field, the MemTally and the stats, and their group layout must match
//     an independent oracle: a group breaks iff its codeword bits exceed
//     the cell. Unbroken merge streams equal the serial payload.
//   * decoders, on the serial stream and on every merge stream: a
//     brute-force codeword matcher, the bit-serial decoder, the table
//     core, decode_stream (1 and 0 threads), decode_simt, decode_selfsync,
//     decode_gaparray after annotate_gaps, three decode_range slices, and
//     the container (serialize, deserialize, serialize again: same bytes,
//     same stream, same symbols). Baseline streams equal the serial one,
//     so they decode identically by construction.
//   * paths (PathsU8/PathsU16): compress()/decompress(), the service, RPC
//     over loopback and a unix socket, a 3-shard router, and the client's
//     streamed verbs. Every non-streamed container is byte-identical to
//     serialize(compress()).
//
// Each seeded case of a row is a test of its own,
// `<Group>/EquivalenceCase.AllCellsAgree/<family>_<case>`. A failing cell
// prints one replayable line (family, case, seed, n, chunk, then the
// encoder/decoder/path cell) after shrinking the input by halving n while
// the failure reproduces.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "core/decode.hpp"
#include "core/decode_gaparray.hpp"
#include "core/decode_selfsync.hpp"
#include "core/decode_simt.hpp"
#include "core/decode_table.hpp"
#include "core/encode_adaptive.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_serial.hpp"
#include "core/encode_simt.hpp"
#include "core/format.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "core/tree.hpp"
#include "data/synth_hist.hpp"
#include "data/textgen.hpp"
#include "proptest.hpp"
#include "router/harness.hpp"
#include "router/router.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "rpc/transport_inmem.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

namespace pt = proptest;

// --- Cells. ------------------------------------------------------------------

/// The first failing cell of a case: its encoder, decoder and path columns
/// and what went wrong.
class Cells {
 public:
  [[nodiscard]] bool ok() const { return !first_; }
  [[nodiscard]] const std::optional<std::string>& failure() const {
    return first_;
  }

  /// Records `what` against the cell unless it is empty or an earlier cell
  /// already failed.
  void check(const std::string& encoder, const std::string& decoder,
             const std::string& path, const std::string& what) {
    if (what.empty() || first_) return;
    first_ = "encoder=" + encoder + " decoder=" + decoder + " path=" + path +
             ": " + what;
  }

 private:
  std::optional<std::string> first_;
};

/// Runs `f` (returning a failure text, empty when fine); an exception is a
/// failure too.
template <typename F>
std::string attempt(F&& f) {
  try {
    return f();
  } catch (const std::exception& e) {
    return std::string("threw: ") + e.what();
  }
}

template <typename Sym>
std::string mismatch(const std::vector<Sym>& got, std::span<const Sym> want) {
  if (got.size() != want.size()) {
    return "decoded " + std::to_string(got.size()) + " symbols, want " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return "symbol " + std::to_string(i) + " is " + std::to_string(got[i]) +
             ", want " + std::to_string(want[i]);
    }
  }
  return {};
}

/// Names every EncodedStream field on which `a` and `b` differ.
std::string stream_diff(const EncodedStream& a, const EncodedStream& b) {
  std::ostringstream d;
  if (a.chunk_symbols != b.chunk_symbols) d << " chunk_symbols";
  if (a.n_symbols != b.n_symbols) d << " n_symbols";
  if (a.payload != b.payload) d << " payload";
  if (a.chunk_bits != b.chunk_bits) d << " chunk_bits";
  if (a.chunk_word_offset != b.chunk_word_offset) d << " chunk_word_offset";
  if (a.reduce_factor != b.reduce_factor) d << " reduce_factor";
  if (a.chunk_reduce != b.chunk_reduce) d << " chunk_reduce";
  if (a.overflow_payload != b.overflow_payload) d << " overflow_payload";
  if (a.overflow_bits != b.overflow_bits) d << " overflow_bits";
  bool same_entries = a.overflow.size() == b.overflow.size();
  for (std::size_t i = 0; same_entries && i < a.overflow.size(); ++i) {
    const OverflowEntry& x = a.overflow[i];
    const OverflowEntry& y = b.overflow[i];
    same_entries = x.chunk == y.chunk && x.group == y.group &&
                   x.bit_offset == y.bit_offset && x.bit_len == y.bit_len &&
                   x.n_symbols == y.n_symbols;
  }
  if (!same_entries) d << " overflow";
  if (a.gap_subseq_bits != b.gap_subseq_bits || a.gaps != b.gaps ||
      a.gap_counts != b.gap_counts) {
    d << " gaps";
  }
  if (a.rle_orig_symbols != b.rle_orig_symbols) d << " rle";
  const std::string s = d.str();
  return s.empty() ? s : "streams differ in:" + s;
}

// --- Reference decoders. -----------------------------------------------------

/// Decodes every chunk group by group, reading a broken group from the
/// overflow side stream; `decode_group(reader, count, dst)` decodes one.
/// A stream without grouping is one group per chunk.
template <typename Sym, typename DecodeGroup>
std::vector<Sym> splice_decode(const EncodedStream& s,
                               DecodeGroup&& decode_group) {
  std::vector<Sym> out(s.n_symbols);
  std::size_t next = 0;  // overflow entries ascend by (chunk, group)
  for (std::size_t c = 0; c < s.chunks(); ++c) {
    BitReader main = s.chunk_reader(c);
    Sym* dst = out.data() + c * s.chunk_symbols;
    const std::size_t n = s.chunk_size(c);
    const std::size_t g = s.group_symbols(c) ? s.group_symbols(c) : n;
    for (std::size_t at = 0, k = 0; at < n; at += g, ++k) {
      const std::size_t count = std::min(g, n - at);
      if (next < s.overflow.size() && s.overflow[next].chunk == c &&
          s.overflow[next].group == k) {
        BitReader side(s.overflow_payload, s.overflow_bits);
        side.skip(s.overflow[next++].bit_offset);
        decode_group(side, count, dst + at);
      } else {
        decode_group(main, count, dst + at);
      }
    }
    if (main.remaining() != 0) {
      throw std::runtime_error("chunk " + std::to_string(c) + " has " +
                               std::to_string(main.remaining()) +
                               " unread bits");
    }
  }
  if (next != s.overflow.size()) {
    throw std::runtime_error("overflow entry " + std::to_string(next) +
                             " names no group");
  }
  return out;
}

/// Brute-force codeword matching against the raw (code, length) pairs,
/// independent of the canonical First/Entry tables.
template <typename Sym>
std::vector<Sym> reference_decode(const EncodedStream& s, const Codebook& cb) {
  std::vector<std::unordered_map<u64, u32>> by_len(cb.max_len + 1);
  for (u32 sym = 0; sym < cb.nbins; ++sym) {
    if (cb.cw[sym].len) by_len[cb.cw[sym].len][cb.cw[sym].bits] = sym;
  }
  return splice_decode<Sym>(s, [&](BitReader& br, std::size_t count,
                                   Sym* dst) {
    for (std::size_t i = 0; i < count; ++i) {
      u64 v = 0;
      for (unsigned l = 1;; ++l) {
        if (l > cb.max_len) throw std::runtime_error("no codeword matched");
        v = (v << 1) | br.bit();
        const auto it = by_len[l].find(v);
        if (it != by_len[l].end()) {
          dst[i] = static_cast<Sym>(it->second);
          break;
        }
      }
    }
  });
}

/// The bit-serial canonical decoder, spliced group by group.
template <typename Sym>
std::vector<Sym> bitserial_decode(const EncodedStream& s, const Codebook& cb) {
  return splice_decode<Sym>(s, [&](BitReader& br, std::size_t count,
                                   Sym* dst) {
    decode_symbols(br, cb, count, dst);
  });
}

/// The interleaved table core over every chunk.
template <typename Sym>
std::vector<Sym> table_decode(const EncodedStream& s, const Codebook& cb) {
  const DecodeTable<Sym> table(cb);
  std::vector<Sym> out(s.n_symbols);
  const std::vector<std::size_t> index = overflow_index(s);
  SegmentPlan<Sym> plan;
  for (std::size_t c = 0; c < s.chunks(); ++c) {
    plan_chunk(s, index, c, out.data() + c * s.chunk_symbols, plan);
  }
  decode_segments(table, plan);
  return out;
}

std::size_t overflow_chunks(const EncodedStream& s) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < s.overflow.size(); ++i) {
    if (i == 0 || s.overflow[i].chunk != s.overflow[i - 1].chunk) ++n;
  }
  return n;
}

/// Independent layout oracle for a merge stream at cell width `width`: a
/// group breaks iff its codeword bits exceed the cell; chunk_bits sums the
/// unbroken groups, and each overflow entry names one broken group with
/// its bit length. Returns what differs.
template <typename Sym>
std::string layout_diff(const EncodedStream& s, std::span<const Sym> in,
                        const Codebook& cb, unsigned width,
                        u64 breaking_groups, u64 breaking_symbols) {
  std::vector<OverflowEntry> want;
  u64 symbols = 0;
  for (std::size_t c = 0; c < s.chunks(); ++c) {
    const std::size_t n = s.chunk_size(c);
    const std::size_t g = s.group_symbols(c);
    u64 bits = 0;
    for (std::size_t at = 0; at < n; at += g) {
      u64 len = 0;
      const std::size_t count = std::min(g, n - at);
      for (std::size_t i = 0; i < count; ++i) {
        len += cb.cw[in[c * s.chunk_symbols + at + i]].len;
      }
      if (len <= width) {
        bits += len;
        continue;
      }
      OverflowEntry e;
      e.chunk = static_cast<u32>(c);
      e.group = static_cast<u32>(at / g);
      e.bit_len = static_cast<u32>(len);
      e.n_symbols = static_cast<u32>(count);
      want.push_back(e);
      symbols += count;
    }
    if (bits != s.chunk_bits[c]) {
      return "chunk " + std::to_string(c) + " holds " +
             std::to_string(s.chunk_bits[c]) + " main bits, oracle " +
             std::to_string(bits);
    }
  }
  if (want.size() != s.overflow.size()) {
    return std::to_string(s.overflow.size()) + " broken groups, oracle " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    const OverflowEntry& a = s.overflow[i];
    const OverflowEntry& b = want[i];
    if (a.chunk != b.chunk || a.group != b.group || a.bit_len != b.bit_len ||
        a.n_symbols != b.n_symbols) {
      return "broken group " + std::to_string(i) + " is (chunk " +
             std::to_string(a.chunk) + ", group " + std::to_string(a.group) +
             "), oracle (chunk " + std::to_string(b.chunk) + ", group " +
             std::to_string(b.group) + ")";
    }
  }
  if (breaking_groups != want.size() || breaking_symbols != symbols) {
    return "stats count " + std::to_string(breaking_groups) +
           " broken groups / " + std::to_string(breaking_symbols) +
           " symbols, oracle " + std::to_string(want.size()) + " / " +
           std::to_string(symbols);
  }
  return {};
}

/// What the merge columns of one case exercised: a case that never breaks
/// a group checks no overflow splice.
struct Coverage {
  std::size_t overflow_entries = 0;
  std::size_t wide_cell_overflow_entries = 0;
};

// --- Decoder columns. --------------------------------------------------------

template <typename Sym>
void check_decoders(const EncodedStream& s, const Codebook& cb,
                    std::span<const Sym> in, const std::string& enc,
                    Xoshiro256& rng, Cells& cells) {
  const auto cell = [&](const std::string& dec, auto&& decode) {
    cells.check(enc, dec, "-", attempt([&] { return decode(); }));
  };
  const auto decodes = [&](const std::string& dec, auto&& decode) {
    cell(dec, [&] { return mismatch<Sym>(decode(), in); });
  };
  // The intra-chunk decoders do their own work only on chunks without
  // overflow; the others fall back to the chunk walk.
  const bool unbroken = s.overflow.empty() && s.total_payload_bits() > 0;
  decodes("reference", [&] { return reference_decode<Sym>(s, cb); });
  decodes("bitserial", [&] { return bitserial_decode<Sym>(s, cb); });
  decodes("table", [&] { return table_decode<Sym>(s, cb); });
  decodes("stream(threads=1)", [&] { return decode_stream<Sym>(s, cb, 1); });
  decodes("stream(threads=0)", [&] { return decode_stream<Sym>(s, cb, 0); });
  cell("simt", [&] {
    simt::MemTally t;
    std::string d = mismatch<Sym>(decode_simt<Sym>(s, cb, &t), in);
    if (d.empty() && !in.empty() &&
        (t.global_read_sectors == 0 || t.shared_bytes == 0)) {
      d = "empty tally";
    }
    return d;
  });
  cell("selfsync", [&] {
    simt::MemTally t;
    SelfSyncStats st;
    std::string d = mismatch<Sym>(decode_selfsync<Sym>(s, cb, {}, &t, &st),
                                  in);
    if (d.empty() && st.fallback_chunks != overflow_chunks(s)) {
      d = std::to_string(st.fallback_chunks) + " fallback chunks, want " +
          std::to_string(overflow_chunks(s));
    }
    if (d.empty() && unbroken && (st.subsequences == 0 || t.scalar_ops == 0)) {
      d = "no subsequences or empty tally";
    }
    return d;
  });
  EncodedStream gapped = s;
  cell("gaparray", [&] {
    annotate_gaps(gapped, cb, std::max<u32>(64, 2 * cb.max_len));
    simt::MemTally t;
    GapArrayStats st;
    std::string d =
        mismatch<Sym>(decode_gaparray<Sym>(gapped, cb, &t, &st), in);
    if (d.empty() && st.fallback_chunks != overflow_chunks(s)) {
      d = std::to_string(st.fallback_chunks) + " fallback chunks, want " +
          std::to_string(overflow_chunks(s));
    }
    if (d.empty() && unbroken &&
        (st.subsequences == 0 || t.global_read_bytes == 0 ||
         t.scalar_ops == 0)) {
      d = "no subsequences or empty tally";
    }
    return d;
  });
  for (int k = 0; k < 3; ++k) {
    const std::size_t first = rng.below(in.size() + 1);
    const std::size_t count = rng.below(in.size() - first + 1);
    cell("range(" + std::to_string(first) + "," + std::to_string(count) + ")",
         [&] {
           return mismatch<Sym>(decode_range<Sym>(s, cb, first, count, 1),
                                in.subspan(first, count));
         });
  }
  // The container round trip, gap-free and annotated (a GAP1 field).
  const std::array<const EncodedStream*, 2> containers{&s, &gapped};
  for (const EncodedStream* x : containers) {
    cell(x->has_gaps() ? "container(GAP1)" : "container", [&] {
      const std::vector<u8> bytes = serialize(Compressed<Sym>{cb, *x});
      const Compressed<Sym> back = deserialize<Sym>(bytes);
      if (serialize(back) != bytes) {
        return std::string("re-serialized bytes differ");
      }
      std::string d = stream_diff(back.stream, *x);
      if (d.empty()) d = mismatch<Sym>(decode_stream<Sym>(back.stream,
                                                          back.codebook, 1),
                                       in);
      return d;
    });
  }
}

// --- Encoder columns. --------------------------------------------------------

/// One fixed-r merge config: kernel vs emitter, the layout oracle, the
/// serial payload when unbroken, then every decoder on the stream.
template <typename Sym>
void check_reduceshuffle(std::span<const Sym> in, const Codebook& cb, u32 M,
                         u32 r, const EncodedStream& serial_m,
                         Xoshiro256& rng, Cells& cells, Coverage& cov) {
  const std::string enc =
      "reduceshuffle(M=" + std::to_string(M) + ",r=" + std::to_string(r) + ")";
  const ReduceShuffleConfig cfg{M, r};
  simt::MemTally kt, et;
  ReduceShuffleStats ks, es;
  EncodedStream e;
  cells.check(enc, "-", "-", attempt([&] {
    const EncodedStream k =
        encode_reduceshuffle_simt<Sym>(in, cb, cfg, &kt, &ks);
    e = emit_reduceshuffle<Sym>(in, cb, cfg, &et, &es);
    std::string d = stream_diff(k, e);
    if (d.empty() && !(kt == et)) d = "kernel and emitter tallies differ";
    if (d.empty() && !(ks == es)) d = "kernel and emitter stats differ";
    if (d.empty() && e.reduce_factor != r) d = "reduce_factor not r";
    if (d.empty()) {
      d = layout_diff<Sym>(e, in, cb, 32, es.breaking_groups,
                           es.breaking_symbols);
    }
    if (d.empty() && e.overflow.empty() &&
        (e.payload != serial_m.payload ||
         e.chunk_bits != serial_m.chunk_bits)) {
      d = "unbroken stream differs from serial";
    }
    return d;
  }));
  if (!cells.ok()) return;
  cov.overflow_entries += e.overflow.size();
  check_decoders<Sym>(e, cb, in, enc, rng, cells);
}

/// Width-32 and width-64 adaptive streams under one config.
template <typename Sym>
void check_adaptive(std::span<const Sym> in, const Codebook& cb,
                    const AdaptiveConfig& cfg, Xoshiro256& rng, Cells& cells,
                    Coverage& cov) {
  u64 exact_bits = 0;
  for (const Sym s : in) exact_bits += cb.cw[s].len;
  const EncodedStream serial_m =
      encode_serial<Sym>(in, cb, u32{1} << cfg.magnitude);
  std::array<AdaptiveStats, 2> stats;
  const auto one = [&]<unsigned Width>(AdaptiveStats& es) {
    const std::string enc =
        "adaptive(W=" + std::to_string(Width) + ",M=" +
        std::to_string(cfg.magnitude) + ",r=[" +
        std::to_string(cfg.min_reduce) + "," +
        std::to_string(cfg.max_reduce) + "])";
    simt::MemTally kt, et;
    AdaptiveStats ks;
    EncodedStream e;
    cells.check(enc, "-", "-", attempt([&] {
      const EncodedStream k =
          encode_adaptive_simt<Sym, Width>(in, cb, cfg, &kt, &ks);
      e = emit_adaptive<Sym, Width>(in, cb, cfg, &et, &es);
      std::string d = stream_diff(k, e);
      if (d.empty() && !(kt == et)) d = "kernel and emitter tallies differ";
      if (d.empty() && !(ks == es)) d = "kernel and emitter stats differ";
      if (d.empty() && es.total_code_bits != exact_bits) {
        d = "total_code_bits " + std::to_string(es.total_code_bits) +
            ", exact " + std::to_string(exact_bits);
      }
      if (d.empty()) {
        d = layout_diff<Sym>(e, in, cb, Width, es.breaking_groups,
                             es.breaking_symbols);
      }
      if (d.empty() && e.overflow.empty() &&
          (e.payload != serial_m.payload ||
           e.chunk_bits != serial_m.chunk_bits)) {
        d = "unbroken stream differs from serial";
      }
      return d;
    }));
    if (!cells.ok()) return;
    cov.overflow_entries += e.overflow.size();
    if (Width == 64) cov.wide_cell_overflow_entries += e.overflow.size();
    check_decoders<Sym>(e, cb, in, enc, rng, cells);
  };
  one.template operator()<32>(stats[0]);
  one.template operator()<64>(stats[1]);
  // At one pinned r, wider cells can only break less.
  if (cells.ok() && cfg.min_reduce == cfg.max_reduce &&
      stats[1].breaking_symbols > stats[0].breaking_symbols) {
    cells.check("adaptive(W=64 vs W=32)", "-", "-",
                "64-bit cells broke more symbols than 32-bit at equal r");
  }
}

constexpr u32 kMergeMagnitudes[] = {1, 4, 10, 12};
constexpr AdaptiveConfig kAdaptiveConfigs[] = {
    AdaptiveConfig{}, AdaptiveConfig{4, 1, 3}, AdaptiveConfig{12, 2, 6},
    AdaptiveConfig{10, 3, 3}};

/// Every encoder and decoder column on one input; the first failing cell,
/// or nullopt.
template <typename Sym>
std::optional<std::string> check_case(std::span<const Sym> in,
                                      const Codebook& cb, u32 chunk, u64 seed,
                                      Coverage& cov) {
  Cells cells;
  cells.check("-", "-", "-", cb.validate());
  Xoshiro256 rng(pt::case_seed(seed, 0x51ce));
  const EncodedStream ser = encode_serial<Sym>(in, cb, chunk);
  check_decoders<Sym>(ser, cb, in, "serial", rng, cells);

  const auto same_as_serial = [&](const std::string& enc, auto&& encode) {
    cells.check(enc, "-", "-",
                attempt([&] { return stream_diff(encode(), ser); }));
  };
  for (const int threads : {1, 2, 4}) {
    same_as_serial("openmp(threads=" + std::to_string(threads) + ")", [&] {
      return encode_openmp<Sym>(in, cb, chunk, threads);
    });
  }
  simt::MemTally coarse, prefix;
  same_as_serial("coarse_simt", [&] {
    return encode_coarse_simt<Sym>(in, cb, chunk, &coarse);
  });
  same_as_serial("prefixsum_simt", [&] {
    return encode_prefixsum_simt<Sym>(in, cb, chunk, &prefix);
  });
  if (cells.ok() && !in.empty() &&
      (coarse.global_read_sectors == 0 || prefix.global_atomics == 0)) {
    cells.check("coarse_simt/prefixsum_simt", "-", "-", "empty tally");
  }

  for (const u32 M : kMergeMagnitudes) {
    const EncodedStream serial_m = encode_serial<Sym>(in, cb, u32{1} << M);
    for (u32 r = 1; r <= M && cells.ok(); ++r) {
      check_reduceshuffle<Sym>(in, cb, M, r, serial_m, rng, cells, cov);
    }
  }
  for (const AdaptiveConfig& cfg : kAdaptiveConfigs) {
    if (cells.ok()) check_adaptive<Sym>(in, cb, cfg, rng, cells, cov);
  }
  return cells.failure();
}

// --- Rows. -------------------------------------------------------------------

/// Chunk size and length of one case: 1..9 chunks of 8..1024 symbols (a
/// power of two in even cases, any size in odd ones), the tail either full
/// (an empty tail) or short. Case 0 is the empty input.
struct Draw {
  u32 chunk = 0;
  std::size_t n = 0;
};

Draw draw_case(u64 seed, u64 index) {
  Xoshiro256 rng(seed);
  Draw d;
  const u32 magnitude = 3 + static_cast<u32>(rng.below(8));
  d.chunk = u32{1} << magnitude;
  if (index % 2 == 1) d.chunk -= static_cast<u32>(rng.below(d.chunk / 2));
  const std::size_t chunks = 1 + index % 9;
  const std::size_t tail = rng.below(2) == 0 ? d.chunk : 1 + rng.below(d.chunk);
  d.n = index == 0 ? 0 : (chunks - 1) * d.chunk + tail;
  return d;
}

template <typename Sym>
struct Family {
  std::string name;
  /// Up to `n` symbols from `seed`; a prefix of the same seed's longer
  /// inputs, so halving n shrinks a failing case.
  std::function<std::vector<Sym>(u64 seed, std::size_t n)> make;
  /// The book a case encodes with; unset = built from the input.
  std::function<Codebook()> book;
  /// Every case of 8 or more symbols breaks a 64-bit cell: eight codes of
  /// more than 8 bits at the pinned r = 3 of AdaptiveConfig{10, 3, 3}.
  bool breaks_wide_cells = false;
};

template <typename Sym>
Codebook book_from_input(std::span<const Sym> in) {
  if (in.empty()) return canonize_from_lengths(std::vector<u8>{1, 1, 0});
  const std::size_t nbins =
      static_cast<std::size_t>(*std::max_element(in.begin(), in.end())) + 1;
  return build_codebook_serial(histogram_serial<Sym>(in, nbins));
}

/// A merge group holds up to 2^12 symbols of at least one bit each, so a
/// case of 33 or more symbols breaks a 32-bit cell at r = M = 10 and 12. A
/// case that breaks no group checks no overflow splice; returns the
/// coverage a case of `n` symbols missed.
template <typename Sym>
std::optional<std::string> coverage_gap(const Family<Sym>& f, std::size_t n,
                                        const Coverage& cov) {
  if (n >= 33 && cov.overflow_entries == 0) {
    return "encoder=reduceshuffle/adaptive decoder=- path=-: no group broke";
  }
  if (f.breaks_wide_cells && n >= 8 && cov.wide_cell_overflow_entries == 0) {
    return "encoder=adaptive(W=64) decoder=- path=-: no 64-bit cell broke";
  }
  return std::nullopt;
}

/// Runs case `idx` of a row. On failure, halves n while the failure
/// reproduces and returns the replay line.
template <typename Sym>
std::optional<std::string> run_case(const Family<Sym>& f, u64 tag, u64 idx) {
  const u64 seed = pt::case_seed(tag, idx);
  const Draw draw = draw_case(seed, idx);
  std::size_t n = draw.n;
  std::size_t used = 0;
  const auto run = [&](std::size_t len) {
    const std::vector<Sym> in = f.make(seed, len);
    used = in.size();
    const Codebook cb = f.book ? f.book() : book_from_input<Sym>(in);
    Coverage cov;
    std::optional<std::string> failure =
        check_case<Sym>(in, cb, draw.chunk, seed, cov);
    if (!failure) failure = coverage_gap<Sym>(f, in.size(), cov);
    return failure;
  };
  std::optional<std::string> failure = run(n);
  if (!failure) return std::nullopt;
  std::size_t failing_n = used;
  while (n >= 2) {
    const std::optional<std::string> again = run(n / 2);
    if (!again) break;
    n /= 2;
    failing_n = used;
    failure = again;
  }
  std::ostringstream out;
  out << "equivalence failed: family=" << f.name << " case=" << idx
      << " seed=0x" << std::hex << seed << std::dec << " n=" << failing_n
      << " chunk=" << draw.chunk << " " << *failure;
  return out.str();
}

/// One row with its element type erased, so that each of its cases is a
/// test of its own.
struct Row {
  std::string name;
  std::size_t cases = 0;
  std::function<std::optional<std::string>(u64 idx)> run;
};

/// Rows of `families`; row i draws its case seeds from `tag + i`.
template <typename Sym>
std::vector<Row> rows_of(std::vector<Family<Sym>> families, u64 tag,
                         std::size_t cases) {
  std::vector<Row> rows;
  for (std::size_t i = 0; i < families.size(); ++i) {
    rows.push_back({families[i].name, cases,
                    [f = families[i], t = tag + i](u64 idx) {
                      return run_case<Sym>(f, t, idx);
                    }});
  }
  return rows;
}

struct RowCase {
  const Row* row = nullptr;
  u64 index = 0;
};

std::ostream& operator<<(std::ostream& os, const RowCase& c) {
  return os << c.row->name << " case " << c.index;
}

std::vector<RowCase> cases_of(const std::vector<Row>& rows) {
  std::vector<RowCase> out;
  for (const Row& r : rows) {
    for (u64 idx = 0; idx < r.cases; ++idx) out.push_back({&r, idx});
  }
  return out;
}

/// `<family>_<case>`, e.g. `drift_gradual_7`.
std::string case_name(const ::testing::TestParamInfo<RowCase>& info) {
  std::string name =
      info.param.row->name + "_" + std::to_string(info.param.index);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

/// One seeded case of one row against every encoder and decoder column.
class EquivalenceCase : public ::testing::TestWithParam<RowCase> {};

TEST_P(EquivalenceCase, AllCellsAgree) {
  const std::optional<std::string> failure =
      GetParam().row->run(GetParam().index);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

/// A float field as u16 symbols: the top 12 bits of each value (sign,
/// exponent, three mantissa bits), so every family keeps its own shape —
/// one symbol for constants, a long tail for spikes and non-finites. The
/// field is tiled when n exceeds its shape.
std::vector<u16> field_symbols(pt::FieldKind kind, u64 seed, std::size_t n) {
  Xoshiro256 rng(seed);
  const std::vector<float> field =
      pt::make_field(kind, pt::make_dims(rng), seed);
  std::vector<u16> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    u32 bits;
    std::memcpy(&bits, &field[i % field.size()], sizeof bits);
    out[i] = static_cast<u16>(bits >> 20);
  }
  return out;
}

/// A deep book: exponential frequencies give 40 symbols codes up to well
/// past 32 bits (and past kDecodeTableBits).
const Codebook& deep_book() {
  static const Codebook cb =
      build_codebook_serial(data::exponential_histogram(40, 2.0, 11));
  return cb;
}

/// Mostly the shortest code, with deep and uniform symbols sprinkled in.
template <typename Sym>
std::vector<Sym> deep_symbols(u64 seed, std::size_t n) {
  const Codebook& cb = deep_book();
  u32 shortest = 0, deepest = 0;
  for (u32 s = 0; s < 40; ++s) {
    if (cb.cw[s].len < cb.cw[shortest].len) shortest = s;
    if (cb.cw[s].len > cb.cw[deepest].len) deepest = s;
  }
  Xoshiro256 rng(seed);
  std::vector<Sym> v(n);
  for (auto& s : v) {
    const u64 pick = rng.below(16);
    s = static_cast<Sym>(pick == 0 ? rng.below(40)
                         : pick == 1 ? deepest
                                     : shortest);
  }
  return v;
}

const Codebook& flat_book() {
  static const Codebook cb = build_codebook_serial(std::vector<u64>(1024, 1));
  return cb;
}

const std::vector<Row>& byte_buffer_rows() {
  static const std::vector<Row> rows =
      rows_of<u8>({{"bytes",
                    [](u64 seed, std::size_t n) {
                      Xoshiro256 rng(seed);
                      std::vector<u8> v;
                      while (v.size() < n) {
                        const auto more = pt::make_bytes(rng, n);
                        v.insert(v.end(), more.begin(), more.end());
                      }
                      v.resize(n);
                      return v;
                    },
                    {}}},
                  0xe0b17e00ull, 45);
  return rows;
}

const std::vector<Row>& drift_schedule_rows() {
  static const std::vector<Row> rows = [] {
    std::vector<Family<u16>> families;
    for (const pt::DriftKind kind :
         {pt::DriftKind::kGradual, pt::DriftKind::kAbrupt,
          pt::DriftKind::kPeriodic}) {
      families.push_back(
          {std::string("drift-") + pt::drift_kind_name(kind),
           [kind](u64 seed, std::size_t n) {
             Xoshiro256 rng(seed);
             pt::DriftSpec spec;
             spec.kind = kind;
             spec.nbins = 8 + rng.below(2000);
             spec.log2_batch_symbols = 13;
             const pt::DriftSource src(spec, seed);
             std::vector<u16> v;
             for (std::size_t t = 0; v.size() < n; ++t) {
               const auto batch = src.batch<u16>(t);
               v.insert(v.end(), batch.begin(), batch.end());
             }
             v.resize(n);
             return v;
           },
           {}});
    }
    return rows_of<u16>(families, 0xe0d21f00ull, 15);
  }();
  return rows;
}

const std::vector<Row>& field_family_rows() {
  static const std::vector<Row> rows = [] {
    std::vector<Family<u16>> families;
    for (const pt::FieldKind kind :
         {pt::FieldKind::kSmooth, pt::FieldKind::kTurbulent,
          pt::FieldKind::kConstant, pt::FieldKind::kDenormal,
          pt::FieldKind::kSpiky}) {
      families.push_back({std::string("field-") + pt::field_kind_name(kind),
                          [kind](u64 seed, std::size_t n) {
                            return field_symbols(kind, seed, n);
                          },
                          {}});
    }
    return rows_of<u16>(families, 0xe0f1e1d0ull, 9);
  }();
  return rows;
}

const std::vector<Row>& random_stream_rows() {
  static const std::vector<Row> rows =
      rows_of<u16>({{"random",
                     [](u64 seed, std::size_t n) {
                       Xoshiro256 rng(seed);
                       const std::size_t nbins = 2 + rng.below(2000);
                       return pt::random_symbols(rng, n, nbins);
                     },
                     {}}},
                   0xe0a4d000ull, 30);
  return rows;
}

const std::vector<Row>& adaptive_stream_rows() {
  static const std::vector<Row> rows = [] {
    std::vector<Family<u16>> families;
    for (const pt::StreamKind kind :
         {pt::StreamKind::kBimodal, pt::StreamKind::kNyx,
          pt::StreamKind::kUniform, pt::StreamKind::kSubChunk,
          pt::StreamKind::kSingle}) {
      families.push_back({std::string("stream-") + pt::stream_kind_name(kind),
                          [kind](u64 seed, std::size_t n) {
                            return pt::make_stream(kind, n, seed);
                          },
                          {}});
    }
    return rows_of<u16>(families, 0xe0ada000ull, 9);
  }();
  return rows;
}

const std::vector<Row>& pinned_book_rows() {
  static const std::vector<Row> rows = [] {
    std::vector<Row> out =
        rows_of<u8>({{"deep-book-u8", deep_symbols<u8>, deep_book},
                     {"single-symbol",
                      [](u64 seed, std::size_t n) {
                        return std::vector<u8>(n, static_cast<u8>(seed));
                      },
                      {}}},
                    0xe0b00c00ull, 12);
    for (Row& r :
         rows_of<u16>({{"deep-book-u16", deep_symbols<u16>, deep_book},
                       {"flat-1024",
                        [](u64 seed, std::size_t n) {
                          Xoshiro256 rng(seed);
                          std::vector<u16> v(n);
                          for (auto& s : v) {
                            s = static_cast<u16>(rng.below(1024));
                          }
                          return v;
                        },
                        flat_book, true}},
                      0xe0b01600ull, 12)) {
      out.push_back(std::move(r));
    }
    return out;
  }();
  return rows;
}

INSTANTIATE_TEST_SUITE_P(ByteBuffers, EquivalenceCase,
                         ::testing::ValuesIn(cases_of(byte_buffer_rows())),
                         case_name);
INSTANTIATE_TEST_SUITE_P(DriftSchedules, EquivalenceCase,
                         ::testing::ValuesIn(cases_of(drift_schedule_rows())),
                         case_name);
INSTANTIATE_TEST_SUITE_P(FieldFamilies, EquivalenceCase,
                         ::testing::ValuesIn(cases_of(field_family_rows())),
                         case_name);
INSTANTIATE_TEST_SUITE_P(RandomStreams, EquivalenceCase,
                         ::testing::ValuesIn(cases_of(random_stream_rows())),
                         case_name);
INSTANTIATE_TEST_SUITE_P(AdaptiveStreamKinds, EquivalenceCase,
                         ::testing::ValuesIn(cases_of(adaptive_stream_rows())),
                         case_name);
INSTANTIATE_TEST_SUITE_P(PinnedBooks, EquivalenceCase,
                         ::testing::ValuesIn(cases_of(pinned_book_rows())),
                         case_name);

TEST(Equivalence, PinnedBookShapes) {
  EXPECT_GT(deep_book().max_len, 32u);
  EXPECT_GT(deep_book().max_len, kDecodeTableBits);
  EXPECT_EQ(flat_book().max_len, 10u);
}

// --- Pipeline kinds. ---------------------------------------------------------

/// Each histogram, codebook and encoder kind through compress(), one axis
/// at a time from the default config.
TEST(Equivalence, PipelineKinds) {
  const auto input = data::generate_text(150000, 99);
  std::vector<std::pair<std::string, PipelineConfig>> configs;
  for (const HistogramKind h :
       {HistogramKind::kSerial, HistogramKind::kOpenMP, HistogramKind::kSimt}) {
    PipelineConfig c;
    c.histogram = h;
    configs.emplace_back("histogram=" + std::to_string(static_cast<int>(h)), c);
  }
  for (const CodebookKind k :
       {CodebookKind::kSerialTree, CodebookKind::kParallelSimt,
        CodebookKind::kParallelOmp}) {
    PipelineConfig c;
    c.codebook = k;
    configs.emplace_back("codebook=" + std::to_string(static_cast<int>(k)), c);
  }
  for (const EncoderKind e :
       {EncoderKind::kSerial, EncoderKind::kOpenMP, EncoderKind::kCoarseSimt,
        EncoderKind::kPrefixSumSimt, EncoderKind::kReduceShuffleSimt,
        EncoderKind::kAdaptiveSimt}) {
    PipelineConfig c;
    c.encoder = e;
    configs.emplace_back("encoder=" + std::to_string(static_cast<int>(e)), c);
  }
  const std::vector<u8> reference = serialize(compress<u8>(input, {}));
  std::vector<u8> serial_encoded;
  for (const auto& [name, cfg] : configs) {
    SCOPED_TRACE(name);
    PipelineReport rep;
    const auto blob = compress<u8>(input, cfg, &rep);
    EXPECT_EQ(blob.codebook.validate(), "");
    EXPECT_EQ(decompress(blob, 2), input);
    EXPECT_GT(rep.avg_bits, 1.0);
    EXPECT_LT(rep.avg_bits, 8.0);
    EXPECT_GE(rep.avg_bits, rep.entropy_bits - 0.01);
    EXPECT_GT(rep.compression_ratio(), 1.0);
    EXPECT_GT(rep.total_seconds(), 0.0);
    const std::vector<u8> bytes = serialize(blob);
    // Every histogram kind counts the same; the chunk-baseline encoders
    // write the serial stream.
    if (cfg.encoder == EncoderKind::kReduceShuffleSimt &&
        cfg.codebook == CodebookKind::kParallelSimt) {
      EXPECT_EQ(bytes, reference);
    }
    if (cfg.encoder == EncoderKind::kSerial) serial_encoded = bytes;
    if (cfg.encoder == EncoderKind::kOpenMP ||
        cfg.encoder == EncoderKind::kCoarseSimt ||
        cfg.encoder == EncoderKind::kPrefixSumSimt) {
      EXPECT_EQ(bytes, serial_encoded);
    }
  }
}

// --- Serving paths. ----------------------------------------------------------

/// Servers with the codebook cache off and no batch window: a cache hit or
/// a batch-wide book would encode with a book other than the input's own,
/// so the container would decode identically but differ in bytes.
rpc::ServerConfig path_server_config() {
  rpc::ServerConfig sc;
  sc.service.workers = 2;
  sc.service.enable_cache = false;
  sc.service.batch_window_seconds = 0;
  return sc;
}

template <typename Sym>
std::vector<Sym> symbols_of(const std::vector<u8>& raw) {
  std::vector<Sym> out(raw.size() / sizeof(Sym));
  if (!out.empty()) std::memcpy(out.data(), raw.data(), raw.size());
  return out;
}

/// Every serving path on `inputs` at the server's default pipeline config
/// for Sym.
template <typename Sym>
void check_paths(const std::vector<std::pair<std::string, std::vector<Sym>>>&
                     inputs) {
  const rpc::ServerConfig sc = path_server_config();
  const PipelineConfig& cfg = sizeof(Sym) == 1 ? sc.pipeline8 : sc.pipeline16;

  svc::CompressionService<Sym> service(sc.service);

  rpc::LoopbackHub hub;
  rpc::RpcServer loop_server(hub.listener(), sc);
  rpc::RpcClient loop_client([&] { return hub.connect(); });

  const std::string sock = "/tmp/parhuff_equivalence_" +
                           std::to_string(sizeof(Sym)) + "_" +
                           std::to_string(::getpid()) + ".sock";
  rpc::RpcServer unix_server(rpc::listen_unix(sock), sc);
  rpc::RpcClient unix_client([&] { return rpc::connect_unix(sock); });

  router::ShardHarness shards(3, sc);
  rpc::LoopbackHub front;
  router::RouterConfig rc;
  rc.start_prober = false;
  router::ShardRouter shard_router(front.listener(), shards.endpoints(), rc);
  rpc::RpcClient router_client([&] { return front.connect(); });

  rpc::ClientConfig streamed;
  streamed.stream_threshold_bytes = 512;
  streamed.stream_chunk_bytes = 4096;
  rpc::RpcClient stream_client([&] { return hub.connect(); }, streamed);

  for (const auto& [name, input] : inputs) {
    Cells cells;
    const std::span<const Sym> in(input);
    std::vector<u8> reference;
    cells.check("compress", "decompress", "in-process", attempt([&] {
      const Compressed<Sym> blob = compress<Sym>(in, cfg);
      reference = serialize(blob);
      return mismatch<Sym>(decompress(blob), in);
    }));
    cells.check("service", "svc::decompress", "service(solo)", attempt([&] {
      const svc::CompressResult<Sym> res = service.submit(in, cfg).get();
      std::string d = mismatch<Sym>(svc::decompress(res), in);
      if (d.empty() &&
          serialize(Compressed<Sym>{*res.codebook, res.stream}) != reference) {
        d = "container differs from serialize(compress())";
      }
      return d;
    }));
    const auto over_rpc = [&](rpc::RpcClient& cli, const std::string& path,
                              bool byte_identical) {
      cells.check("rpc compress", "rpc decompress", path, attempt([&] {
        rpc::RpcCall call = cli.compress_data<Sym>(in);
        const std::vector<u8> container = call.result.get();
        if (call.id == 0) return std::string("call id 0");
        const bool streamed_container =
            container.size() >= 4 &&
            std::memcmp(container.data(), kStreamHeaderMagic, 4) == 0;
        if (streamed_container == byte_identical) {
          return std::string(byte_identical ? "container is a PHS3 stream"
                                            : "container was not streamed");
        }
        if (byte_identical && container != reference) {
          return std::string("container differs from serialize(compress())");
        }
        const std::vector<u8> raw =
            cli.decompress(container, sizeof(Sym)).result.get();
        return mismatch<Sym>(symbols_of<Sym>(raw), in);
      }));
    };
    over_rpc(loop_client, "rpc(loopback)", true);
    over_rpc(unix_client, "rpc(unix)", true);
    over_rpc(router_client, "router(3 shards)", true);
    if (in.size() * sizeof(Sym) > streamed.stream_threshold_bytes) {
      over_rpc(stream_client, "rpc(streamed)", false);
    }
    EXPECT_TRUE(cells.ok()) << "path equivalence failed: input=" << name
                            << " n=" << in.size() << " "
                            << cells.failure().value_or("");
  }
}

TEST(Equivalence, PathsU8) {
  std::vector<std::pair<std::string, std::vector<u8>>> inputs;
  inputs.emplace_back("empty", std::vector<u8>{});
  inputs.emplace_back("text", data::generate_text(20000, 8));
  for (u64 idx = 0; idx < 3; ++idx) {
    Xoshiro256 rng(pt::case_seed(0xe0ba7800ull, idx));
    inputs.emplace_back("bytes#" + std::to_string(idx),
                        pt::make_bytes(rng, 30000));
  }
  inputs.emplace_back("deep-book", deep_symbols<u8>(3, 5000));
  check_paths<u8>(inputs);
}

TEST(Equivalence, PathsU16) {
  std::vector<std::pair<std::string, std::vector<u16>>> inputs;
  inputs.emplace_back("nyx", pt::make_stream(pt::StreamKind::kNyx, 50000, 3));
  inputs.emplace_back("bimodal",
                      pt::make_stream(pt::StreamKind::kBimodal, 30000, 5));
  Xoshiro256 rng(pt::case_seed(0xe0ba7816ull, 0));
  inputs.emplace_back("random", pt::random_symbols(rng, 20000, 1500));
  // A 40000-symbol alphabet takes the full 65536-bin path.
  std::vector<u16> wide(8192);
  for (auto& s : wide) s = static_cast<u16>(rng.below(40000));
  inputs.emplace_back("wide", wide);
  check_paths<u16>(inputs);
}

// --- Serial encoder edge cases. ----------------------------------------------

TEST(EncodeSerial, EmptyInput) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1});
  const EncodedStream s = encode_serial<u8>(std::vector<u8>{}, cb, 64);
  EXPECT_EQ(s.chunks(), 0u);
  EXPECT_EQ(decode_stream<u8>(s, cb, 1).size(), 0u);
}

TEST(EncodeSerial, ThrowsOnAbsentSymbol) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1, 0});
  const std::vector<u8> bad = {0, 1, 2};
  EXPECT_THROW((void)encode_serial<u8>(bad, cb, 64), std::runtime_error);
}

TEST(EncodeSerial, SingleSymbolAlphabet) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1});
  const std::vector<u8> input(1000, 0);
  const EncodedStream s = encode_serial<u8>(input, cb, 128);
  EXPECT_EQ(s.total_payload_bits(), 1000u);
  EXPECT_EQ(decode_stream<u8>(s, cb, 1), input);
}

TEST(EncodeSerial, ChunkBitsMatchCodeLengths) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 2, 2});
  const std::vector<u8> input = {0, 1, 2, 0};  // 1+2+2+1 = 6 bits
  const EncodedStream s = encode_serial<u8>(input, cb, 2);
  ASSERT_EQ(s.chunks(), 2u);
  EXPECT_EQ(s.chunk_bits[0], 3u);
  EXPECT_EQ(s.chunk_bits[1], 3u);
}

}  // namespace
}  // namespace parhuff
