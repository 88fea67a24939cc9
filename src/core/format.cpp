#include "core/format.hpp"

#include <cstring>
#include <fstream>

#include "core/rle.hpp"
#include "util/hash.hpp"

namespace parhuff {

namespace {
// Container versions (docs/format.md). "PHF4" is the one the writer
// writes: the stream section, then a tagged optional-field region that is
// always present, every digest over 8-byte lanes. The read-only "PHF2"
// (no region) and "PHF3" (the PHF4 layout) digest byte by byte. Readers
// skip tags they do not understand, so new fields never force another
// magic bump; a new digest does (the version-bump rule).
constexpr char kMagicV2[4] = {'P', 'H', 'F', '2'};
constexpr char kMagicV3[4] = {'P', 'H', 'F', '3'};
constexpr char kMagicV4[4] = {'P', 'H', 'F', '4'};
constexpr u32 kMaxOptionalFields = 64;

u64 digest_of(SectionDigest d, std::span<const u8> bytes) {
  return d == SectionDigest::kLanes ? container_digest(bytes) : fnv1a(bytes);
}

/// Parse + validate a GAP1 payload against the already-deserialized stream
/// geometry. Entry count and bounds are checked BEFORE the arrays are
/// materialized; the decoder re-validates per-chunk count sums on use.
void parse_gap_field(std::span<const u8> payload, EncodedStream& s) {
  ByteReader r(payload);
  const u32 subseq = r.get<u32>();
  if (subseq < 64 || subseq > 32768) {
    throw std::runtime_error(
        "parhuff container: gap subsequence size out of range");
  }
  const u64 n = r.get<u64>();
  u64 expect = 0;
  for (std::size_t c = 0; c < s.chunks(); ++c) {
    if (s.chunk_bits[c] != 0) expect += (s.chunk_bits[c] + subseq - 1) / subseq;
  }
  if (n != expect) {
    throw std::runtime_error("parhuff container: gap metadata count mismatch");
  }
  s.gap_subseq_bits = subseq;
  s.gaps = r.get_array<u8>(static_cast<std::size_t>(n));
  s.gap_counts = r.get_array<u16>(static_cast<std::size_t>(n));
  if (!r.done()) {
    throw std::runtime_error("parhuff container: gap field trailing bytes");
  }
  for (std::size_t i = 0; i < s.gaps.size(); ++i) {
    if (s.gaps[i] == EncodedStream::kNoGap) {
      if (s.gap_counts[i] != 0) {
        throw std::runtime_error(
            "parhuff container: gap sentinel with nonzero count");
      }
    } else if (s.gaps[i] >= subseq) {
      throw std::runtime_error("parhuff container: gap exceeds subsequence");
    }
  }
}

/// Parse an RLE1 payload and check it against the already-deserialized
/// stream with validate_rle (core/rle.hpp): a forged field fails typed
/// here, before the lossy reader ever pulls a code through it.
void parse_rle_field(std::span<const u8> payload, EncodedStream& s) {
  ByteReader r(payload);
  s.rle_symbol = r.get<u32>();
  s.rle_orig_symbols = r.get<u64>();
  const u64 n_runs = r.get<u64>();
  s.rle_run_pos = r.get_array<u64>(static_cast<std::size_t>(n_runs));
  s.rle_run_len = r.get_array<u32>(static_cast<std::size_t>(n_runs));
  if (!r.done()) {
    throw std::runtime_error("parhuff container: rle field trailing bytes");
  }
  validate_rle(s, s.n_symbols);
}

/// One optional field: u32 tag | u64 len | payload | u64 digest(payload).
/// `write_payload()` appends the payload in place; the length slot is
/// patched once it is in.
template <typename WritePayload>
void write_field(ByteWriter& w, u32 tag, WritePayload&& write_payload) {
  w.put<u32>(tag);
  const std::size_t len_at = w.size();
  w.put<u64>(0);
  const std::size_t at = w.size();
  write_payload();
  w.patch<u64>(len_at, static_cast<u64>(w.size() - at));
  w.put<u64>(container_digest(w.since(at)));
}

// The overflow table is written as the packed in-memory entries.
static_assert(sizeof(OverflowEntry) == 24 &&
              std::is_trivially_copyable_v<OverflowEntry>);
}  // namespace

// --- Codebook section. --------------------------------------------------------

void write_codebook(ByteWriter& w, const Codebook& cb) {
  w.put<u8>(static_cast<u8>(cb.max_len));
  w.put<u32>(cb.nbins);
  for (u32 i = 0; i < cb.nbins; ++i) w.put<u8>(cb.cw[i].len);
  w.put<u32>(static_cast<u32>(cb.sorted_syms.size()));
  w.put_array(std::span<const u32>(cb.sorted_syms));
}

Codebook read_codebook(ByteReader& r) {
  const u8 max_len = r.get<u8>();
  const u32 nbins = r.get<u32>();
  if (nbins == 0 || nbins > (u32{1} << 24)) {
    throw std::runtime_error("parhuff container: implausible nbins");
  }
  const std::vector<u8> lens = r.get_array<u8>(nbins);
  const u32 n_present = r.get<u32>();
  std::vector<u32> sorted_syms = r.get_array<u32>(n_present);

  // Rebuild canonical metadata from the lengths, then graft the stored
  // reverse-table order and rederive the forward table from it.
  Codebook cb = canonize_from_lengths(lens);
  if (cb.sorted_syms.size() != n_present) {
    throw std::runtime_error("parhuff container: reverse table size");
  }
  if (cb.max_len != max_len) {
    throw std::runtime_error("parhuff container: max_len mismatch");
  }
  for (const u32 sym : sorted_syms) {
    if (sym >= nbins || lens[sym] == 0) {
      throw std::runtime_error("parhuff container: invalid reverse entry");
    }
  }
  cb.sorted_syms = std::move(sorted_syms);
  for (unsigned l = 1; l <= cb.max_len; ++l) {
    for (u32 i = 0; i < cb.count[l]; ++i) {
      const u32 sym = cb.sorted_syms[cb.entry[l] + i];
      if (lens[sym] != l) {
        throw std::runtime_error("parhuff container: reverse order invalid");
      }
      cb.cw[sym] = Codeword{cb.first[l] + i, static_cast<u8>(l)};
    }
  }
  const std::string err = cb.validate();
  if (!err.empty()) {
    throw std::runtime_error("parhuff container: codebook invalid: " + err);
  }
  return cb;
}

// --- Stream section. -----------------------------------------------------------

void write_stream(ByteWriter& w, const EncodedStream& s) {
  const std::size_t at = w.size();
  w.put<u64>(static_cast<u64>(s.n_symbols));
  w.put<u32>(s.chunk_symbols);
  w.put<u32>(s.reduce_factor);
  w.put<u8>(s.chunk_reduce.empty() ? 0 : 1);
  w.put<u32>(static_cast<u32>(s.chunk_bits.size()));
  w.put_array(std::span<const u64>(s.chunk_bits));
  w.put_array(std::span<const u8>(s.chunk_reduce));
  w.put<u64>(static_cast<u64>(s.payload.size()));
  w.put_array(std::span<const word_t>(s.payload));
  w.put<u32>(static_cast<u32>(s.overflow.size()));
  w.put_array(std::span<const OverflowEntry>(s.overflow));
  w.put<u64>(static_cast<u64>(s.overflow_payload.size()));
  w.put<u64>(s.overflow_bits);
  w.put_array(std::span<const word_t>(s.overflow_payload));
  // Integrity checksum over everything above.
  w.put<u64>(container_digest(w.since(at)));
}

EncodedStream read_stream(ByteReader& r, SectionDigest digest) {
  const std::size_t at = r.position();
  EncodedStream s;
  s.n_symbols = static_cast<std::size_t>(r.get<u64>());
  s.chunk_symbols = r.get<u32>();
  s.reduce_factor = r.get<u32>();
  if (s.chunk_symbols == 0) {
    throw std::runtime_error("parhuff container: zero chunk size");
  }
  const bool per_chunk_reduce = r.get<u8>() != 0;
  const u32 n_chunks = r.get<u32>();
  const std::size_t expect_chunks =
      s.n_symbols == 0 ? 0
                       : (s.n_symbols + s.chunk_symbols - 1) / s.chunk_symbols;
  if (n_chunks != expect_chunks) {
    throw std::runtime_error("parhuff container: chunk count mismatch");
  }
  s.chunk_bits = r.get_array<u64>(n_chunks);
  // A chunk of N symbols can hold at most N * kMaxCodeLen main-stream bits;
  // bound with a round 64 bits/symbol. This is the check that makes the
  // rest of the layout arithmetic safe: without it a forged near-2^64
  // chunk_bits value wraps words_for_bits() to 0 cells, slips through the
  // payload size comparison below, and hands decoders a BitReader claiming
  // billions of bits over an empty span.
  for (const u64 cb : s.chunk_bits) {
    if (cb > static_cast<u64>(s.chunk_symbols) * 64) {
      throw std::runtime_error("parhuff container: implausible chunk bits");
    }
  }
  if (per_chunk_reduce) {
    s.chunk_reduce = r.get_array<u8>(n_chunks);
    for (const u8 cr : s.chunk_reduce) {
      if (cr == 0 || cr > 15) {
        throw std::runtime_error("parhuff container: bad per-chunk reduce");
      }
    }
  }
  const u64 payload_words = r.get<u64>();
  if (layout_chunks(s) != payload_words) {
    throw std::runtime_error("parhuff container: payload size mismatch");
  }
  s.payload = r.get_array<word_t>(static_cast<std::size_t>(payload_words));

  const u32 n_overflow = r.get<u32>();
  s.overflow = r.get_array<OverflowEntry>(n_overflow);
  for (u32 i = 0; i < n_overflow; ++i) {
    const OverflowEntry& e = s.overflow[i];
    if (e.chunk >= n_chunks) {
      throw std::runtime_error("parhuff container: overflow chunk range");
    }
    // Strictly ascending by (chunk, group), one whole group each: the
    // decoders' chunk walk splices entries at their group boundaries, and
    // a forged count would otherwise steer symbols past the chunk.
    if (i > 0 && (e.chunk < s.overflow[i - 1].chunk ||
                  (e.chunk == s.overflow[i - 1].chunk &&
                   e.group <= s.overflow[i - 1].group))) {
      throw std::runtime_error("parhuff container: overflow entry order");
    }
    if (!s.overflow_entry_fits(e)) {
      throw std::runtime_error("parhuff container: overflow entry group");
    }
  }
  const u64 ovf_words = r.get<u64>();
  s.overflow_bits = r.get<u64>();
  // Guard the multiplication: a forged word count near 2^64 would wrap
  // `ovf_words * kWordBits` and pass the bit-range check.
  if (ovf_words > ~u64{0} / kWordBits ||
      s.overflow_bits > ovf_words * kWordBits) {
    throw std::runtime_error("parhuff container: overflow bits range");
  }
  s.overflow_payload = r.get_array<word_t>(static_cast<std::size_t>(ovf_words));
  for (const OverflowEntry& e : s.overflow) {
    // Subtraction form: `bit_offset + bit_len` can wrap for a forged
    // offset near 2^64.
    if (e.bit_offset > s.overflow_bits ||
        e.bit_len > s.overflow_bits - e.bit_offset) {
      throw std::runtime_error("parhuff container: overflow entry range");
    }
  }
  const u64 expect = digest_of(digest, r.since(at));
  if (r.get<u64>() != expect) {
    throw std::runtime_error("parhuff container: checksum mismatch");
  }
  return s;
}

// --- Whole container. -----------------------------------------------------------

template <typename Sym>
void write_container(ByteWriter& w, const Codebook& cb,
                     const EncodedStream& s) {
  w.put_array(std::span<const char>(kMagicV4, 4));
  w.put<u8>(static_cast<u8>(sizeof(Sym)));
  write_codebook(w, cb);
  write_stream(w, s);
  // Fields are written in tag-introduction order (GAP1 then RLE1).
  w.put<u32>(static_cast<u32>(s.has_gaps()) +
             static_cast<u32>(s.has_rle()));  // n_fields
  if (s.has_gaps()) {
    // u32 subseq_bits | u64 n | u8 gaps[n] | u16 counts[n]
    write_field(w, kContainerFieldGap, [&] {
      w.put<u32>(s.gap_subseq_bits);
      w.put<u64>(static_cast<u64>(s.gaps.size()));
      w.put_array(std::span<const u8>(s.gaps));
      w.put_array(std::span<const u16>(s.gap_counts));
    });
  }
  if (s.has_rle()) {
    // u32 run_symbol | u64 orig_symbols | u64 n_runs | u64 pos[n_runs] |
    // u32 len[n_runs]
    write_field(w, kContainerFieldRle, [&] {
      w.put<u32>(s.rle_symbol);
      w.put<u64>(s.rle_orig_symbols);
      w.put<u64>(static_cast<u64>(s.rle_run_pos.size()));
      w.put_array(std::span<const u64>(s.rle_run_pos));
      w.put_array(std::span<const u32>(s.rle_run_len));
    });
  }
}

template <typename Sym>
std::vector<u8> serialize(const Compressed<Sym>& blob) {
  ByteWriter w;
  write_container<Sym>(w, blob.codebook, blob.stream);
  return w.take();
}

template <typename Sym>
Compressed<Sym> deserialize(std::span<const u8> bytes) {
  ByteReader r(bytes);
  const auto magic = r.get_array<char>(4);
  const bool v4 = std::memcmp(magic.data(), kMagicV4, 4) == 0;
  const bool v3 = std::memcmp(magic.data(), kMagicV3, 4) == 0;
  if (!v4 && !v3 && std::memcmp(magic.data(), kMagicV2, 4) != 0) {
    throw std::runtime_error("parhuff container: bad magic");
  }
  const SectionDigest digest =
      v4 ? SectionDigest::kLanes : SectionDigest::kFnv1a;
  const u8 sym_bytes = r.get<u8>();
  if (sym_bytes != sizeof(Sym)) {
    throw std::runtime_error("parhuff container: symbol width mismatch");
  }
  Compressed<Sym> blob;
  blob.codebook = read_codebook(r);
  blob.stream = read_stream(r, digest);
  if (v4 || v3) {
    // Optional-field region. Every field is length-prefixed and carries its
    // own checksum, so a reader can verify and skip fields whose tags it
    // does not understand — the fallback-to-self-sync semantics: a stream
    // whose GAP1 field was skipped simply decodes via the older tiers.
    const u32 n_fields = r.get<u32>();
    if (n_fields > kMaxOptionalFields) {
      throw std::runtime_error(
          "parhuff container: implausible optional field count");
    }
    bool saw_gap = false, saw_rle = false;
    for (u32 i = 0; i < n_fields; ++i) {
      const u32 tag = r.get<u32>();
      const u64 len = r.get<u64>();
      const auto payload = r.get_view(static_cast<std::size_t>(len));
      if (r.get<u64>() != digest_of(digest, payload)) {
        throw std::runtime_error(
            "parhuff container: optional field checksum mismatch");
      }
      if (tag == kContainerFieldGap) {
        if (saw_gap) {
          throw std::runtime_error(
              "parhuff container: duplicate optional field");
        }
        saw_gap = true;
        parse_gap_field(payload, blob.stream);
      } else if (tag == kContainerFieldRle) {
        if (saw_rle) {
          throw std::runtime_error(
              "parhuff container: duplicate optional field");
        }
        saw_rle = true;
        parse_rle_field(payload, blob.stream);
      }
      // Unknown tag: verified, skipped.
    }
  }
  if (!r.done()) {
    throw std::runtime_error("parhuff container: trailing bytes");
  }
  return blob;
}

// --- Files. -----------------------------------------------------------------------

void write_file(const std::string& path, std::span<const u8> bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("cannot open for write: " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw std::runtime_error("write failed: " + path);
}

std::vector<u8> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw std::runtime_error("cannot open for read: " + path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<u8> bytes(static_cast<std::size_t>(size));
  f.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!f) throw std::runtime_error("read failed: " + path);
  return bytes;
}

template std::vector<u8> serialize<u8>(const Compressed<u8>&);
template std::vector<u8> serialize<u16>(const Compressed<u16>&);
template Compressed<u8> deserialize<u8>(std::span<const u8>);
template Compressed<u16> deserialize<u16>(std::span<const u8>);
template void write_container<u8>(ByteWriter&, const Codebook&,
                                  const EncodedStream&);
template void write_container<u16>(ByteWriter&, const Codebook&,
                                   const EncodedStream&);

}  // namespace parhuff
