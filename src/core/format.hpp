#pragma once
// Self-contained compressed container format (and its two sections, which
// the streaming API reuses independently).
//
// Container layout (little-endian); see docs/format.md for the byte-level
// reference and compatibility rules. The writer writes one version:
//   v4: magic "PHF4" | u8 sym_bytes | codebook section | stream section
//       | optional-field region
// The region is always present (n_fields may be 0):
//   u32 n_fields | { u32 tag | u64 len | u8 payload[len] | u64 digest }*
// Readers verify each field's digest and skip tags they do not know
// (forward compatibility: new optional fields never bump the magic).
// deserialize also reads the two earlier versions, whose digests are the
// byte-serial fnv1a (SectionDigest below):
//   v2: magic "PHF2" | u8 sym_bytes | codebook section | stream section
//   v3: "PHF3" | the v4 layout after the magic
// Known tags: kContainerFieldGap ("GAP1") — gap-array decode metadata,
//   payload u32 subseq_bits | u64 n | u8 gaps[n] | u16 counts[n];
// kContainerFieldRle ("RLE1") — run-length side channel extracted before
//   Huffman (the fused lossy path, src/lossy/fused.hpp), payload
//   u32 run_symbol | u64 orig_symbols | u64 n_runs | u64 pos[n_runs] |
//   u32 len[n_runs].
//
// Codebook section:
//   u8 max_len | u32 nbins | u8 lens[nbins]
//   u32 n_present | u32 sorted_syms[n_present]
// The lengths fully determine First/Entry/count (rebuilt on load); the
// reverse codebook is stored because the builder's within-level order is
// part of the code assignment.
//
// Stream section:
//   u64 n_symbols | u32 chunk_symbols | u32 reduce_factor
//   u8 per_chunk_flag | u32 n_chunks | u64 chunk_bits[n_chunks]
//   (u8 chunk_reduce[n_chunks] when per_chunk_flag)
//   u64 payload_words | word payload[...]
//   u32 n_overflow | { u32 chunk | u32 group | u64 bit_offset |
//                      u32 bit_len | u32 n_symbols }[n_overflow]
//   u64 overflow_words | u64 overflow_bits | word overflow_payload[...]
//   u64 digest over the section's bytes above

#include <span>
#include <string>
#include <vector>

#include "core/bytesio.hpp"
#include "core/pipeline.hpp"
#include "util/types.hpp"

namespace parhuff {

/// Optional-field tag for gap-array decode metadata ("GAP1" little-endian).
inline constexpr u32 kContainerFieldGap = 0x31504147;

/// Optional-field tag for the pre-Huffman run-length side channel
/// ("RLE1" little-endian).
inline constexpr u32 kContainerFieldRle = 0x31454C52;

/// The function behind a stream section's trailing digest and every
/// optional field's digest. The magic of the container or stream header
/// that holds the section fixes it: PHF4 and PHS3 use container_digest
/// (util/hash.hpp, 8-byte lanes), the read-only PHF2, PHF3 and PHS2 the
/// byte-serial fnv1a. Writers write kLanes only.
enum class SectionDigest : u8 { kFnv1a, kLanes };

// --- Whole-container API. ----------------------------------------------------

template <typename Sym>
[[nodiscard]] std::vector<u8> serialize(const Compressed<Sym>& blob);

/// Throws std::runtime_error (or std::invalid_argument from codebook
/// validation) on malformed input.
template <typename Sym>
[[nodiscard]] Compressed<Sym> deserialize(std::span<const u8> bytes);

/// Appends the container serialize() returns to `w`: the codebook need
/// not sit in a Compressed (a cached book is written in place).
template <typename Sym>
void write_container(ByteWriter& w, const Codebook& cb,
                     const EncodedStream& s);

// --- Section API (used by the whole-container functions and by the
// streaming format, which ships one codebook for many stream segments).
// Writers append to `w`; readers leave `r` just past the section. ---------

void write_codebook(ByteWriter& w, const Codebook& cb);
[[nodiscard]] Codebook read_codebook(ByteReader& r);

void write_stream(ByteWriter& w, const EncodedStream& s);
[[nodiscard]] EncodedStream read_stream(ByteReader& r, SectionDigest digest);

// --- File helpers used by the example applications. ---------------------------

void write_file(const std::string& path, std::span<const u8> bytes);
[[nodiscard]] std::vector<u8> read_file(const std::string& path);

extern template std::vector<u8> serialize<u8>(const Compressed<u8>&);
extern template std::vector<u8> serialize<u16>(const Compressed<u16>&);
extern template Compressed<u8> deserialize<u8>(std::span<const u8>);
extern template Compressed<u16> deserialize<u16>(std::span<const u8>);
extern template void write_container<u8>(ByteWriter&, const Codebook&,
                                         const EncodedStream&);
extern template void write_container<u16>(ByteWriter&, const Codebook&,
                                          const EncodedStream&);

}  // namespace parhuff
