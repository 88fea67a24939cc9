#pragma once
// FNV-1a 64-bit hashes. container_digest (8-byte lanes, folded) is the one
// lane digest: the integrity digest of the containers written today (PHF4
// stream sections and optional fields, PHS3 frames) and, chained over chunk
// payloads, the RPC v5 stream checksum. The byte-serial fnv1a is the digest
// of the read-only PHF2, PHF3 and PHS2 containers (core/format.hpp,
// SectionDigest) and the router's key hash. None is cryptographic; they
// exist to catch bit rot and truncation, like the CRCs in gzip/zstd frames.

#include <cstddef>
#include <cstring>
#include <span>

#include "util/types.hpp"

namespace parhuff {

/// FNV-1a offset basis — the seed an incremental hash starts from. Feeding
/// a previous result back as `seed` chains the hash across buffers without
/// ever holding the whole input (the RPC stream checksum chains
/// container_digest() over chunk payloads this way).
inline constexpr u64 kFnv1aSeed = 0xcbf29ce484222325ull;

[[nodiscard]] constexpr u64 fnv1a(std::span<const u8> bytes,
                                  u64 seed = kFnv1aSeed) {
  u64 h = seed;
  for (const u8 b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The lane digest (docs/format.md): FNV-1a mixing over 8-byte
/// little-endian lanes (one multiply per 8 input bytes instead of per
/// byte) with the high half folded back down after every lane multiply,
/// and a byte-wise tail. The fold makes a difference in a lane's top bits
/// reach the low bits, and through the next multiply every bit, before the
/// next lane is mixed in; a multiply alone only carries bits upward, so
/// without it two flips of bit 63 (in two lanes, or in a lane and the
/// stored digest) cancel. Chains across buffers through `seed` like
/// fnv1a(), but it is a DIFFERENT function: writer and reader must agree
/// on it, which is why the containers that carry it have their own magics
/// and the wire its own protocol version.
[[nodiscard]] inline u64 container_digest(std::span<const u8> bytes,
                                          u64 seed = kFnv1aSeed) {
  u64 h = seed;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    u64 lane;
    std::memcpy(&lane, bytes.data() + i, 8);  // LE
    h = (h ^ lane) * 0x100000001b3ull;
    h ^= h >> 32;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

}  // namespace parhuff
