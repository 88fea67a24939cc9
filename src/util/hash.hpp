#pragma once
// FNV-1a 64-bit hashes. container_digest (8-byte lanes, folded) is the
// integrity digest of the containers written today (PHF4 stream sections
// and optional fields, PHS3 frames); stream_checksum (8-byte lanes) is the
// v3 RPC stream checksum; the byte-serial fnv1a is the digest of the
// read-only PHF2, PHF3 and PHS2 containers (core/format.hpp,
// SectionDigest) and the router's key hash. None is cryptographic; they
// exist to catch bit rot and truncation, like the CRCs in gzip/zstd frames.

#include <cstddef>
#include <cstring>
#include <span>

#include "util/types.hpp"

namespace parhuff {

/// FNV-1a offset basis — the seed an incremental hash starts from. Feeding
/// a previous result back as `seed` chains the hash across buffers without
/// ever holding the whole input (the v3 RPC stream checksum chains
/// stream_checksum() over chunk payloads this way).
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

/// Wide-lane variant: FNV-1a mixing over 8-byte little-endian lanes (one
/// multiply per 8 input bytes instead of per byte) with a byte-wise tail.
/// It is the v3 RPC stream checksum (docs/rpc.md). Chains across chunks
/// through `seed` exactly like fnv1a(), but it is a DIFFERENT function:
/// both ends of a stream must agree on it. A multiply only carries bits
/// upward, so a flip of bit 63 in two lanes cancels here; containers use
/// container_digest() instead.
[[nodiscard]] inline u64 stream_checksum(std::span<const u8> bytes,
                                         u64 seed = kFnv1aSeed) {
  u64 h = seed;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    u64 lane;
    std::memcpy(&lane, bytes.data() + i, 8);  // LE, like the frame header
    h = (h ^ lane) * 0x100000001b3ull;
  }
  for (; i < bytes.size(); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ull;
  }
  return h;
}

/// The container digest (docs/format.md): stream_checksum's lane walk with
/// the high half folded back down after every lane multiply, so a
/// difference in a lane's top bits reaches the low bits, and through the
/// next multiply every bit, before the next lane is mixed in. Without the
/// fold, two flips of bit 63 (in two lanes, or in a lane and the stored
/// digest) cancel. One shift and one XOR per 8 bytes on top of
/// stream_checksum. Writer and reader must agree on it, which is why the
/// containers that carry it have their own magics.
[[nodiscard]] inline u64 container_digest(std::span<const u8> bytes) {
  u64 h = kFnv1aSeed;
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
