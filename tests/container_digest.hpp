#pragma once
// The digest a forged container's sections must carry to reach the
// parsers behind the digest check: the function the container's own magic
// names, picked the way the readers pick it (core/format.hpp,
// SectionDigest). A forgery repaired with the other version's function
// stops at "checksum mismatch" and tests nothing else.

#include <cstring>
#include <span>
#include <stdexcept>

#include "util/hash.hpp"
#include "util/types.hpp"

namespace parhuff {

/// Digest of `bytes` as a section or field of `container` (whose first
/// four bytes are its magic) carries it: container_digest in PHF4 and
/// PHS3, fnv1a in PHF2, PHF3 and PHS2.
inline u64 digest_for(std::span<const u8> container,
                      std::span<const u8> bytes) {
  if (container.size() < 4) throw std::invalid_argument("no magic");
  const auto is = [&](const char* magic) {
    return std::memcmp(container.data(), magic, 4) == 0;
  };
  if (is("PHF4") || is("PHS3")) return container_digest(bytes);
  if (is("PHF2") || is("PHF3") || is("PHS2")) return fnv1a(bytes);
  throw std::invalid_argument("not a PHF or PHS container");
}

}  // namespace parhuff
