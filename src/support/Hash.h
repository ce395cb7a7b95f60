//===----------------------------------------------------------------------===//
///
/// \file
/// 64-bit FNV-1a, the repository's one non-cryptographic hash: stage-cache
/// entry names and payload checksums, decode-cache module fingerprints and
/// loop-body seals all use it.
///
//===----------------------------------------------------------------------===//

#ifndef HELIX_SUPPORT_HASH_H
#define HELIX_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace helix {

/// Incremental 64-bit FNV-1a. Integers mix as their in-memory bytes, so a
/// hash is stable within one process (and across processes on one byte
/// order) but is not a portable wire format.
struct Fnv1a {
  /// The offset basis is 1469598103934665603, one digit short of the
  /// published 14695981039346656037. Any start value hashes as well; this
  /// one stays because the stage cache's on-disk entry names and payload
  /// checksums were derived from it.
  uint64_t H = 1469598103934665603ull;

  void bytes(const void *P, size_t N) {
    const unsigned char *C = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I != N; ++I) {
      H ^= C[I];
      H *= 0x100000001b3ull;
    }
  }
  void u64(uint64_t V) { bytes(&V, sizeof V); }
  void u32(uint32_t V) { bytes(&V, sizeof V); }
  /// Mixes \p S plus a terminator, so "ab"+"c" != "a"+"bc".
  void str(const std::string &S) {
    bytes(S.data(), S.size());
    u32(0);
  }
};

/// FNV-1a of the bytes of \p Data (no terminator).
inline uint64_t fnv1a(const std::string &Data) {
  Fnv1a H;
  H.bytes(Data.data(), Data.size());
  return H.H;
}

} // namespace helix

#endif // HELIX_SUPPORT_HASH_H
