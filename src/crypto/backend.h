// Internal to the crypto library and its tests: which implementation a
// SHA-256, Aes or AesGcm object runs.
//
// Each primitive has two implementations of the same function:
//  - kPortable: plain C++. It builds on every target and is the reference
//    the hardware path is tested against.
//  - kHardware: x86-64 only; the intrinsics are compiled with function-level
//    target attributes, so the rest of the build keeps its global flags.
//      * kAesGcm: AES-NI counter mode (8 blocks in flight) and PCLMULQDQ
//        GHASH (4 blocks per reduction).
//      * kSha256: the SHA extensions (sha256rnds2/msg1/msg2), every full
//        block of one update in a single call.
// Callers never choose: the constructors without a backend use
// default_backend(), decided once per process from cpuid. Tests construct
// both explicitly.
#pragma once

#include <cstdint>

namespace stf::crypto::internal {

enum class Backend : std::uint8_t { kPortable, kHardware };

enum class Primitive : std::uint8_t { kAesGcm, kSha256 };

/// True on x86-64 CPUs with the instructions the primitive's hardware path
/// needs: AES-NI, PCLMULQDQ and SSSE3 for kAesGcm; SHA, SSE4.1 and SSSE3
/// for kSha256.
bool hardware_supported(Primitive primitive);

/// kHardware when hardware_supported(primitive), else kPortable.
Backend default_backend(Primitive primitive);

}  // namespace stf::crypto::internal
