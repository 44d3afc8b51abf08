// Internal to the crypto library and its tests: which AES-GCM implementation
// an Aes/AesGcm object runs.
//
// Two implementations compute the same function:
//  - kPortable: byte-wise AES and bitwise GHASH in plain C++. It builds on
//    every target and is the reference the hardware path is tested against.
//  - kHardware: AES-NI counter mode (8 blocks in flight) and PCLMULQDQ GHASH
//    (4 blocks per reduction). x86-64 only; the intrinsics are compiled with
//    function-level target attributes, so the rest of the build keeps its
//    global flags.
// Callers never choose: the one-argument constructors use default_backend(),
// decided once per process from cpuid. Tests construct both explicitly.
#pragma once

#include <cstdint>

namespace stf::crypto::internal {

enum class Backend : std::uint8_t { kPortable, kHardware };

/// True on x86-64 CPUs with AES-NI, PCLMULQDQ and SSSE3.
bool hardware_supported();

/// kHardware when hardware_supported(), else kPortable.
Backend default_backend();

}  // namespace stf::crypto::internal
