#include "crypto/backend.h"

namespace stf::crypto::internal {

bool hardware_supported(Primitive primitive) {
#if defined(__x86_64__)
  static const bool aes_gcm = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("ssse3");
  }();
  static const bool sha256 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
           __builtin_cpu_supports("ssse3");
  }();
  return primitive == Primitive::kAesGcm ? aes_gcm : sha256;
#else
  (void)primitive;
  return false;
#endif
}

Backend default_backend(Primitive primitive) {
  return hardware_supported(primitive) ? Backend::kHardware
                                       : Backend::kPortable;
}

}  // namespace stf::crypto::internal
