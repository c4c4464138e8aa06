#include "netlist/batch_backend.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "netlist/batch_kernels.hpp"

namespace aesip::netlist {

const char* backend_name(BatchBackend b) noexcept {
  switch (b) {
    case BatchBackend::kU64: return "u64";
    case BatchBackend::kNeon: return "neon";
    case BatchBackend::kAvx2: return "avx2";
    case BatchBackend::kAvx512: return "avx512";
  }
  return "?";
}

std::optional<BatchBackend> backend_from_name(std::string_view name) noexcept {
  if (name == "u64") return BatchBackend::kU64;
  if (name == "neon") return BatchBackend::kNeon;
  if (name == "avx2") return BatchBackend::kAvx2;
  if (name == "avx512") return BatchBackend::kAvx512;
  return std::nullopt;
}

std::size_t backend_lanes(BatchBackend b) noexcept {
  switch (b) {
    case BatchBackend::kU64: return 64;
    case BatchBackend::kNeon: return 128;
    case BatchBackend::kAvx2: return 256;
    case BatchBackend::kAvx512: return 512;
  }
  return 64;
}

namespace {

// __builtin_cpu_supports demands literal arguments, hence one helper per
// feature rather than a string-parameter wrapper.
#if (defined(__x86_64__) || defined(_M_X64)) && (defined(__GNUC__) || defined(__clang__))
bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }
bool cpu_has_avx512() {
  // F for the 512-bit word ops, BW for the byte-granular ROM gather, VBMI
  // for its vpermi2b table lookup.  A host without VBMI runs avx2.
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vbmi");
}
#else
bool cpu_has_avx2() { return false; }
bool cpu_has_avx512() { return false; }
#endif

}  // namespace

bool backend_supported(BatchBackend b) {
  switch (b) {
    case BatchBackend::kU64:
      return true;
    case BatchBackend::kNeon:
      return batchdetail::kernels_neon() != nullptr;  // baseline ISA on aarch64
    case BatchBackend::kAvx2:
      return batchdetail::kernels_avx2() != nullptr && cpu_has_avx2();
    case BatchBackend::kAvx512:
      return batchdetail::kernels_avx512() != nullptr && cpu_has_avx512();
  }
  return false;
}

BatchBackend detect_backend() {
  if (backend_supported(BatchBackend::kAvx512)) return BatchBackend::kAvx512;
  if (backend_supported(BatchBackend::kAvx2)) return BatchBackend::kAvx2;
  if (backend_supported(BatchBackend::kNeon)) return BatchBackend::kNeon;
  return BatchBackend::kU64;
}

std::optional<BatchBackend> env_forced_backend() {
  const char* env = std::getenv("AESIP_BATCH_BACKEND");
  if (!env || !*env) return std::nullopt;
  if (const auto b = backend_from_name(env)) return b;
  throw std::runtime_error(std::string("AESIP_BATCH_BACKEND='") + env +
                           "' names no batch backend (u64, neon, avx2, avx512)");
}

BatchBackend resolve_backend(const BatchConfig& cfg) {
  std::optional<BatchBackend> forced = cfg.backend;
  if (!forced) forced = env_forced_backend();
  if (!forced) return detect_backend();
  if (!backend_supported(*forced))
    throw std::runtime_error(std::string("netlist batch backend '") + backend_name(*forced) +
                             "' is not supported on this host");
  return *forced;
}

}  // namespace aesip::netlist
