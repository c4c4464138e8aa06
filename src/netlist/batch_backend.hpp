// Runtime-dispatched lane-word backends for netlist::BatchEvaluator.
//
// The batch evaluator's lane word is no longer a fixed uint64_t: at
// construction it picks the widest vector unit the host offers — AVX-512
// (512 lanes per pass), AVX2 (256), NEON (128) — and falls back to the
// portable 64-lane uint64 path, which doubles as the oracle-adjacent
// baseline the BENCH_simspeed ≥4x gate measures against.
//
// Selection order, resolved once per evaluator:
//   1. BatchConfig::backend, when set (tests force specific backends);
//   2. the AESIP_BATCH_BACKEND environment variable
//      (u64 | neon | avx2 | avx512) — the override knob the
//      backend-forcing ctest matrix uses;
//   3. detect_backend(): the widest backend the CPU supports (CPUID via
//      __builtin_cpu_supports).
// Forcing an unsupported backend, or naming one that does not exist,
// throws — the test matrix probes backend_supported() first and skips
// with a reason instead.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace aesip::netlist {

enum class BatchBackend : std::uint8_t { kU64, kNeon, kAvx2, kAvx512 };

/// Per-evaluator knobs (engine constructors pass this through; default is
/// full auto-detection).
struct BatchConfig {
  /// Backend override; nullopt = env var, then widest native.
  std::optional<BatchBackend> backend{};
};

/// Stable lowercase name ("u64", "neon", "avx2", "avx512") — the
/// spelling AESIP_BATCH_BACKEND accepts and bench/metrics JSON reports.
const char* backend_name(BatchBackend b) noexcept;
std::optional<BatchBackend> backend_from_name(std::string_view name) noexcept;

/// Simulation lanes per pass on `b`: 64 x its word stride.
std::size_t backend_lanes(BatchBackend b) noexcept;

/// True when this host can run `b`: compiled in AND the CPU advertises the
/// feature (AVX2 / AVX-512F+BW).  kU64 is always supported.
bool backend_supported(BatchBackend b);

/// Widest supported backend, ignoring overrides.
BatchBackend detect_backend();

/// The AESIP_BATCH_BACKEND override, if set.  Throws std::runtime_error
/// when it names no backend, so a misspelling cannot fall back silently.
std::optional<BatchBackend> env_forced_backend();

/// Resolve a config to the backend an evaluator will run: override > env >
/// detect.  Throws std::runtime_error when an explicit request names an
/// unknown or unsupported backend.
BatchBackend resolve_backend(const BatchConfig& cfg);

}  // namespace aesip::netlist
