// Shared tape representation for the bit-parallel batch evaluator.
//
// BatchEvaluator compiles the netlist once into a flat, SSA-like op tape,
// and compiles every sweep it runs — the whole tape, or the datapath ops
// of one live cone — from that tape into a Program: the sweep's ops as
// dense operand lists grouped into runs of one kind, so the per-backend
// kernels (batch_kernels_*.cpp — uint64, NEON, AVX2, AVX-512) loop over
// a run with no per-op dispatch.  Every backend interprets the SAME
// programs, so every backend is bit-for-bit comparable against the scalar
// Evaluator oracle.  Operands are *word-slot* indices: slot s of an
// evaluator with stride S (64-bit words per net) lives at w[s * S .. s * S
// + S) — the kernel's vector width is exactly S words, so one op is one
// vector instruction on the native backends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace aesip::netlist::batchdetail {

using Word = std::uint64_t;

/// One word-level op.  kMux is (a & c) | (~a & b) — a = select, b = low,
/// c = high, matching kMux2's in0/in1/in2.  kAndn is ~a & b and kOrn is
/// ~a | b: the collapsed Shannon cofactors (hi==0 / lo==1).
enum class OpKind : std::uint8_t { kCopy, kNot, kAnd, kAndn, kOr, kOrn, kXor, kMux, kRom };

struct Op {
  OpKind kind;
  std::uint32_t dst;  // word slot; for kRom: the rom index
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
};

/// Operand words one op of `kind` takes in Program::args: dst then its
/// inputs (a, b, c as the kind reads them); a kRom op is its rom index.
constexpr std::size_t op_words(OpKind kind) {
  switch (kind) {
    case OpKind::kCopy:
    case OpKind::kNot: return 2;
    case OpKind::kMux: return 4;
    case OpKind::kRom: return 1;
    default: return 3;
  }
}

/// `count` consecutive ops of one kind.
struct Run {
  OpKind kind;
  std::uint32_t count;
};

/// A 256x8 ROM macro resolved to word slots (address/data bit i = slot i).
/// `table` points into the owning Netlist's Rom::table — the netlist must
/// outlive the evaluator, which it already does by contract.
struct RomSpec {
  std::uint32_t addr[8];
  std::uint32_t out[8];
  const std::uint8_t* table;
};

/// One sweep, compiled: its ops in tape order, their operands packed
/// op_words(kind) to an op in `args`, run after run.  A kRom op's word
/// indexes `roms`, the program's own specs (a cone program reads some
/// address bits through other slots than the tape's).
struct Program {
  std::vector<Run> runs;
  std::vector<std::uint32_t> args;
  std::vector<RomSpec> roms;
  std::size_t ops = 0;  ///< ops across all runs

  void push(const Op& op) {
    if (runs.empty() || runs.back().kind != op.kind) runs.push_back(Run{op.kind, 0});
    ++runs.back().count;
    ++ops;
    const std::uint32_t words[4] = {op.dst, op.a, op.b, op.c};
    args.insert(args.end(), words, words + op_words(op.kind));
  }
  std::size_t bytes() const noexcept {
    return runs.size() * sizeof(Run) + args.size() * sizeof(std::uint32_t) +
           roms.size() * sizeof(RomSpec);
  }
};

struct Dff {
  std::uint32_t d;       ///< word slot D is read from
  std::uint32_t q;       ///< word slot of Q
  std::uint32_t enable;  ///< word slot of clock-enable, or kNoWord
  std::uint32_t index;   ///< the flip-flop's state word (as flip_dff takes it)
};

static constexpr std::uint32_t kNoWord = 0xffffffffu;

/// Storage on 64-byte boundaries: with it, every lane word of a stride-8
/// evaluator is one whole cache line and every stride-4 word half of one,
/// so no vector load or store of a kernel splits across two lines.
template <class T>
struct LineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};

  LineAllocator() = default;
  template <class U>
  LineAllocator(const LineAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) { return static_cast<T*>(::operator new(n * sizeof(T), kAlign)); }
  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }
  template <class U>
  bool operator==(const LineAllocator<U>&) const noexcept {
    return true;
  }
};

using LaneWords = std::vector<Word, LineAllocator<Word>>;

}  // namespace aesip::netlist::batchdetail
