// SRV8 — the small SPARC-V8-flavoured RISC ISA executed by the simulated
// LEON4/NGMP-like cores.
//
// Design points that matter for the reproduction:
//  * 32 general-purpose 32-bit registers, r0 hardwired to zero;
//  * loads/stores address memory as [rs1 + rs2] or [rs1 + simm13], the SPARC
//    register+register form the paper's chronograms use (`r3 = load(r1+r2)`);
//  * stores read their data from rd (SPARC `st rd, [..]` convention);
//  * fixed 32-bit encodings so the instruction cache is exercised honestly.
#pragma once

#include <array>
#include <optional>
#include <string_view>

#include "common/types.hpp"

namespace laec::isa {

inline constexpr unsigned kNumRegs = 32;

/// Opcode space. Keep the enumerators stable: they are the upper bits of the
/// binary encoding.
enum class Op : u8 {
  // ALU, register or immediate second operand (see DecodedInst::uses_imm).
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kSll,
  kSrl,
  kSra,
  kSlt,   // signed set-less-than
  kSltu,  // unsigned set-less-than
  kMul,   // low 32 bits of product
  kMulh,  // high 32 bits of signed product
  kDiv,   // signed division (div by zero yields all-ones, no trap)
  kRem,   // signed remainder (rem by zero yields dividend)
  kLui,   // rd = imm << 12

  // Memory. Effective address = rs1 + (rs2 | simm13).
  kLw,
  kLh,
  kLhu,
  kLb,
  kLbu,
  kSw,
  kSh,
  kSb,

  // Control. Branch displacement is in instruction words relative to the
  // branch's own PC.
  kBeq,
  kBne,
  kBlt,
  kBge,
  kBltu,
  kBgeu,
  kJal,   // rd = pc + 4; pc += 4 * disp
  kJalr,  // rd = pc + 4; pc = (rs1 + imm) & ~3

  kNop,
  kHalt,  // stops the core when it retires

  kOpCount,
};

[[nodiscard]] std::string_view mnemonic(Op op);

/// Coarse classes used by the pipeline's hazard/stat logic.
enum class OpClass : u8 { kAlu, kLoad, kStore, kBranch, kJump, kNop, kHalt };

/// Defined inline: the pipeline classifies every in-flight instruction
/// several times per simulated cycle, so this must compile down to a jump
/// table the caller can inline rather than an out-of-line call.
[[nodiscard]] constexpr OpClass op_class(Op op) {
  switch (op) {
    case Op::kLw:
    case Op::kLh:
    case Op::kLhu:
    case Op::kLb:
    case Op::kLbu:
      return OpClass::kLoad;
    case Op::kSw:
    case Op::kSh:
    case Op::kSb:
      return OpClass::kStore;
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      return OpClass::kBranch;
    case Op::kJal:
    case Op::kJalr:
      return OpClass::kJump;
    case Op::kNop:
      return OpClass::kNop;
    case Op::kHalt:
      return OpClass::kHalt;
    default:
      return OpClass::kAlu;
  }
}

/// A fully decoded instruction. This is also the form synthetic traces
/// inject directly into the pipeline, bypassing fetch/decode of encodings.
struct DecodedInst {
  Op op = Op::kNop;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  i32 imm = 0;
  bool uses_imm = false;

  /// Snapshot field list (protocol: sim/snapshot.hpp).
  template <class V>
  void visit_state(V& v) {
    v("op", op);
    v("rd", rd);
    v("rs1", rs1);
    v("rs2", rs2);
    v("imm", imm);
    v("uses_imm", uses_imm);
  }

  [[nodiscard]] constexpr OpClass cls() const { return op_class(op); }
  [[nodiscard]] constexpr bool is_load() const {
    return cls() == OpClass::kLoad;
  }
  [[nodiscard]] constexpr bool is_store() const {
    return cls() == OpClass::kStore;
  }
  [[nodiscard]] constexpr bool is_mem() const {
    return is_load() || is_store();
  }
  [[nodiscard]] constexpr bool is_branch() const {
    return cls() == OpClass::kBranch || cls() == OpClass::kJump;
  }

  /// Destination register, or nullopt when the instruction writes none
  /// (stores, branches, nop, halt; writes to r0 are also discarded).
  /// Inline: the hazard scans call this for every pipeline slot, every
  /// cycle.
  [[nodiscard]] constexpr std::optional<u8> dest() const {
    switch (cls()) {
      case OpClass::kAlu:
      case OpClass::kLoad:
      case OpClass::kJump:
        return (rd == 0) ? std::nullopt : std::optional<u8>(rd);
      default:
        return std::nullopt;
    }
  }

  /// Source registers whose values feed address computation / the ALU /
  /// the branch comparison — i.e. values needed at the start of EX (or RA
  /// when a load is anticipated). Excludes the store-data register.
  [[nodiscard]] constexpr std::array<std::optional<u8>, 2> exec_srcs() const {
    std::array<std::optional<u8>, 2> s{std::nullopt, std::nullopt};
    switch (cls()) {
      case OpClass::kAlu:
        if (op == Op::kLui) return s;
        s[0] = rs1;
        if (!uses_imm) s[1] = rs2;
        return s;
      case OpClass::kLoad:
      case OpClass::kStore:
        s[0] = rs1;
        if (!uses_imm) s[1] = rs2;
        return s;
      case OpClass::kBranch:
        s[0] = rs1;
        s[1] = rs2;
        return s;
      case OpClass::kJump:
        if (op == Op::kJalr) s[0] = rs1;
        return s;
      default:
        return s;
    }
  }

  /// The store-data register (SPARC rd convention), needed by the time the
  /// store enters the write buffer.
  [[nodiscard]] constexpr std::optional<u8> store_data_src() const {
    if (!is_store()) return std::nullopt;
    return rd;
  }

  bool operator==(const DecodedInst&) const = default;
};

/// Number of bytes a memory op transfers.
[[nodiscard]] constexpr unsigned mem_access_bytes(Op op) {
  switch (op) {
    case Op::kLw:
    case Op::kSw:
      return 4;
    case Op::kLh:
    case Op::kLhu:
    case Op::kSh:
      return 2;
    case Op::kLb:
    case Op::kLbu:
    case Op::kSb:
      return 1;
    default:
      return 0;
  }
}

// ---------------------------------------------------------------------------
// Binary encoding (32-bit words).
//
//   [31:26] opcode   [25] i (immediate form)   [24:20] rd   [19:15] rs1
//   i=0: [14:10] rs2
//   i=1: [12:0] simm13 (sign-extended)
//   kLui / kJal: [19:0] simm20 (sign-extended), rs1 unused
// ---------------------------------------------------------------------------

/// Encode to the 32-bit binary form. Immediates out of range are a bug in
/// the caller (asserted).
[[nodiscard]] u32 encode(const DecodedInst& d);

/// Decode a 32-bit word. Unknown opcodes decode to kHalt so a runaway core
/// stops instead of executing garbage.
[[nodiscard]] DecodedInst decode(u32 word);

/// Immediate range limits of the 13-bit form.
inline constexpr i32 kImmMin = -4096;
inline constexpr i32 kImmMax = 4095;
inline constexpr i32 kImm20Min = -(1 << 19);
inline constexpr i32 kImm20Max = (1 << 19) - 1;
/// Branch word-displacement limits (15-bit signed field).
inline constexpr i32 kBranchDispMin = -(1 << 14);
inline constexpr i32 kBranchDispMax = (1 << 14) - 1;

}  // namespace laec::isa
