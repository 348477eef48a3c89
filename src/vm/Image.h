//===- Image.h - Pre-decoded VM program image -------------------*- C++ -*-===//
//
// Part of the pathfuzz project: a reproduction of "Towards Path-Aware
// Coverage-Guided Fuzzing" (CGO 2026).
//
//===----------------------------------------------------------------------===//
//
// The reference interpreter in Vm.cpp walks the MIR object graph on every
// step: Frames.back() -> M.Funcs[f] -> .Blocks[b] -> .Instrs[i], four
// dependent loads and a vector bounds dance before the opcode switch even
// begins. For a fuzzing campaign that executes the same module millions of
// times, all of that work is loop-invariant — so the ProgramImage hoists
// it to decode time, once per (subject, feedback mode), into the form the
// JIT compiles (vm/jit/Jit.h):
//
//  - every instruction of every block is lowered into one flat, 32-byte,
//    pointer-free DInstr in a single contiguous array; a "program counter"
//    is just an index into it;
//  - block boundaries disappear: terminators become explicit decoded
//    branch ops whose successor *PCs* are resolved, so taking an edge is
//    one jump to a PC label instead of a block-object lookup;
//  - per-terminator shadow-edge IDs (instr::ShadowEdgeIndex lookups) are
//    resolved at decode time, including the UINT32_MAX "trampoline, skip"
//    sentinel;
//  - call targets carry their callee entry PC, frame size and path-reg
//    initialization inline, and the PathAFL call-selection hash test is
//    precomputed into a flag bit;
//  - a parallel PcInfo side table maps every PC back to the reference
//    interpreter's (function, block, *probe-free* instruction index)
//    coordinates, so fault records and stack hashes are bit-identical to
//    the reference interpreter's without re-deriving anything at fault
//    time;
//  - the pristine global cells are materialized once, the source of the
//    JIT engine's snapshot reset between executions (jit/Run.cpp).
//
// The image is immutable after build() and carries no pointers into the
// module it was decoded from, so one image is safely shared read-only by
// any number of Vm instances across threads (the build cache does exactly
// that, one image per instrumented build). Identity of the compiled image
// with the reference interpreter is pinned by tests/VmJitTest.cpp.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_VM_IMAGE_H
#define PATHFUZZ_VM_IMAGE_H

#include "mir/Mir.h"

#include <cstdint>
#include <vector>

namespace pathfuzz {
namespace instr {
class ShadowEdgeIndex;
} // namespace instr
namespace vm {

/// Decoded opcodes: the mir::Opcode set with terminators folded in as
/// explicit ops.
enum class DOp : uint8_t {
  Const,
  Move,
  Bin,
  BinImm,
  Neg,
  Not,
  InLen,
  InByte,
  Alloc,
  GlobalAddr,
  Load,
  Store,
  Free,
  Abort,
  Call,
  EdgeProbe,
  BlockProbe,
  PathAdd,
  PathFlushRet,
  PathFlushBack,
  Br,
  CondBr,
  Switch,
  Ret,
};

/// One decoded instruction slot. Exactly 32 bytes, two per cache line.
/// Field meaning is per-op (register operands keep the reference names):
///
///   Call         A=result reg, B/C=arg regs 0/1, Imm=arg regs 2..5 packed
///                16-bit, X=callee entry PC, Y=callee function index,
///                Flags bit0 = PathAFL-selected callee
///   Br           X=target PC, Y=shadow edge ID (UINT32_MAX = skip)
///   CondBr       A=cond reg, X=taken PC, Y=not-taken PC,
///                Imm = taken edge ID | not-taken edge ID << 32
///   Switch       A=cond reg, X=offset into succs() (Y entries),
///                Y=successor count, Imm=offset into constPool() (Y-1 case
///                values)
///   Ret          A=value reg
///   PathAdd      A=path reg, Imm=increment
///   PathFlushRet A=path reg, Imm=flush offset, Y=function index (for the
///                per-function map key)
///   PathFlushBack as PathFlushRet, plus X=constPool() index of the
///                path-register reset value (mir Imm2)
///   everything else matches the mir::Instr it was decoded from.
struct DInstr {
  DOp Op = DOp::Const;
  mir::BinOp BOp = mir::BinOp::Add;
  uint8_t Flags = 0;
  uint8_t NumArgs = 0;
  mir::Reg A = 0;
  mir::Reg B = 0;
  mir::Reg C = 0;
  int64_t Imm = 0;
  uint32_t X = 0;
  uint32_t Y = 0;

  /// Call: the K-th argument register.
  mir::Reg arg(unsigned K) const {
    if (K == 0)
      return B;
    if (K == 1)
      return C;
    return static_cast<mir::Reg>(
        (static_cast<uint64_t>(Imm) >> ((K - 2) * 16)) & 0xffff);
  }

  static constexpr uint8_t FlagCallSelected = 1; ///< PathAFL call hashing
};
static_assert(sizeof(DInstr) == 32, "decoded instruction must stay compact");

/// Switch/branch successor: resolved target plus its shadow edge ID.
struct SuccEntry {
  uint32_t TargetPC = 0;
  uint32_t EdgeId = UINT32_MAX;
};

/// Reference-interpreter coordinates of one PC, precomputed so fault
/// records match the reference bit for bit. Norm is the *probe-free*
/// index of this slot within its block (terminator slots count every
/// non-probe instruction of the block) — exactly what Vm.cpp's
/// normalizedIdx() yields for a frame suspended at this PC.
struct PcInfo {
  uint32_t Func = 0;
  uint32_t Block = 0;
  uint32_t Norm = 0;
};

/// Per-function execution header: everything pushFrame() read off
/// mir::Function, flattened.
struct ImageFunc {
  uint32_t EntryPC = 0;
  uint16_t NumRegs = 0;
  uint16_t PathReg = 0;
  int64_t PathRegInit = 0;
  bool HasPathReg = false;
};

/// Snapshot-reset page granularity: global cells are dirty-tracked in
/// pages of 64 cells (512 bytes), the granularity the JIT engine restores
/// from the pristine image between executions.
inline constexpr unsigned SnapshotPageShift = 6;
inline constexpr uint64_t SnapshotPageCells = 1ull << SnapshotPageShift;

/// Selects the VM execution engine for campaign-level drivers. Auto
/// resolves the PATHFUZZ_VM_ENGINE environment knob: "interp" or "jit"
/// (the default, so Auto means "the fastest engine this platform
/// supports"). Results are bit-identical across both engines; the knob
/// exists for benchmarking and for bisecting the engines against each
/// other.
enum class VmExecMode : uint8_t { Auto, Interpreter, Jit };

/// Whether Mode resolves to the native JIT engine: Jit, or Auto under
/// PATHFUZZ_VM_ENGINE=jit (or unset), whenever the platform supports it
/// (jit::available). Everywhere else the reference interpreter runs.
/// Auto consults PATHFUZZ_VM_ENGINE on every call (tests flip it at
/// runtime).
bool jitEnabled(VmExecMode Mode);

/// Whether Mode needs the pre-decoded image: exactly when the JIT runs,
/// because the image is the JIT's input (PcInfo fault coordinates and the
/// snapshot-reset pristine state). Equal to jitEnabled(Mode).
bool fastPathEnabled(VmExecMode Mode);

/// Read only by campaignbench/; removed in the next benchmark PR.
enum class SelectiveMode : uint8_t { Auto, Off, On };
/// Read only by campaignbench/; removed in the next benchmark PR.
inline bool selectiveEnabled(SelectiveMode) { return false; }

/// The immutable decoded form of one (instrumented) module.
class ProgramImage {
public:
  /// Decode M. Shadow (the index over the *original* module, as handed to
  /// Vm) resolves per-terminator edge IDs; pass null when shadow-edge
  /// recording will never be requested.
  static ProgramImage build(const mir::Module &M,
                            const instr::ShadowEdgeIndex *Shadow);

  const DInstr *code() const { return Code.data(); }
  size_t codeSize() const { return Code.size(); }
  const PcInfo *pcInfo() const { return Pc.data(); }
  const ImageFunc *funcs() const { return Funcs.data(); }
  size_t numFuncs() const { return Funcs.size(); }
  const SuccEntry *succs() const { return SuccPool.data(); }
  /// Switch case values and PathFlushBack reset constants.
  const int64_t *constPool() const { return Pool.data(); }

  /// Whether shadow edge IDs were resolved at decode time. A Vm holding a
  /// ShadowEdgeIndex refuses an image built without one (it could never
  /// record the edges the reference interpreter would).
  bool builtWithShadow() const { return HasShadow; }

  /// Entry PC of @main.
  uint32_t mainEntryPC() const { return Funcs[MainIndex].EntryPC; }
  uint32_t mainIndex() const { return MainIndex; }

  // Snapshot-reset support: the pristine global image, materialized once
  // at decode time exactly as the reference interpreter materializes it
  // per execution (Init prefix, zero tail).
  uint32_t numGlobals() const { return NumGlobals; }
  uint64_t globalCells() const { return GlobalCellsTotal; }
  const std::vector<int64_t> &pristineGlobalCells() const { return Pristine; }
  const std::vector<uint32_t> &globalSizes() const { return GlobalSizes; }
  const std::vector<uint32_t> &globalCellBases() const { return GlobalBases; }

  /// The module this image was decoded from (identity check only — the
  /// JIT never dereferences it).
  const mir::Module *module() const { return Src; }

  /// Decoded footprint in bytes (code + side tables), for reporting.
  uint64_t byteSize() const;

private:
  const mir::Module *Src = nullptr;
  uint32_t MainIndex = 0;
  bool HasShadow = false;
  std::vector<DInstr> Code;
  std::vector<PcInfo> Pc;
  std::vector<ImageFunc> Funcs;
  std::vector<SuccEntry> SuccPool;
  std::vector<int64_t> Pool;

  uint32_t NumGlobals = 0;
  uint64_t GlobalCellsTotal = 0;
  std::vector<int64_t> Pristine;
  std::vector<uint32_t> GlobalSizes;
  std::vector<uint32_t> GlobalBases;
};

} // namespace vm
} // namespace pathfuzz

#endif // PATHFUZZ_VM_IMAGE_H
