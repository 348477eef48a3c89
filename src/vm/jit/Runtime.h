//===- Runtime.h - JIT execution state and helper ABI -----------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The contract between compiled code and the C++ wrapper (Run.cpp):
//
//  - JitState is the single mutable interface of a native execution. The
//    entry stub receives its address in rdi and pins it in rbx; every
//    per-op template reads/writes state through fixed offsets
//    (offsetof-derived in Compile.cpp, so the layout below IS the ABI).
//  - JitFrame holds a frame's bytecode resume PC and register base plus
//    a native resume address, so returns are one indirect jump while
//    fault-stack walks still see bytecode resume PCs.
//  - The pfJit* helpers are the few operations compiled code does not
//    inline: heap allocation (vector growth + fault injection + trace
//    events), cmp-operand capture, and the PathAFL call hash. They follow
//    the SysV ABI; compiled code preserves its pinned registers across
//    them and reloads the heap-cells base after pfJitAlloc (allocation
//    may reallocate the cells vector).
//
// Bailouts are terminal: native code never re-enters after writing
// FaultKind/BailPC — the wrapper materializes the Fault from PcInfo, whose
// coordinates are the reference interpreter's, so they are bit-identical.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_VM_JIT_RUNTIME_H
#define PATHFUZZ_VM_JIT_RUNTIME_H

#include "vm/Vm.h"

#include <cstdint>

namespace pathfuzz {
namespace vm {
namespace jit {

/// Native call frame. 24 bytes; kept in a flat pre-reserved array so
/// compiled code pushes/pops frames with pointer arithmetic only.
struct JitFrame {
  uint64_t NativeRet = 0; ///< native resume address (dead on the top frame)
  uint32_t SavedPC = 0;   ///< bytecode resume PC, for fault-stack walks
  uint32_t RegBase = 0;   ///< offset into the register stack, in cells
  uint32_t RetReg = 0;    ///< caller register receiving the return value
  uint32_t Pad = 0;
};
static_assert(sizeof(JitFrame) == 24, "compiled code hardcodes the stride");

/// The mutable state of one native execution. Hot fields first; the
/// tail section is only touched by the out-of-line helpers.
struct JitState {
  // Pinned-register seeds: the entry stub loads StepsRemaining into r12,
  // Input into r13, RegStack (frame 0) into r14, Cells into r15 and Map
  // into rbp; the exit stub writes StepsRemaining back.
  int64_t *RegStack = nullptr;
  JitFrame *Frames = nullptr;
  uint64_t FrameTop = 0; ///< live frame count (frame 0 is @main)
  uint64_t RegTop = 0;   ///< live register-stack extent, in cells
  HeapObject *Objects = nullptr;
  uint64_t NumObjs = 0;
  int64_t *Cells = nullptr;
  uint64_t CellsN = 0;
  uint8_t *Map = nullptr;
  uint64_t MapMask = 0;
  /// Touched-line marks (FeedbackContext::LineFlags); non-null whenever
  /// Map is, so the bump template stores without a test.
  uint8_t *LineFlags = nullptr;
  uint64_t PrevLoc = 0;
  uint64_t CallHash = 0;
  const uint8_t *Input = nullptr;
  uint64_t Len = 0;
  /// Step budget, counted down (one `sub 1` + carry check per slot).
  /// Steps executed = StepLimit - StepsRemaining on any non-step-limit
  /// exit; a step-limit trip reports StepLimit + 1 like the reference.
  uint64_t StepsRemaining = 0;
  uint64_t MaxCallDepth = 0;
  const uint64_t *FuncKeys = nullptr;
  uint8_t *EdgeSeen = nullptr;
  uint32_t *EdgeTouched = nullptr; ///< pre-reserved scratch, numEdges long
  uint64_t EdgeTouchedN = 0;
  uint8_t *DirtyPage = nullptr;
  uint32_t *DirtyList = nullptr; ///< pre-reserved scratch, numPages long
  uint64_t DirtyN = 0;
  uint64_t NumGlobalCells = 0;
  uint64_t NumGlobals = 0;
  int64_t RetVal = 0;
  uint32_t FaultKind = 0; ///< vm::FaultKind; None while running
  uint32_t BailPC = 0;    ///< PC the bail stub recorded (PcInfo index)
  // Runtime behavior flags, tested inline so one compiled program serves
  // every campaign configuration (the cache key stays the image's).
  uint8_t FlagLogCmps = 0;
  uint8_t FlagRecordEdges = 0;
  uint8_t FlagDoCallHash = 0;
  uint8_t Pad0[5] = {0, 0, 0, 0, 0};

  // Helper-only section (cold).
  std::vector<HeapObject> *ObjectsVec = nullptr;
  std::vector<int64_t> *CellsVec = nullptr;
  ExecResult *Result = nullptr;
  FeedbackContext *Fb = nullptr;
  uint64_t HeapCellLimit = 0;
  uint64_t MaxObjects = 0;
  uint64_t MaxCmpLog = 0;
};

extern "C" {

/// Heap allocation: replicates the reference Alloc handler exactly —
/// injected-fault probe first (with its trace event), then the real
/// limits, then growth. Returns the tagged pointer; on failure sets
/// S->FaultKind = OutOfMemory and the return value is dead. Updates the
/// Objects/Cells views in S (growth may reallocate).
int64_t pfJitAlloc(JitState *S, int64_t Size);

/// Cmp-operand capture: replicates the reference filter (comparisons
/// only — the compiler only emits calls at comparison sites — values
/// outside [-1, 1], capped at MaxCmpLog *before* the append).
void pfJitLogCmp(JitState *S, int64_t L, int64_t Rv);

/// PathAFL call hash: mixes Callee into S->CallHash, bumps the map and
/// marks the bumped line.
/// Only called when FlagDoCallHash is set (which implies Map != null).
void pfJitCallHash(JitState *S, uint32_t Callee);

} // extern "C"

} // namespace jit
} // namespace vm
} // namespace pathfuzz

#endif // PATHFUZZ_VM_JIT_RUNTIME_H
