//===- Vm.h - MIR interpreter with memory-safety checking -------*- C++ -*-===//
//
// Part of the pathfuzz project: a reproduction of "Towards Path-Aware
// Coverage-Guided Fuzzing" (CGO 2026).
//
//===----------------------------------------------------------------------===//
//
// The VM executes (instrumented) MIR programs on fuzz inputs, standing in
// for native execution under AddressSanitizer in the paper's setup:
//
//  - A simulated heap with per-object bounds, free-state tracking and
//    pointer validation turns memory-safety violations into deterministic
//    Fault records carrying the faulting site and the call stack, enabling
//    the paper's triage pipeline (stack-hash "unique crashes" and
//    root-cause "unique bugs").
//  - Coverage probes inserted by src/instrument are interpreted against a
//    caller-provided coverage map (the AFL++ shared-memory map analogue).
//  - Independent of the feedback mode, the VM can record the set of
//    *shadow* edges traversed (see instrument/ShadowEdges.h), the
//    afl-showmap analogue used for the paper's coverage study and for the
//    culling strategy.
//  - Comparison operands can be logged, feeding the input-to-state
//    mutation stage (the cmplog/RedQueen analogue the paper enables).
//  - A step budget bounds runaway executions (the timeout analogue); step
//    exhaustion is a hang, not a crash.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_VM_VM_H
#define PATHFUZZ_VM_VM_H

#include "cov/CoverageMap.h"
#include "instrument/ShadowEdges.h"
#include "mir/Mir.h"
#include "support/Hashing.h"

#include <cstdint>
#include <vector>

namespace pathfuzz {
namespace telemetry {
class InstanceTrace;
} // namespace telemetry
namespace vm {

class ProgramImage;
namespace jit {
class JitProgram;
} // namespace jit

/// One simulated heap object: globals occupy the [0, numGlobals) prefix,
/// dynamic allocations follow. At namespace scope (rather than nested in
/// Vm) because the JIT runtime helpers grow the object table directly.
struct HeapObject {
  uint32_t Size = 0;
  uint32_t CellBase = 0; ///< offset into Cells
  bool Freed = false;
};

/// Tagged pointer base: heap/global pointers are PtrBase + object index.
/// Arithmetic-mangled pointers land outside the object table and fault as
/// BadPointer, the wild-pointer analogue.
inline constexpr int64_t PtrBase = int64_t(1) << 56;

/// PathAFL-style call-path hashing (FeedbackContext::CallPathHash; the
/// comparator is described in pathafl/PathAfl.h): the running hash starts
/// at CallHashSeed, and each call to a selected callee advances it with
/// callHashStep and bumps the map entry it lands on.
inline constexpr uint64_t CallHashSeed = 0x50a7af1dULL;

/// Whether calls to Callee extend the call-path hash: about a quarter of
/// functions are "selected", by a fixed hash of the callee index.
inline bool callHashSelected(uint32_t Callee) {
  return (mix64(Callee * 0x9e3779b97f4a7c15ULL) & 3) == 0;
}

/// The call-path hash after a call to the selected Callee.
inline uint64_t callHashStep(uint64_t Hash, uint32_t Callee) {
  return mix64(Hash ^ (Callee + 0x517cc1b727220a95ULL));
}

/// Execution outcome kinds. Everything except None and StepLimit is a
/// crash (StepLimit is the hang/timeout analogue).
enum class FaultKind : uint8_t {
  None,
  OobRead,
  OobWrite,
  UseAfterFree,
  DoubleFree,
  InvalidFree,
  BadPointer,
  DivByZero,
  Abort,
  StackOverflow,
  OutOfMemory,
  StepLimit,
};

/// Whether the fault kind counts as a crash for the fuzzer.
inline bool isCrash(FaultKind K) {
  return K != FaultKind::None && K != FaultKind::StepLimit;
}

const char *faultKindName(FaultKind K);

/// One frame of the call stack at fault time.
struct StackFrameRef {
  uint32_t Func = 0;
  uint32_t Block = 0;
  uint32_t InstrIdx = 0;
};

/// A crash report: the faulting site plus the call stack (innermost
/// first).
struct Fault {
  FaultKind Kind = FaultKind::None;
  uint32_t Func = 0;
  uint32_t Block = 0;
  uint32_t InstrIdx = 0;
  std::vector<StackFrameRef> Stack;

  /// Ground-truth bug identity: the faulting site and kind. This is the
  /// analogue of the paper's *manual* crash-to-bug deduplication — with
  /// planted bugs the root cause is known exactly.
  uint64_t bugId() const {
    uint64_t Id = (static_cast<uint64_t>(Func) << 40) |
                  (static_cast<uint64_t>(Block) << 16) | InstrIdx;
    return hashCombine(Id, static_cast<uint64_t>(Kind));
  }

  /// Stack-trace hash over the top `Frames` frames (default 5, as the
  /// paper's crash clustering does): the "unique crash" identity.
  uint64_t stackHash(unsigned Frames = 5) const;
};

/// Feedback plumbing: where probes write. Null Map disables feedback.
struct FeedbackContext {
  uint8_t *Map = nullptr;
  uint32_t MapMask = 0; ///< map size minus one (size is a power of two)
  /// Touched-line marks: every engine sets LineFlags[Index >> LineShift]
  /// = 1 on each map write, so the flagged lines are exactly the lines
  /// holding a nonzero byte. The fuzzer passes cov::CoverageMap's flags
  /// and walks only those lines afterwards. Null when the caller does not
  /// read them: the Vm then supplies its own scratch array, so no engine
  /// tests for null on the write path.
  uint8_t *LineFlags = nullptr;
  /// Per-function keys for path-map indexing: (path_id ^ key) & MapMask,
  /// the paper's (path_id XOR function) % map_size scheme.
  const uint64_t *FuncKeys = nullptr;
  /// PathAFL-style assist: hash the sequence of *selected* function calls
  /// into the map (coarse whole-program path tracking).
  bool CallPathHash = false;
  /// Flight recorder for events raised below the fuzzer (injected
  /// faults); null disables recording. TraceExec is the instance-local
  /// exec index stamped on those events.
  telemetry::InstanceTrace *Trace = nullptr;
  uint64_t TraceExec = 0;
};

/// Per-execution limits and switches.
struct ExecOptions {
  uint64_t StepLimit = 500000;
  uint32_t MaxCallDepth = 192;
  uint64_t HeapCellLimit = 1 << 22; ///< total allocatable cells per run
  uint32_t MaxObjects = 1 << 16;
  bool RecordShadowEdges = true;
  bool LogCmps = false;
  uint32_t MaxCmpLog = 128;
};

/// Result of one execution.
struct ExecResult {
  Fault TheFault;
  uint64_t Steps = 0;
  int64_t ReturnValue = 0;
  /// Shadow edges covered, each once, in first-traversal order (empty if
  /// not recorded). The order is a function of the execution path, so
  /// both engines produce the same list element for element; it is not
  /// sorted.
  std::vector<uint32_t> ShadowEdges;
  /// Logged comparison operand values (for the cmplog stage).
  std::vector<int64_t> CmpOperands;
  /// Heap pressure of this execution (successful allocations only).
  uint64_t HeapAllocs = 0;
  uint64_t HeapCellsAllocated = 0;
  /// JIT only: global cells this execution dirtied (page-granular; what
  /// the snapshot reset will restore before the next run). Always 0 on
  /// the reference interpreter — a bookkeeping observation, not part of
  /// the execution semantics or the identity contract.
  uint64_t DirtyGlobalCells = 0;

  bool crashed() const { return isCrash(TheFault.Kind); }
  bool hung() const { return TheFault.Kind == FaultKind::StepLimit; }

  /// Back to the default-constructed state, keeping the vectors'
  /// capacity (the Vm reuses one result across executions).
  void clear() {
    TheFault.Kind = FaultKind::None;
    TheFault.Func = TheFault.Block = TheFault.InstrIdx = 0;
    TheFault.Stack.clear();
    Steps = 0;
    ReturnValue = 0;
    ShadowEdges.clear();
    CmpOperands.clear();
    HeapAllocs = HeapCellsAllocated = DirtyGlobalCells = 0;
  }
};

/// Cumulative snapshot-reset accounting of one JIT Vm: how much of the
/// global image the persistent-mode reset actually had to restore.
struct ResetStats {
  uint64_t Resets = 0;          ///< dirty-page resets performed
  uint64_t DirtyPagesReset = 0; ///< pages restored from the pristine image
  uint64_t DirtyCellsReset = 0; ///< cells those pages span
};

/// Cumulative JIT-engine accounting of one Vm: how executions were
/// actually served while a compiled program was attached. Engine-local
/// bookkeeping (like ResetStats), never part of the identity contract.
struct JitRunStats {
  uint64_t Execs = 0;     ///< executions served by compiled code
  uint64_t Bailouts = 0;  ///< of those, exits through a bail stub
                          ///< (fault or step limit — terminal by design)
  uint64_t Fallbacks = 0; ///< executions the capacity guard routed to the
                          ///< reference interpreter instead
};

/// The execution engine: the reference interpreter, or compiled code once
/// a JIT program is attached. One Vm per module; run() reuses its
/// internal buffers, the result included, across executions, so a warm
/// Vm allocates nothing per execution.
class Vm {
public:
  /// Shadow may be null to disable shadow-edge recording entirely.
  Vm(const mir::Module &M, const instr::ShadowEdgeIndex *Shadow = nullptr);

  /// Execute @main on the given input. The result is owned by the Vm and
  /// valid until the next run() on it, which overwrites it in place;
  /// `ExecResult R = Vm.run(...)` keeps a copy.
  const ExecResult &run(const uint8_t *Input, size_t Len,
                        const ExecOptions &Opts,
                        FeedbackContext *Fb = nullptr);

  /// Attach the pre-decoded image a compiled program runs over (the JIT
  /// engine's input: PcInfo fault coordinates and the snapshot-reset
  /// pristine globals). On its own it changes nothing — run() keeps using
  /// the reference interpreter until attachJit. The image must have been
  /// built from the same module (and with a shadow index if this Vm has
  /// one); it is borrowed, not owned, and may be shared read-only across
  /// Vms. Pass null to detach (which also detaches the compiled program).
  void attachImage(const ProgramImage *Image);

  /// Attach a compiled native program (vm/jit/Jit.h): run() dispatches to
  /// the JIT engine (Run.cpp), which produces bit-identical results to
  /// the reference interpreter. Implies attachImage(J->image());
  /// executions the per-exec capacity guard rejects run on the reference
  /// interpreter transparently. Borrowed, not owned; pass null to detach
  /// (the image stays attached).
  void attachJit(const jit::JitProgram *J);
  bool usingJit() const { return Jp != nullptr; }

  /// JIT-engine accounting since the program was attached.
  const JitRunStats &jitRunStats() const { return JStats; }

  /// Snapshot-reset accounting since the image was attached.
  const ResetStats &resetStats() const { return RStats; }

  const mir::Module &module() const { return M; }

private:
  struct Frame {
    uint32_t Func = 0;
    uint32_t Block = 0;
    uint32_t InstrIdx = 0;
    uint32_t RegBase = 0; ///< offset into RegStack
    mir::Reg RetReg = 0;  ///< caller register receiving the return value
  };

  /// The reference interpreter; fills Res.
  void runInterp(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
                 FeedbackContext *Fb);

  /// The JIT engine (jit/Run.cpp); fills Res. Requires Jp; falls back to
  /// runInterp when the per-exec capacity guard rejects the options.
  void runJit(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
              FeedbackContext *Fb);

  /// Snapshot reset: restore the persistent globals prefix of
  /// Objects/Cells to the image's pristine state, touching only pages the
  /// previous execution dirtied.
  void resetGlobalsFromImage();

  const mir::Module &M;
  const instr::ShadowEdgeIndex *Shadow;
  int MainIndex = -1;
  /// Write-only line-flag sink for callers that pass a map but no flags.
  std::vector<uint8_t> ScratchLineFlags;

  // Reused per-execution state.
  ExecResult Res; ///< what run() returns; cleared in place per execution
  std::vector<int64_t> RegStack;
  std::vector<Frame> Frames;
  std::vector<HeapObject> Objects;
  std::vector<int64_t> Cells;
  std::vector<uint8_t> EdgeSeen; ///< shadow edges already in Res

  // Snapshot-reset state of the JIT engine (meaningful only while Jp is
  // attached; Img is its image).
  const ProgramImage *Img = nullptr;
  /// Whether the persistent globals prefix of Objects/Cells is live (set
  /// after the first JIT run materializes it).
  bool GlobalsLive = false;
  std::vector<uint8_t> DirtyPage;  ///< per 64-cell page of the globals
  std::vector<uint32_t> DirtyList; ///< pages dirtied by the last run
  ResetStats RStats;

  // Compiled-program state (meaningful only while Jp is attached). The
  // scratch vectors are pre-reserved flat buffers native code appends into with
  // pointer bumps; JitFrames holds jit::JitFrame records as raw bytes so
  // this header needs no jit types.
  const jit::JitProgram *Jp = nullptr;
  std::vector<uint8_t> JitFrames;
  std::vector<uint32_t> JitEdges;
  std::vector<uint32_t> JitDirty;
  JitRunStats JStats;
};

} // namespace vm
} // namespace pathfuzz

#endif // PATHFUZZ_VM_VM_H
