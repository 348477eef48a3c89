//===- Run.cpp - Vm::runJit, the JIT engine wrapper ----------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The C++ side of a JIT execution: restore the globals from the image
// (the snapshot reset), pre-reserve the worst-case register stack and
// frame array (compiled code never grows them — that is the per-exec
// capacity guard's job to ensure), seed a JitState, enter the compiled
// function once, and rebuild the ExecResult with the reference
// interpreter's exact values:
//
//  - Steps falls out of the countdown: StepLimit - StepsRemaining, and a
//    step-limit trip leaves StepsRemaining at -1 so the unsigned wrap
//    yields StepLimit + 1 — the reference's post-increment count.
//  - Fault coordinates come from PcInfo at the recorded BailPC (already
//    advanced past a faulting slot, un-advanced for a step trip) and the
//    stack walk reads bytecode SavedPCs out of the JitFrame array with
//    the reference's exact loop shape.
//  - Shadow edges are copied from the flat scratch in the order compiled
//    code appended them — first traversal, the order the interpreter
//    records — without sorting; the EdgeSeen bitmap is re-cleared, and
//    the dirty-page list is adopted so the next snapshot reset restores
//    exactly the pages this run wrote.
//
// The result is the Vm's own ExecResult, cleared in place by Vm::run, so
// its vectors keep their capacity and a warm execution allocates nothing.
//
// The snapshot reset is the fork-server/persistent-mode analogue: globals
// are materialized once from the image's pristine copy and kept as a
// persistent prefix of Objects/Cells across executions; compiled stores
// into global cells mark 64-cell pages dirty, and the reset restores only
// those pages instead of reconstructing the world.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "vm/Image.h"
#include "vm/jit/Jit.h"
#include "vm/jit/Runtime.h"

#include <algorithm>

namespace pathfuzz {
namespace vm {

void Vm::resetGlobalsFromImage() {
  const ProgramImage &P = *Img;
  const uint64_t NumCells = P.globalCells();
  const uint32_t NumGlobals = P.numGlobals();

  if (!GlobalsLive) {
    // First run on this image: materialize the whole prefix.
    Objects.clear();
    Objects.reserve(NumGlobals);
    for (uint32_t G = 0; G < NumGlobals; ++G) {
      HeapObject O;
      O.Size = P.globalSizes()[G];
      O.CellBase = P.globalCellBases()[G];
      Objects.push_back(O);
    }
    Cells.assign(P.pristineGlobalCells().begin(),
                 P.pristineGlobalCells().end());
    DirtyPage.assign((NumCells + SnapshotPageCells - 1) >> SnapshotPageShift,
                     0);
    DirtyList.clear();
    GlobalsLive = true;
    return;
  }

  // Persistent-mode reset: drop the heap suffix, then restore only the
  // global pages the previous execution wrote. Global objects themselves
  // are immutable (Free on a global faults before setting Freed), so only
  // cells need restoring.
  Objects.resize(NumGlobals);
  Cells.resize(NumCells);
  ++RStats.Resets;
  const int64_t *Pristine = P.pristineGlobalCells().data();
  for (uint32_t Page : DirtyList) {
    const uint64_t Base = static_cast<uint64_t>(Page) << SnapshotPageShift;
    const uint64_t N = std::min<uint64_t>(SnapshotPageCells, NumCells - Base);
    std::copy(Pristine + Base, Pristine + Base + N, Cells.data() + Base);
    DirtyPage[Page] = 0;
    ++RStats.DirtyPagesReset;
    RStats.DirtyCellsReset += N;
  }
  DirtyList.clear();
}

void Vm::runJit(const uint8_t *Input, size_t Len, const ExecOptions &Opts,
                FeedbackContext *Fb) {
  const jit::JitProgram &J = *Jp;
  const ProgramImage &P = *Img;

  // Capacity guard: compiled code indexes the register stack and frame
  // array without bounds checks, so both are sized for the worst case up
  // front. Options that would make that reservation absurd (a pathological
  // MaxCallDepth) route this execution to the reference interpreter
  // instead — same results, no reservation. The interpreter drops the
  // persistent globals, so the next JIT run re-materializes them.
  const uint64_t MaxDepth = Opts.MaxCallDepth;
  const uint64_t WorstRegs =
      (MaxDepth + 1) * static_cast<uint64_t>(J.maxFrameRegs()) + 8;
  if (MaxDepth > (uint64_t(1) << 20) || WorstRegs > (uint64_t(1) << 22)) {
    ++JStats.Fallbacks;
    runInterp(Input, Len, Opts, Fb);
    return;
  }

  ExecResult &R = Res;
  resetGlobalsFromImage();

  if (RegStack.size() < WorstRegs)
    RegStack.resize(WorstRegs);
  const size_t FrameBytes =
      static_cast<size_t>(MaxDepth + 1) * sizeof(jit::JitFrame);
  if (JitFrames.size() < FrameBytes)
    JitFrames.resize(FrameBytes);
  const bool RecordEdges = Opts.RecordShadowEdges && Shadow;
  if (RecordEdges && JitEdges.size() < Shadow->numEdges())
    JitEdges.resize(Shadow->numEdges());
  if (JitDirty.size() < DirtyPage.size())
    JitDirty.resize(DirtyPage.size());

  jit::JitFrame *FramesP = reinterpret_cast<jit::JitFrame *>(JitFrames.data());
  const ImageFunc &MainF = P.funcs()[P.mainIndex()];

  // Frame 0 = @main, exactly as the reference pushFrame does it (its
  // NativeRet and SavedPC are dead: Ret from frame 0 exits, and the fault
  // walk never reads the innermost frame's SavedPC).
  FramesP[0] = jit::JitFrame{};
  std::fill_n(RegStack.data(), MainF.NumRegs, 0);
  if (MainF.HasPathReg)
    RegStack[MainF.PathReg] = MainF.PathRegInit;

  const bool DoCallHash = Fb && Fb->CallPathHash && Fb->Map;

  jit::JitState S;
  S.RegStack = RegStack.data();
  S.Frames = FramesP;
  S.FrameTop = 1;
  S.RegTop = MainF.NumRegs;
  S.Objects = Objects.data();
  S.NumObjs = Objects.size();
  S.Cells = Cells.data();
  S.CellsN = Cells.size();
  S.Map = Fb ? Fb->Map : nullptr;
  S.MapMask = Fb ? Fb->MapMask : 0;
  S.LineFlags = Fb ? Fb->LineFlags : nullptr;
  S.PrevLoc = 0;
  S.CallHash = CallHashSeed;
  S.Input = Input;
  S.Len = Len;
  S.StepsRemaining = Opts.StepLimit;
  S.MaxCallDepth = MaxDepth;
  S.FuncKeys = Fb ? Fb->FuncKeys : nullptr;
  S.EdgeSeen = EdgeSeen.data();
  S.EdgeTouched = JitEdges.data();
  S.EdgeTouchedN = 0;
  S.DirtyPage = DirtyPage.data();
  S.DirtyList = JitDirty.data();
  S.DirtyN = 0;
  S.NumGlobalCells = P.globalCells();
  S.NumGlobals = P.numGlobals();
  S.FlagLogCmps = Opts.LogCmps ? 1 : 0;
  S.FlagRecordEdges = RecordEdges ? 1 : 0;
  S.FlagDoCallHash = DoCallHash ? 1 : 0;
  S.ObjectsVec = &Objects;
  S.CellsVec = &Cells;
  S.Result = &R;
  S.Fb = Fb;
  S.HeapCellLimit = Opts.HeapCellLimit;
  S.MaxObjects = Opts.MaxObjects;
  S.MaxCmpLog = Opts.MaxCmpLog;

  J.entry()(&S);
  ++JStats.Execs;

  // Steps executed: the countdown wraps to -1 on a step-limit trip, so
  // the subtraction reproduces the reference's StepLimit + 1 there too.
  R.Steps = Opts.StepLimit - S.StepsRemaining;
  R.ReturnValue = S.RetVal;

  const FaultKind Fk = static_cast<FaultKind>(S.FaultKind);
  if (Fk != FaultKind::None) {
    ++JStats.Bailouts;
    const PcInfo *const Pcs = P.pcInfo();
    R.TheFault.Kind = Fk;
    const PcInfo &FP = Pcs[S.BailPC];
    R.TheFault.Func = FP.Func;
    R.TheFault.Block = FP.Block;
    R.TheFault.InstrIdx = FP.Norm;
    R.TheFault.Stack.push_back({FP.Func, FP.Block, FP.Norm});
    for (uint64_t K = S.FrameTop - 1; K-- > 0;) {
      const PcInfo &CP = Pcs[FramesP[K].SavedPC];
      R.TheFault.Stack.push_back({CP.Func, CP.Block, CP.Norm});
    }
  }

  if (RecordEdges) {
    R.ShadowEdges.assign(JitEdges.begin(), JitEdges.begin() + S.EdgeTouchedN);
    for (uint64_t I = 0; I < S.EdgeTouchedN; ++I)
      EdgeSeen[JitEdges[I]] = 0;
  }
  // Adopt the dirty-page list so resetGlobalsFromImage restores exactly
  // these pages before the next run.
  DirtyList.assign(JitDirty.begin(), JitDirty.begin() + S.DirtyN);
  uint64_t Dirty = 0;
  for (uint32_t Page : DirtyList) {
    const uint64_t Base = static_cast<uint64_t>(Page) << SnapshotPageShift;
    Dirty += std::min<uint64_t>(SnapshotPageCells, S.NumGlobalCells - Base);
  }
  R.DirtyGlobalCells = Dirty;
}

} // namespace vm
} // namespace pathfuzz
