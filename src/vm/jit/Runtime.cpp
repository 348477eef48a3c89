//===- Runtime.cpp - out-of-line helpers for compiled code ----------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// The three operations compiled code calls out for instead of inlining
// (see Runtime.h for the ABI). Each replicates its reference-interpreter
// counterpart in Vm.cpp exactly — probe order, filters, hash constants —
// because these run on the identity-contract path.
//
//===----------------------------------------------------------------------===//

#include "vm/jit/Runtime.h"

#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "telemetry/Trace.h"

namespace pathfuzz {
namespace vm {
namespace jit {

extern "C" int64_t pfJitAlloc(JitState *S, int64_t Size) {
  // Injected heap exhaustion first, then the real limits — probe order
  // (and thus fault-site hit counting) must match the reference.
  if (pathfuzz::fault::enabled() &&
      pathfuzz::fault::shouldFail("vm.heap.alloc")) {
    if (S->Fb)
      PF_TRACE_EVENT(S->Fb->Trace, telemetry::EventKind::FaultInjected,
                     S->Fb->TraceExec,
                     static_cast<uint32_t>(telemetry::VmFaultSite::HeapAlloc),
                     static_cast<uint64_t>(Size < 0 ? 0 : Size));
    S->FaultKind = static_cast<uint32_t>(FaultKind::OutOfMemory);
    return 0;
  }
  if (Size < 0 || S->CellsN + static_cast<uint64_t>(Size) > S->HeapCellLimit ||
      S->NumObjs >= S->MaxObjects) {
    S->FaultKind = static_cast<uint32_t>(FaultKind::OutOfMemory);
    return 0;
  }
  HeapObject O;
  O.Size = static_cast<uint32_t>(Size);
  O.CellBase = static_cast<uint32_t>(S->CellsN);
  S->CellsVec->resize(S->CellsN + static_cast<size_t>(Size), 0);
  const int64_t Ptr = PtrBase + static_cast<int64_t>(S->NumObjs);
  S->ObjectsVec->push_back(O);
  // Growth may reallocate either vector; refresh the views native code
  // reads (it re-pins the cells base from S->Cells after this returns).
  S->Objects = S->ObjectsVec->data();
  S->NumObjs = S->ObjectsVec->size();
  S->Cells = S->CellsVec->data();
  S->CellsN = S->CellsVec->size();
  ++S->Result->HeapAllocs;
  S->Result->HeapCellsAllocated += static_cast<uint64_t>(Size);
  return Ptr;
}

extern "C" void pfJitLogCmp(JitState *S, int64_t L, int64_t Rv) {
  std::vector<int64_t> &Out = S->Result->CmpOperands;
  // The cap is checked once before appending *both* operands, exactly
  // like the reference's pre-call size test.
  if (Out.size() >= S->MaxCmpLog)
    return;
  if (L > 1 || L < -1)
    Out.push_back(L);
  if (Rv > 1 || Rv < -1)
    Out.push_back(Rv);
}

extern "C" void pfJitCallHash(JitState *S, uint32_t Callee) {
  S->CallHash = callHashStep(S->CallHash, Callee);
  const uint32_t Idx = static_cast<uint32_t>(S->CallHash) &
                       static_cast<uint32_t>(S->MapMask);
  const uint8_t V = static_cast<uint8_t>(S->Map[Idx] + 1);
  S->Map[Idx] = V ? V : 1;
  S->LineFlags[Idx >> cov::LineShift] = 1;
}

} // namespace jit
} // namespace vm
} // namespace pathfuzz
