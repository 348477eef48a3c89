//===- Image.cpp - MIR -> flat program image decoder --------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "vm/Image.h"

#include "instrument/ShadowEdges.h"
#include "support/Env.h"
#include "vm/Vm.h"
#include "vm/jit/Jit.h"

#include <cassert>

namespace pathfuzz {
namespace vm {

namespace {

/// Whether Mode names the JIT, with Auto resolved through
/// PATHFUZZ_VM_ENGINE ("interp" or "jit"; unset or anything else means
/// jit). Re-read on every Auto query (not once into a static): it is
/// consulted once per instrumented build, and tests flip the knob at
/// runtime to pit the engines against each other.
bool wantsJit(VmExecMode Mode) {
  if (Mode != VmExecMode::Auto)
    return Mode == VmExecMode::Jit;
  return envStr("PATHFUZZ_VM_ENGINE", "jit") != "interp";
}

} // namespace

bool jitEnabled(VmExecMode Mode) { return wantsJit(Mode) && jit::available(); }

bool fastPathEnabled(VmExecMode Mode) { return jitEnabled(Mode); }

ProgramImage ProgramImage::build(const mir::Module &M,
                                 const instr::ShadowEdgeIndex *Shadow) {
  ProgramImage P;
  P.Src = &M;
  P.HasShadow = Shadow != nullptr;

  int Main = M.findFunction("main");
  assert(Main >= 0 && "module has no @main");
  P.MainIndex = static_cast<uint32_t>(Main);

  // Pass 1: lay out PCs. Each block contributes one slot per instruction
  // plus one terminator slot, in block order, functions concatenated; a PC
  // is an index into Code. BlockPC[f] maps block index -> first PC.
  std::vector<std::vector<uint32_t>> BlockPC(M.Funcs.size());
  uint32_t NextPC = 0;
  for (size_t F = 0; F < M.Funcs.size(); ++F) {
    const mir::Function &Fn = M.Funcs[F];
    ImageFunc IF;
    IF.NumRegs = Fn.NumRegs;
    IF.PathReg = Fn.PathReg;
    IF.HasPathReg = Fn.HasPathReg;
    IF.PathRegInit = Fn.PathRegInit;
    BlockPC[F].reserve(Fn.Blocks.size());
    for (const mir::BasicBlock &BB : Fn.Blocks) {
      BlockPC[F].push_back(NextPC);
      NextPC += static_cast<uint32_t>(BB.Instrs.size()) + 1;
    }
    IF.EntryPC = BlockPC[F].empty() ? NextPC : BlockPC[F][0];
    P.Funcs.push_back(IF);
  }
  P.Code.reserve(NextPC);
  P.Pc.reserve(NextPC);

  // Pass 2: decode. Every slot also gets its PcInfo: the reference
  // interpreter's (function, block, probe-free index) for a frame whose
  // InstrIdx names this slot. The JIT reads PcInfo at the *current*
  // (already advanced) PC on a fault, which lands on the slot after the
  // faulting instruction — in the same block, with a Norm that includes
  // the faulting instruction — reproducing Vm.cpp's normalizedIdx() over
  // its post-increment InstrIdx exactly. The pending-slot PC at a step
  // limit needs no adjustment either: Norm of the pending slot counts only
  // the instructions already retired.
  auto edgeIdOf = [&](uint32_t F, uint32_t B, uint32_t Slot) -> uint32_t {
    return Shadow ? Shadow->edgeId(F, B, Slot) : UINT32_MAX;
  };
  for (size_t F = 0; F < M.Funcs.size(); ++F) {
    const mir::Function &Fn = M.Funcs[F];
    for (size_t B = 0; B < Fn.Blocks.size(); ++B) {
      const mir::BasicBlock &BB = Fn.Blocks[B];
      uint32_t Norm = 0;
      for (size_t InstrIdx = 0; InstrIdx < BB.Instrs.size(); ++InstrIdx) {
        const mir::Instr &In = BB.Instrs[InstrIdx];
        DInstr D;
        P.Pc.push_back({static_cast<uint32_t>(F), static_cast<uint32_t>(B),
                        Norm});
        Norm += !In.isProbe();
        D.BOp = In.BOp;
        D.A = In.A;
        D.B = In.B;
        D.C = In.C;
        D.Imm = In.Imm;
        switch (In.Op) {
        case mir::Opcode::Const:
          D.Op = DOp::Const;
          break;
        case mir::Opcode::Move:
          D.Op = DOp::Move;
          break;
        case mir::Opcode::Bin:
          D.Op = DOp::Bin;
          break;
        case mir::Opcode::BinImm:
          D.Op = DOp::BinImm;
          break;
        case mir::Opcode::Neg:
          D.Op = DOp::Neg;
          break;
        case mir::Opcode::Not:
          D.Op = DOp::Not;
          break;
        case mir::Opcode::InLen:
          D.Op = DOp::InLen;
          break;
        case mir::Opcode::InByte:
          D.Op = DOp::InByte;
          break;
        case mir::Opcode::Alloc:
          D.Op = DOp::Alloc;
          break;
        case mir::Opcode::GlobalAddr:
          D.Op = DOp::GlobalAddr;
          break;
        case mir::Opcode::Load:
          D.Op = DOp::Load;
          break;
        case mir::Opcode::Store:
          D.Op = DOp::Store;
          break;
        case mir::Opcode::Free:
          D.Op = DOp::Free;
          break;
        case mir::Opcode::Abort:
          D.Op = DOp::Abort;
          break;
        case mir::Opcode::Call: {
          D.Op = DOp::Call;
          D.NumArgs = In.NumArgs;
          D.B = In.NumArgs > 0 ? In.Args[0] : 0;
          D.C = In.NumArgs > 1 ? In.Args[1] : 0;
          uint64_t Packed = 0;
          for (unsigned K = 2; K < In.NumArgs; ++K)
            Packed |= static_cast<uint64_t>(In.Args[K]) << ((K - 2) * 16);
          D.Imm = static_cast<int64_t>(Packed);
          D.X = P.Funcs[In.Callee].EntryPC;
          D.Y = In.Callee;
          // The PathAFL "is this callee selected" hash depends only on the
          // callee index; fold it to a flag bit.
          if (callHashSelected(In.Callee))
            D.Flags |= DInstr::FlagCallSelected;
          break;
        }
        case mir::Opcode::EdgeProbe:
          D.Op = DOp::EdgeProbe;
          break;
        case mir::Opcode::BlockProbe:
          D.Op = DOp::BlockProbe;
          break;
        case mir::Opcode::PathAdd:
          // The reference executes against Fn.PathReg, not the probe's own
          // register field; resolve it here.
          D.Op = DOp::PathAdd;
          D.A = Fn.PathReg;
          break;
        case mir::Opcode::PathFlushRet:
          D.Op = DOp::PathFlushRet;
          D.A = Fn.PathReg;
          D.Y = static_cast<uint32_t>(F);
          break;
        case mir::Opcode::PathFlushBack:
          D.Op = DOp::PathFlushBack;
          D.A = Fn.PathReg;
          D.Y = static_cast<uint32_t>(F);
          D.X = static_cast<uint32_t>(P.Pool.size());
          P.Pool.push_back(In.Imm2);
          break;
        }
        P.Code.push_back(D);
      }

      // Terminator slot.
      const mir::Terminator &T = BB.Term;
      P.Pc.push_back({static_cast<uint32_t>(F), static_cast<uint32_t>(B),
                      Norm});
      DInstr D;
      switch (T.Kind) {
      case mir::TermKind::Br:
        D.Op = DOp::Br;
        D.X = BlockPC[F][T.Succs[0]];
        D.Y = edgeIdOf(static_cast<uint32_t>(F), static_cast<uint32_t>(B), 0);
        break;
      case mir::TermKind::CondBr: {
        D.Op = DOp::CondBr;
        D.A = T.Cond;
        D.X = BlockPC[F][T.Succs[0]];
        D.Y = BlockPC[F][T.Succs[1]];
        uint64_t Taken =
            edgeIdOf(static_cast<uint32_t>(F), static_cast<uint32_t>(B), 0);
        uint64_t NotTaken =
            edgeIdOf(static_cast<uint32_t>(F), static_cast<uint32_t>(B), 1);
        D.Imm = static_cast<int64_t>(Taken | (NotTaken << 32));
        break;
      }
      case mir::TermKind::Switch: {
        D.Op = DOp::Switch;
        D.A = T.Cond;
        D.X = static_cast<uint32_t>(P.SuccPool.size());
        D.Y = static_cast<uint32_t>(T.Succs.size());
        D.Imm = static_cast<int64_t>(P.Pool.size());
        for (uint32_t S = 0; S < T.Succs.size(); ++S)
          P.SuccPool.push_back(
              {BlockPC[F][T.Succs[S]],
               edgeIdOf(static_cast<uint32_t>(F), static_cast<uint32_t>(B),
                        S)});
        for (uint32_t K = 0; K + 1 < T.Succs.size(); ++K)
          P.Pool.push_back(T.CaseValues[K]);
        break;
      }
      case mir::TermKind::Ret:
        D.Op = DOp::Ret;
        D.A = T.Cond;
        break;
      }
      P.Code.push_back(D);
    }
  }
  assert(P.Code.size() == NextPC && P.Pc.size() == NextPC &&
         "layout / decode disagree on slot count");

  // Globals: materialize the pristine cell image once, exactly as the
  // reference interpreter does per execution (Init prefix, zero tail).
  P.NumGlobals = static_cast<uint32_t>(M.Globals.size());
  for (const mir::Global &G : M.Globals) {
    P.GlobalBases.push_back(static_cast<uint32_t>(P.Pristine.size()));
    P.GlobalSizes.push_back(G.Size);
    size_t Base = P.Pristine.size();
    P.Pristine.resize(Base + G.Size, 0);
    for (size_t I = 0; I < G.Init.size() && I < G.Size; ++I)
      P.Pristine[Base + I] = G.Init[I];
  }
  P.GlobalCellsTotal = P.Pristine.size();
  return P;
}

uint64_t ProgramImage::byteSize() const {
  return Code.size() * sizeof(DInstr) + Pc.size() * sizeof(PcInfo) +
         Funcs.size() * sizeof(ImageFunc) + SuccPool.size() * sizeof(SuccEntry) +
         Pool.size() * sizeof(int64_t) + Pristine.size() * sizeof(int64_t) +
         (GlobalSizes.size() + GlobalBases.size()) * sizeof(uint32_t);
}

} // namespace vm
} // namespace pathfuzz
