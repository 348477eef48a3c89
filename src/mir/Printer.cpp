//===- Printer.cpp - Textual dump of MIR ------------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "mir/Printer.h"

namespace pathfuzz {
namespace mir {

const char *opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Const:
    return "const";
  case Opcode::Move:
    return "move";
  case Opcode::Bin:
    return "bin";
  case Opcode::BinImm:
    return "binimm";
  case Opcode::Neg:
    return "neg";
  case Opcode::Not:
    return "not";
  case Opcode::InLen:
    return "inlen";
  case Opcode::InByte:
    return "inbyte";
  case Opcode::Alloc:
    return "alloc";
  case Opcode::GlobalAddr:
    return "gaddr";
  case Opcode::Load:
    return "load";
  case Opcode::Call:
    return "call";
  case Opcode::Store:
    return "store";
  case Opcode::Free:
    return "free";
  case Opcode::Abort:
    return "abort";
  case Opcode::EdgeProbe:
    return "edge.probe";
  case Opcode::BlockProbe:
    return "block.probe";
  case Opcode::PathAdd:
    return "path.add";
  case Opcode::PathFlushRet:
    return "path.flush.ret";
  case Opcode::PathFlushBack:
    return "path.flush.back";
  }
  return "<bad-op>";
}

const char *binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "add";
  case BinOp::Sub:
    return "sub";
  case BinOp::Mul:
    return "mul";
  case BinOp::Div:
    return "div";
  case BinOp::Rem:
    return "rem";
  case BinOp::And:
    return "and";
  case BinOp::Or:
    return "or";
  case BinOp::Xor:
    return "xor";
  case BinOp::Shl:
    return "shl";
  case BinOp::Shr:
    return "shr";
  case BinOp::Eq:
    return "eq";
  case BinOp::Ne:
    return "ne";
  case BinOp::Lt:
    return "lt";
  case BinOp::Le:
    return "le";
  case BinOp::Gt:
    return "gt";
  case BinOp::Ge:
    return "ge";
  }
  return "<bad-binop>";
}

static std::string reg(Reg R) {
  // Append rather than `"r" + std::to_string(R)`: the prepending insert
  // trips GCC 12's -Wrestrict false positive at -O3.
  std::string S = "r";
  S += std::to_string(R);
  return S;
}

std::string printInstr(const Instr &I, const Module *M) {
  std::string S;
  switch (I.Op) {
  case Opcode::Const:
    S = reg(I.A) + " = const " + std::to_string(I.Imm);
    break;
  case Opcode::Move:
    S = reg(I.A) + " = move " + reg(I.B);
    break;
  case Opcode::Bin:
    S = reg(I.A) + " = " + binOpName(I.BOp) + " " + reg(I.B) + ", " + reg(I.C);
    break;
  case Opcode::BinImm:
    S = reg(I.A) + " = " + binOpName(I.BOp) + " " + reg(I.B) + ", " +
        std::to_string(I.Imm);
    break;
  case Opcode::Neg:
    S = reg(I.A) + " = neg " + reg(I.B);
    break;
  case Opcode::Not:
    S = reg(I.A) + " = not " + reg(I.B);
    break;
  case Opcode::InLen:
    S = reg(I.A) + " = inlen";
    break;
  case Opcode::InByte:
    S = reg(I.A) + " = inbyte " + reg(I.B);
    break;
  case Opcode::Alloc:
    S = reg(I.A) + " = alloc " + reg(I.B);
    break;
  case Opcode::GlobalAddr:
    S = reg(I.A) + " = gaddr @" + std::to_string(I.Imm);
    if (M && I.Imm >= 0 && static_cast<size_t>(I.Imm) < M->Globals.size())
      S += " ; " + M->Globals[static_cast<size_t>(I.Imm)].Name;
    break;
  case Opcode::Load:
    S = reg(I.A) + " = load " + reg(I.B) + "[" + reg(I.C) + "]";
    break;
  case Opcode::Call: {
    S = reg(I.A) + " = call ";
    if (M && I.Callee < M->Funcs.size())
      S += "@" + M->Funcs[I.Callee].Name;
    else
      S += '#' + std::to_string(I.Callee);
    S += "(";
    for (unsigned K = 0; K < I.NumArgs; ++K) {
      if (K)
        S += ", ";
      S += reg(I.Args[K]);
    }
    S += ")";
    break;
  }
  case Opcode::Store:
    S = "store " + reg(I.A) + "[" + reg(I.B) + "] = " + reg(I.C);
    break;
  case Opcode::Free:
    S = "free " + reg(I.A);
    break;
  case Opcode::Abort:
    S = "abort #" + std::to_string(I.Imm);
    break;
  case Opcode::EdgeProbe:
    S = "edge.probe " + std::to_string(I.Imm);
    break;
  case Opcode::BlockProbe:
    S = "block.probe " + std::to_string(I.Imm);
    break;
  case Opcode::PathAdd:
    S = "path.add " + std::to_string(I.Imm);
    break;
  case Opcode::PathFlushRet:
    S = "path.flush.ret +" + std::to_string(I.Imm);
    break;
  case Opcode::PathFlushBack:
    S = "path.flush.back +" + std::to_string(I.Imm) + ", reset " +
        std::to_string(I.Imm2);
    break;
  }
  return S;
}

std::string printTerminator(const Terminator &T, const Function &F) {
  auto BlockName = [&](uint32_t Index) {
    if (Index < F.Blocks.size())
      return F.Blocks[Index].Name;
    return std::string("<bad-block-") + std::to_string(Index) + ">";
  };
  switch (T.Kind) {
  case TermKind::Br:
    return "br " + BlockName(T.Succs[0]);
  case TermKind::CondBr:
    return "condbr " + reg(T.Cond) + ", " + BlockName(T.Succs[0]) + ", " +
           BlockName(T.Succs[1]);
  case TermKind::Switch: {
    std::string S = "switch " + reg(T.Cond) + " [";
    for (size_t K = 0; K + 1 < T.Succs.size(); ++K) {
      if (K)
        S += ", ";
      S += std::to_string(T.CaseValues[K]) + " -> " + BlockName(T.Succs[K]);
    }
    S += "] default " + BlockName(T.Succs.back());
    return S;
  }
  case TermKind::Ret:
    return "ret " + reg(T.Cond);
  }
  return "<bad-term>";
}

std::string printFunction(const Function &F, const Module *M) {
  std::string S = "func @" + F.Name + "(" + std::to_string(F.NumParams) +
                  ") regs=" + std::to_string(F.NumRegs);
  if (F.HasPathReg)
    S += " ; pathreg r" + std::to_string(F.PathReg) + " init " +
         std::to_string(F.PathRegInit);
  S += " {\n";

  // CFG edge IDs in the canonical (block, slot) enumeration — the same
  // numbering cfg::CfgView assigns, recomputed here so the printer stays
  // free of a cfg dependency. The annotation lets probe constants in a
  // dump be matched against a probe plan's CfgEdgeIndex values by eye.
  std::vector<uint32_t> EdgeBase(F.Blocks.size() + 1, 0);
  for (uint32_t B = 0; B < F.Blocks.size(); ++B)
    EdgeBase[B + 1] = EdgeBase[B] + F.Blocks[B].Term.numSuccessors();

  for (uint32_t B = 0; B < F.Blocks.size(); ++B) {
    const BasicBlock &BB = F.Blocks[B];
    S += BB.Name + ":";
    if (BB.Term.numSuccessors() > 0) {
      S += " ; edges";
      for (uint32_t Slot = 0; Slot < BB.Term.numSuccessors(); ++Slot) {
        uint32_t Succ = BB.Term.Succs[Slot];
        S += " #" + std::to_string(EdgeBase[B] + Slot) + "->" +
             (Succ < F.Blocks.size() ? F.Blocks[Succ].Name
                                     : "<bad-block-" + std::to_string(Succ) +
                                           ">");
      }
    }
    S += "\n";
    for (const Instr &I : BB.Instrs)
      S += "  " + printInstr(I, M) + "\n";
    S += "  " + printTerminator(BB.Term, F) + "\n";
  }
  S += "}\n";
  return S;
}

std::string printModule(const Module &M) {
  std::string S = "; module " + M.Name + "\n";
  for (const auto &G : M.Globals)
    S += "global @" + G.Name + "[" + std::to_string(G.Size) + "]\n";
  for (const auto &F : M.Funcs)
    S += printFunction(F, &M);
  return S;
}

} // namespace mir
} // namespace pathfuzz
