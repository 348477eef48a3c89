//===- TestUtil.h - Shared test helpers -------------------------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_TESTS_TESTUTIL_H
#define PATHFUZZ_TESTS_TESTUTIL_H

#include "cov/CoverageMap.h"
#include "fuzz/Fuzzer.h"
#include "mir/Builder.h"
#include "mir/Mir.h"
#include "strategy/BuildCache.h"
#include "support/Rng.h"
#include "vm/Vm.h"

#include <string>
#include <vector>

namespace pathfuzz {
namespace test {

/// Generate a random but well-formed register-only function: Const /
/// BinImm / InByte / InLen instructions, Br / CondBr / Switch / Ret
/// terminators. No memory ops, so execution either returns or hits the
/// step limit — ideal for semantics-preservation and Ball-Larus property
/// tests on arbitrary CFG shapes (including loops and unreachable
/// blocks).
inline mir::Function randomFunction(Rng &R, unsigned MaxBlocks = 12) {
  unsigned NumBlocks = 2 + static_cast<unsigned>(R.below(MaxBlocks - 1));
  mir::FunctionBuilder FB("random", /*NumParams=*/1);

  // Pre-create the blocks so terminators can target any of them.
  std::vector<uint32_t> Blocks;
  Blocks.push_back(0);
  for (unsigned I = 1; I < NumBlocks; ++I)
    Blocks.push_back(FB.newBlock());

  // A pool of registers written before use.
  std::vector<mir::Reg> Pool = {0};

  for (unsigned B = 0; B < NumBlocks; ++B) {
    FB.setInsertPoint(Blocks[B]);
    unsigned NumInstrs = static_cast<unsigned>(R.below(4));
    for (unsigned I = 0; I < NumInstrs; ++I) {
      switch (R.below(4)) {
      case 0:
        Pool.push_back(FB.emitConst(R.range(-8, 200)));
        break;
      case 1:
        Pool.push_back(FB.emitBinImm(
            static_cast<mir::BinOp>(R.below(3)), // Add/Sub/Mul
            Pool[R.index(Pool.size())], R.range(-3, 3)));
        break;
      case 2:
        Pool.push_back(FB.emitInByte(Pool[R.index(Pool.size())]));
        break;
      case 3:
        Pool.push_back(FB.emitInLen());
        break;
      }
    }
    // Terminator: bias towards forward control flow so most blocks are
    // reachable, but allow arbitrary targets (back edges, self loops).
    uint32_t T1 = Blocks[R.index(NumBlocks)];
    uint32_t T2 = Blocks[R.index(NumBlocks)];
    switch (R.below(8)) {
    case 0:
    case 1:
      FB.setRet(Pool[R.index(Pool.size())]);
      break;
    case 2:
      FB.setBr(T1);
      break;
    case 3: {
      std::vector<int64_t> Cases = {R.range(0, 4), R.range(5, 9)};
      std::vector<uint32_t> Targets = {T1, T2};
      FB.setSwitch(Pool[R.index(Pool.size())], Cases, Targets,
                   Blocks[R.index(NumBlocks)]);
      break;
    }
    default:
      FB.setCondBr(Pool[R.index(Pool.size())], T1, T2);
      break;
    }
  }
  return FB.take();
}

/// Wrap a function into a module whose main calls it once.
inline mir::Module moduleWith(mir::Function F) {
  mir::Module M;
  M.Name = "test";
  F.Name = "callee";
  M.Funcs.push_back(std::move(F));

  mir::FunctionBuilder Main("main", 0);
  mir::Reg Arg = Main.emitInLen();
  mir::Reg Ret = Main.emitCall(0, {Arg});
  Main.setRet(Ret);
  M.Funcs.push_back(Main.take());
  return M;
}

/// The line-flag oracle for one engine: run every input on Machine with
/// a fresh 2^MapSizeLog2 map and its line flags attached, and check that
/// the flagged lines are exactly the lines holding a nonzero byte.
/// Returns a description of the first execution that disagrees, or an
/// empty string when all of them agree.
inline std::string
lineFlagMismatch(vm::Vm &Machine,
                 const std::vector<std::vector<uint8_t>> &Inputs,
                 uint32_t MapSizeLog2, const uint64_t *FuncKeys,
                 bool CallPathHash) {
  cov::CoverageMap Map(MapSizeLog2);
  for (size_t K = 0; K < Inputs.size(); ++K) {
    Map.reset();
    vm::FeedbackContext Fb;
    Fb.Map = Map.data();
    Fb.MapMask = Map.mask();
    Fb.LineFlags = Map.lineFlags();
    Fb.FuncKeys = FuncKeys;
    Fb.CallPathHash = CallPathHash;
    vm::ExecOptions EO;
    EO.StepLimit = 200000;
    (void)Machine.run(Inputs[K].data(), Inputs[K].size(), EO, &Fb);
    Map.collectTouched();
    std::vector<uint32_t> Nonzero;
    for (uint32_t L = 0; L < Map.numLines(); ++L)
      for (uint32_t I = L * cov::LineBytes; I < (L + 1) * cov::LineBytes; ++I)
        if (Map.data()[I]) {
          Nonzero.push_back(L);
          break;
        }
    if (Map.touchedLines() != Nonzero)
      return "input " + std::to_string(K) + ": " +
             std::to_string(Map.touchedLines().size()) + " lines flagged, " +
             std::to_string(Nonzero.size()) + " lines nonzero";
  }
  return "";
}

/// Fuzzer::snapshot() of a fresh instance on SB's Mode build with the
/// subject's seeds added: the state a campaign phase starts from. Tests
/// that build checkpoint frames by hand wrap it.
inline std::vector<uint8_t>
freshSnapshot(strategy::SubjectBuild &SB, instr::Feedback Mode,
              const strategy::CampaignOptions &Opts) {
  const strategy::InstrumentedBuild &B = SB.instrumented(Mode, Opts);
  fuzz::FuzzerOptions FO;
  FO.MapSizeLog2 = Opts.MapSizeLog2;
  fuzz::Fuzzer F(B.Mod, B.Report, SB.shadow(), FO);
  for (const fuzz::Input &Seed : SB.subject().Seeds)
    F.addSeed(Seed);
  return F.snapshot();
}

} // namespace test
} // namespace pathfuzz

#endif // PATHFUZZ_TESTS_TESTUTIL_H
