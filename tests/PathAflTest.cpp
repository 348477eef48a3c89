//===- PathAflTest.cpp - PathAFL comparator -------------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "cov/CoverageMap.h"
#include "instrument/Instrument.h"
#include "lang/Compile.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <set>

using namespace pathfuzz;

namespace {

/// A module whose main dispatches between two call orders; used to check
/// the call-path hashing observes orderings.
const char *CallOrderSrc = R"ml(
fn a(x) { return x + 1; }
fn b(x) { return x + 2; }
fn c(x) { return x + 3; }
fn d(x) { return x + 4; }
fn e(x) { return x + 5; }
fn f(x) { return x + 6; }
fn g(x) { return x + 7; }
fn main() {
  if (in(0) == 1) {
    return a(b(c(d(e(f(g(0)))))));
  }
  return g(f(e(d(c(b(a(0)))))));
}
)ml";

TEST(PathAfl, SelectionPicksASubsetOfFunctions) {
  unsigned Selected = 0;
  for (uint32_t F = 0; F < 64; ++F)
    Selected += vm::callHashSelected(F);
  EXPECT_GT(Selected, 4u);  // partial...
  EXPECT_LT(Selected, 40u); // ...but not full instrumentation
}

TEST(PathAfl, CallPathHashDistinguishesCallOrders) {
  lang::CompileResult CR = lang::compileSource(CallOrderSrc, "order");
  ASSERT_TRUE(CR.ok()) << CR.message();
  mir::Module M = std::move(*CR.Mod);
  instr::InstrumentOptions IO;
  IO.Mode = instr::Feedback::EdgeClassic;
  instr::InstrumentReport Rep = instr::instrumentModule(M, IO);

  vm::Vm Machine(M);
  vm::ExecOptions EO;

  auto touched = [&](uint8_t First) {
    cov::CoverageMap Map(16);
    vm::FeedbackContext Fb;
    Fb.Map = Map.data();
    Fb.MapMask = Map.mask();
    Fb.FuncKeys = Rep.FuncKeys.data();
    Fb.CallPathHash = true;
    uint8_t In[1] = {First};
    Machine.run(In, 1, EO, &Fb);
    std::set<uint32_t> Idx;
    for (uint32_t I = 0; I < Map.size(); ++I)
      if (Map.data()[I])
        Idx.insert(I);
    return Idx;
  };

  std::set<uint32_t> OrderA = touched(1);
  std::set<uint32_t> OrderB = touched(0);
  // Different call orders must produce (at least partially) different
  // hash entries beyond the shared block coverage.
  EXPECT_NE(OrderA, OrderB);
}

TEST(PathAfl, HashStepMatchesVmConstants) {
  // The one definition the interpreter and the JIT runtime both call.
  uint64_t H = vm::CallHashSeed;
  uint64_t H1 = vm::callHashStep(H, 3);
  uint64_t H2 = vm::callHashStep(H, 4);
  EXPECT_NE(H1, H2);
  EXPECT_EQ(vm::callHashStep(H, 3), H1);
  EXPECT_EQ(H, 0x50a7af1dULL);
}

} // namespace
