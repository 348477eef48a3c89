//===- VmTest.cpp - VM semantics and memory-safety checking -------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "vm/Vm.h"

#include "lang/Compile.h"
#include "vm/Image.h"
#include "vm/jit/Jit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

using namespace pathfuzz;
using namespace pathfuzz::vm;

namespace {

mir::Module compile(const char *Src) {
  lang::CompileResult CR = lang::compileSource(Src, "t");
  EXPECT_TRUE(CR.ok()) << CR.message();
  return std::move(*CR.Mod);
}

ExecResult run(const mir::Module &M, const std::vector<uint8_t> &In = {},
               uint64_t StepLimit = 100000) {
  Vm Machine(M);
  ExecOptions EO;
  EO.StepLimit = StepLimit;
  return Machine.run(In.data(), In.size(), EO, nullptr);
}

TEST(Vm, ReturnsMainValue) {
  mir::Module M = compile("fn main() { return 41 + 1; }");
  EXPECT_EQ(run(M).ReturnValue, 42);
}

TEST(Vm, ArithmeticSemantics) {
  mir::Module M = compile(R"ml(
fn main() {
  var a = 7 / 2;
  var b = -7 / 2;
  var c = 7 % 3;
  var d = -7 % 3;
  var e = 1 << 10;
  var f = -16 >> 2;
  return a * 1000000 + (b + 10) * 10000 + c * 1000 + (d + 10) * 100
       + (e / 128) * 10 + (f + 10);
}
)ml");
  // a=3 b=-3 c=1 d=-1 e=1024 f=-4: 3 * 1e6 + 7*1e4 + 1000 + 900 + 80 + 6
  EXPECT_EQ(run(M).ReturnValue, 3071986);
}

TEST(Vm, DivByZeroFaults) {
  mir::Module M = compile("fn main() { return 1 / (len() - len()); }");
  ExecResult R = run(M);
  EXPECT_TRUE(R.crashed());
  EXPECT_EQ(R.TheFault.Kind, FaultKind::DivByZero);
}

TEST(Vm, HeapOobWriteFaults) {
  mir::Module M = compile(R"ml(
fn main() {
  var a[4];
  a[len()] = 1;   // OOB when input length >= 4
  return a[0];
}
)ml");
  EXPECT_FALSE(run(M, {1, 2, 3}).crashed());
  ExecResult R = run(M, {1, 2, 3, 4});
  EXPECT_TRUE(R.crashed());
  EXPECT_EQ(R.TheFault.Kind, FaultKind::OobWrite);
}

TEST(Vm, HeapOobReadAndNegativeIndexFault) {
  mir::Module M = compile(R"ml(
fn main() {
  var a[4];
  return a[0 - 1 - len()];
}
)ml");
  ExecResult R = run(M);
  EXPECT_EQ(R.TheFault.Kind, FaultKind::OobRead);
}

TEST(Vm, UseAfterFreeAndDoubleFree) {
  mir::Module UAF = compile(R"ml(
fn main() {
  var a[4];
  free(a);
  return a[0];
}
)ml");
  EXPECT_EQ(run(UAF).TheFault.Kind, FaultKind::UseAfterFree);

  mir::Module DF = compile(R"ml(
fn main() {
  var a[4];
  free(a);
  free(a);
  return 0;
}
)ml");
  EXPECT_EQ(run(DF).TheFault.Kind, FaultKind::DoubleFree);
}

TEST(Vm, FreeingGlobalIsInvalid) {
  mir::Module M = compile(R"ml(
global g[4];
fn main() { free(g); return 0; }
)ml");
  EXPECT_EQ(run(M).TheFault.Kind, FaultKind::InvalidFree);
}

TEST(Vm, WildPointerFaults) {
  mir::Module M = compile(R"ml(
fn main() {
  var p = 12345;
  return p[0];
}
)ml");
  EXPECT_EQ(run(M).TheFault.Kind, FaultKind::BadPointer);
}

TEST(Vm, AbortBuiltinFaults) {
  mir::Module M = compile("fn main() { abort(); return 0; }");
  EXPECT_EQ(run(M).TheFault.Kind, FaultKind::Abort);
}

TEST(Vm, StackOverflowOnDeepRecursion) {
  mir::Module M = compile(R"ml(
fn rec(n) { return rec(n + 1); }
fn main() { return rec(0); }
)ml");
  EXPECT_EQ(run(M).TheFault.Kind, FaultKind::StackOverflow);
}

TEST(Vm, StepLimitIsAHangNotACrash) {
  mir::Module M = compile("fn main() { while (1) { } return 0; }");
  ExecResult R = run(M, {}, 1000);
  EXPECT_TRUE(R.hung());
  EXPECT_FALSE(R.crashed());
  EXPECT_EQ(R.TheFault.Kind, FaultKind::StepLimit);
}

TEST(Vm, NegativeAllocationIsOutOfMemory) {
  mir::Module M = compile(R"ml(
fn main() {
  var a[0 - 5];
  return 0;
}
)ml");
  EXPECT_EQ(run(M).TheFault.Kind, FaultKind::OutOfMemory);
}

TEST(Vm, InputBuiltins) {
  mir::Module M = compile(R"ml(
fn main() {
  if (in(100) != -1) { return -1; }   // out of range reads -1
  return len() * 1000 + in(0) + in(len() - 1);
}
)ml");
  EXPECT_EQ(run(M, {7, 1, 9}).ReturnValue, 3016);
}

TEST(Vm, GlobalsAreReinitializedPerRun) {
  mir::Module M = compile(R"ml(
global g[3] = {5, 6};
fn main() {
  var old = g[0];
  g[0] = g[0] + 1;
  return old * 100 + g[2];
}
)ml");
  Vm Machine(M);
  ExecOptions EO;
  EXPECT_EQ(Machine.run(nullptr, 0, EO, nullptr).ReturnValue, 500);
  // Second run must see the pristine initializer again.
  EXPECT_EQ(Machine.run(nullptr, 0, EO, nullptr).ReturnValue, 500);
}

TEST(Vm, CallStackCapturedInnermostFirst) {
  mir::Module M = compile(R"ml(
fn inner() { var a[1]; return a[9]; }
fn outer() { return inner(); }
fn main() { return outer(); }
)ml");
  ExecResult R = run(M);
  ASSERT_TRUE(R.crashed());
  ASSERT_EQ(R.TheFault.Stack.size(), 3u);
  int Inner = M.findFunction("inner");
  int Main = M.findFunction("main");
  EXPECT_EQ(R.TheFault.Stack.front().Func, static_cast<uint32_t>(Inner));
  EXPECT_EQ(R.TheFault.Stack.back().Func, static_cast<uint32_t>(Main));
}

TEST(Vm, StackHashDistinguishesCallers) {
  mir::Module M = compile(R"ml(
fn crash() { var a[1]; return a[5]; }
fn via1() { return crash(); }
fn via2() { return crash(); }
fn main() {
  if (in(0) == 'a') { return via1(); }
  return via2();
}
)ml");
  ExecResult A = run(M, {'a'});
  ExecResult B = run(M, {'b'});
  ASSERT_TRUE(A.crashed());
  ASSERT_TRUE(B.crashed());
  // Same root cause, different stacks: the paper's unique-crash vs
  // unique-bug distinction.
  EXPECT_EQ(A.TheFault.bugId(), B.TheFault.bugId());
  EXPECT_NE(A.TheFault.stackHash(), B.TheFault.stackHash());
}

TEST(Vm, CmpLoggingCollectsOperands) {
  mir::Module M = compile(R"ml(
fn main() {
  if (in(0) == 77) { return 1; }
  if (len() < 1234) { return 2; }
  return 0;
}
)ml");
  Vm Machine(M);
  ExecOptions EO;
  EO.LogCmps = true;
  std::vector<uint8_t> In = {9};
  ExecResult R = Machine.run(In.data(), In.size(), EO, nullptr);
  bool Saw77 = false, Saw1234 = false;
  for (int64_t V : R.CmpOperands) {
    Saw77 |= (V == 77);
    Saw1234 |= (V == 1234);
  }
  EXPECT_TRUE(Saw77);
  EXPECT_TRUE(Saw1234);
}

/// Both engines where the JIT runs, else the interpreter alone: a fresh
/// Vm over M (with the shadow index, when given) per call.
struct Engines {
  const mir::Module &M;
  const instr::ShadowEdgeIndex *Shadow;
  ProgramImage Image;
  std::unique_ptr<jit::JitProgram> J;

  Engines(const mir::Module &M, const instr::ShadowEdgeIndex *Shadow)
      : M(M), Shadow(Shadow), Image(ProgramImage::build(M, Shadow)),
        J(jit::available() ? jit::JitProgram::compile(Image) : nullptr) {}

  std::vector<const char *> names() const {
    if (J)
      return {"interp", "jit"};
    return {"interp"};
  }
  std::unique_ptr<Vm> make(const char *Name) const {
    auto V = std::make_unique<Vm>(M, Shadow);
    if (std::string(Name) == "jit")
      V->attachJit(J.get());
    return V;
  }
};

/// Every field of two results, the whole fault stack included.
void expectIdentical(const ExecResult &A, const ExecResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.TheFault.Kind, B.TheFault.Kind) << What;
  EXPECT_EQ(A.TheFault.Func, B.TheFault.Func) << What;
  EXPECT_EQ(A.TheFault.Block, B.TheFault.Block) << What;
  EXPECT_EQ(A.TheFault.InstrIdx, B.TheFault.InstrIdx) << What;
  ASSERT_EQ(A.TheFault.Stack.size(), B.TheFault.Stack.size()) << What;
  for (size_t I = 0; I < A.TheFault.Stack.size(); ++I) {
    EXPECT_EQ(A.TheFault.Stack[I].Func, B.TheFault.Stack[I].Func) << What;
    EXPECT_EQ(A.TheFault.Stack[I].Block, B.TheFault.Stack[I].Block) << What;
    EXPECT_EQ(A.TheFault.Stack[I].InstrIdx, B.TheFault.Stack[I].InstrIdx)
        << What;
  }
  EXPECT_EQ(A.Steps, B.Steps) << What;
  EXPECT_EQ(A.ReturnValue, B.ReturnValue) << What;
  EXPECT_EQ(A.ShadowEdges, B.ShadowEdges) << What;
  EXPECT_EQ(A.CmpOperands, B.CmpOperands) << What;
  EXPECT_EQ(A.HeapAllocs, B.HeapAllocs) << What;
  EXPECT_EQ(A.HeapCellsAllocated, B.HeapCellsAllocated) << What;
  EXPECT_EQ(A.DirtyGlobalCells, B.DirtyGlobalCells) << What;
}

/// 'x' allocates and compares its way down four calls of deep() to an
/// out-of-bounds global read (a five-frame fault stack); any other input
/// returns cleanly.
const char *ReuseProgram = R"ml(
global g[4];
fn deep(k, p) {
  if (k > 2) { return g[k + 10]; }
  var q = alloc(k + 3);
  return deep(k + 1, q);
}
fn main() {
  if (len() > 0 && in(0) == 'x') { return deep(0, alloc(2)); }
  if (len() > 1 && in(1) == 77) { return 5; }
  g[1] = len();
  return 1;
}
)ml";

/// The Vm reuses one result: a clean execution after a crashing one
/// (fault stack, cmp log, heap counts, edges all populated) must equal a
/// fresh Vm's result for it — nothing carries over.
TEST(Vm, ReusedResultCarriesNothingOver) {
  mir::Module M = compile(ReuseProgram);
  instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(M);
  Engines E(M, &Shadow);
  const std::vector<uint8_t> Crash = {'x'}, Clean = {'a', 'b'};
  ExecOptions Logged;
  Logged.LogCmps = true;
  ExecOptions Plain;
  for (const char *Name : E.names()) {
    std::unique_ptr<Vm> Used = E.make(Name);
    const ExecResult &First =
        Used->run(Crash.data(), Crash.size(), Logged, nullptr);
    ASSERT_EQ(First.TheFault.Kind, FaultKind::OobRead) << Name;
    ASSERT_GE(First.TheFault.Stack.size(), 4u) << Name;
    ASSERT_FALSE(First.CmpOperands.empty()) << Name;
    ASSERT_GT(First.HeapAllocs, 0u) << Name;

    const ExecResult &Second =
        Used->run(Clean.data(), Clean.size(), Plain, nullptr);
    EXPECT_EQ(&Second, &First) << Name << ": the Vm owns one result";
    std::unique_ptr<Vm> Fresh = E.make(Name);
    const ExecResult &Expected =
        Fresh->run(Clean.data(), Clean.size(), Plain, nullptr);
    EXPECT_EQ(Second.TheFault.Kind, FaultKind::None) << Name;
    EXPECT_TRUE(Second.TheFault.Stack.empty()) << Name;
    EXPECT_TRUE(Second.CmpOperands.empty()) << Name;
    expectIdentical(Second, Expected, Name);
  }
}

/// A copy of a result is the caller's: the next run on the same Vm does
/// not reach it.
TEST(Vm, CopiedResultOutlivesNextRun) {
  mir::Module M = compile(ReuseProgram);
  instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(M);
  Engines E(M, &Shadow);
  const std::vector<uint8_t> Crash = {'x'}, Clean = {'a', 'b'};
  ExecOptions Logged;
  Logged.LogCmps = true;
  for (const char *Name : E.names()) {
    std::unique_ptr<Vm> Used = E.make(Name);
    ExecResult Copy = Used->run(Crash.data(), Crash.size(), Logged, nullptr);
    (void)Used->run(Clean.data(), Clean.size(), ExecOptions(), nullptr);
    std::unique_ptr<Vm> Fresh = E.make(Name);
    expectIdentical(Copy,
                    Fresh->run(Crash.data(), Crash.size(), Logged, nullptr),
                    Name);
  }
}

/// Shadow edges are listed once each, in the order the execution first
/// took them: the list of a run cut short by the step limit is a prefix
/// of the full run's list, and two inputs that take the same edges in a
/// different order list the same set in different orders.
TEST(Vm, ShadowEdgesOnceInFirstTraversalOrder) {
  mir::Module M = compile(R"ml(
fn main() {
  var i = 0;
  var s = 0;
  while (i < len()) {
    if (in(i) == 'a') { s = s + 1; } else { s = s * 2; }
    i = i + 1;
  }
  return s;
}
)ml");
  instr::ShadowEdgeIndex Shadow = instr::ShadowEdgeIndex::build(M);
  Engines E(M, &Shadow);
  const std::vector<uint8_t> AB = {'a', 'b'}, BA = {'b', 'a'};
  for (const char *Name : E.names()) {
    std::unique_ptr<Vm> Machine = E.make(Name);
    ExecOptions EO;
    const ExecResult Full = Machine->run(AB.data(), AB.size(), EO, nullptr);
    ASSERT_FALSE(Full.ShadowEdges.empty()) << Name;
    std::vector<uint32_t> Sorted = Full.ShadowEdges;
    std::sort(Sorted.begin(), Sorted.end());
    EXPECT_EQ(std::adjacent_find(Sorted.begin(), Sorted.end()), Sorted.end())
        << Name << ": an edge is listed twice";
    for (uint32_t Id : Sorted)
      EXPECT_LT(Id, Shadow.numEdges()) << Name;

    for (uint64_t Limit = 1; Limit <= Full.Steps; ++Limit) {
      EO.StepLimit = Limit;
      const ExecResult &Cut = Machine->run(AB.data(), AB.size(), EO, nullptr);
      ASSERT_LE(Cut.ShadowEdges.size(), Full.ShadowEdges.size()) << Name;
      EXPECT_TRUE(std::equal(Cut.ShadowEdges.begin(), Cut.ShadowEdges.end(),
                             Full.ShadowEdges.begin()))
          << Name << " step limit " << Limit;
    }

    EO.StepLimit = ExecOptions().StepLimit;
    const ExecResult Swapped = Machine->run(BA.data(), BA.size(), EO, nullptr);
    std::vector<uint32_t> SwappedSorted = Swapped.ShadowEdges;
    std::sort(SwappedSorted.begin(), SwappedSorted.end());
    EXPECT_EQ(SwappedSorted, Sorted) << Name;
    EXPECT_NE(Swapped.ShadowEdges, Full.ShadowEdges) << Name;

    // A longer input takes the loop more times but adds no new edges.
    const std::vector<uint8_t> Longer = {'a', 'b', 'a', 'b'};
    EXPECT_EQ(Machine->run(Longer.data(), Longer.size(), EO, nullptr)
                  .ShadowEdges,
              Full.ShadowEdges)
        << Name;
  }
}

} // namespace
