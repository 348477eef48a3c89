//===- PathAfl.h - PathAFL comparator notes ---------------------*- C++ -*-===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//
//
// PathAFL [Yan et al., ASIA CCS'20] is the paper's only prior path-aware
// comparator (Appendix C). It differs from the paper's approach on every
// axis:
//
//   - path abstraction: *whole-program* path hashes ("h-paths") over a
//     pruned subset of edges, vs. complete intra-procedural acyclic paths;
//   - instrumentation: partial (selected functions/edges only, binaries
//     patched post-hoc), vs. full Ball-Larus probes placed by the
//     compiler;
//   - base fuzzer: AFL 2.52b (no cmplog, classic xor edge hashing), vs.
//     AFL++ 4.07a.
//
// Our comparator mirrors those design points: the EdgeClassic
// instrumentation provides AFL's block-pair hashing, and the VM's
// CallPathHash assist extends it with a rolling hash over the call events
// of a *selected* ~25% of functions, bumping a map entry per selected
// call — a coarse, collision-prone whole-program path signal with partial
// instrumentation, exactly PathAFL's trade-off. The `afl` configuration is
// the same build without the assist (Appendix C compares the two). The
// selection predicate and the hash step are defined once, next to the VM
// that runs them: vm::callHashSelected, vm::CallHashSeed and
// vm::callHashStep in vm/Vm.h.
//
//===----------------------------------------------------------------------===//

#ifndef PATHFUZZ_PATHAFL_PATHAFL_H
#define PATHFUZZ_PATHAFL_PATHAFL_H

#endif // PATHFUZZ_PATHAFL_PATHAFL_H
