//===- DocsTest.cpp - Documentation lint: links and knob coverage -------------===//
//
// Part of the pathfuzz project.
//
// Two generation-checks that keep the docs tree from rotting:
//
//  - every intra-repo markdown link in the curated doc set (README,
//    DESIGN, ROADMAP, CHANGES, EXPERIMENTS, docs/*.md) must resolve to
//    a file that exists;
//  - docs/CONFIG.md must mention every PATHFUZZ_* / REPRO_* environment
//    knob actually read in the tree (support/Env.h call sites, plus
//    $ENV{} reads in the ctest scripts), and must not document ghosts —
//    every knob named in CONFIG.md has to correspond to a real env call
//    site, a ctest $ENV read, or a CMake option().
//
// Runs under the `docs` ctest label.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

#ifdef PATHFUZZ_SOURCE_DIR
const char *SourceDir = PATHFUZZ_SOURCE_DIR;
#else
const char *SourceDir = ".";
#endif

std::string slurp(const fs::path &P) {
  std::ifstream F(P);
  std::ostringstream SS;
  SS << F.rdbuf();
  return SS.str();
}

/// The markdown files whose links we police. PAPER/PAPERS/SNIPPETS are
/// retrieval artifacts with external content and are exempt.
std::vector<fs::path> curatedDocs() {
  const fs::path Root(SourceDir);
  std::vector<fs::path> Docs;
  for (const char *Name :
       {"README.md", "DESIGN.md", "ROADMAP.md", "CHANGES.md",
        "EXPERIMENTS.md"}) {
    fs::path P = Root / Name;
    if (fs::exists(P))
      Docs.push_back(P);
  }
  if (fs::exists(Root / "docs"))
    for (const fs::directory_entry &E : fs::directory_iterator(Root / "docs"))
      if (E.path().extension() == ".md")
        Docs.push_back(E.path());
  EXPECT_GE(Docs.size(), 7u) << "curated doc set unexpectedly small";
  return Docs;
}

/// Every intra-repo [text](target) link resolves to an existing file.
TEST(Docs, IntraRepoLinksResolve) {
  const std::regex LinkRe(R"(\]\(([^)\s]+)\))");
  for (const fs::path &Doc : curatedDocs()) {
    std::string Text = slurp(Doc);
    ASSERT_FALSE(Text.empty()) << Doc;
    for (std::sregex_iterator It(Text.begin(), Text.end(), LinkRe), End;
         It != End; ++It) {
      std::string Target = (*It)[1].str();
      if (Target.rfind("http://", 0) == 0 || Target.rfind("https://", 0) == 0 ||
          Target.rfind("mailto:", 0) == 0)
        continue;
      if (Target[0] == '#') // same-file anchor
        continue;
      size_t Hash = Target.find('#');
      if (Hash != std::string::npos)
        Target = Target.substr(0, Hash);
      fs::path Resolved = Doc.parent_path() / Target;
      EXPECT_TRUE(fs::exists(Resolved))
          << Doc.filename().string() << ": dead link -> " << Target;
    }
  }
}

/// Collect every PATHFUZZ_* / REPRO_* token in Text.
std::set<std::string> knobTokens(const std::string &Text) {
  static const std::regex KnobRe(R"((?:PATHFUZZ|REPRO)_[A-Z0-9_]+)");
  std::set<std::string> Out;
  for (std::sregex_iterator It(Text.begin(), Text.end(), KnobRe), End;
       It != End; ++It)
    Out.insert(It->str());
  return Out;
}

/// docs/CONFIG.md vs reality: the documented knob set equals the union
/// of env*() call sites, ctest $ENV{} reads and CMake option()s.
TEST(Docs, ConfigTableMatchesEnvCallSites) {
  const fs::path Root(SourceDir);

  // 1. env*("NAME") call sites in C++ under src/, bench/, tools/,
  //    examples/ (Env.h's own declarations carry no literals).
  std::set<std::string> Used;
  const std::regex EnvCallRe(
      R"(env(?:U64|Bool|Str|List)\s*\(\s*"((?:PATHFUZZ|REPRO)_[A-Z0-9_]+)\")");
  for (const char *Dir : {"src", "bench", "tools", "examples"}) {
    for (fs::recursive_directory_iterator It(Root / Dir), End; It != End;
         ++It) {
      const fs::path &P = It->path();
      if (P.extension() != ".cpp" && P.extension() != ".h")
        continue;
      std::string Text = slurp(P);
      for (std::sregex_iterator M(Text.begin(), Text.end(), EnvCallRe), End2;
           M != End2; ++M)
        Used.insert((*M)[1].str());
    }
  }
  EXPECT_GE(Used.size(), 10u) << "env call-site scan found too few knobs";

  // 2. $ENV{NAME} reads in the ctest scripts.
  const std::regex CtestEnvRe(R"(\$ENV\{((?:PATHFUZZ|REPRO)_[A-Z0-9_]+)\})");
  for (const fs::directory_entry &E : fs::directory_iterator(Root / "cmake")) {
    std::string Text = slurp(E.path());
    for (std::sregex_iterator M(Text.begin(), Text.end(), CtestEnvRe), End2;
         M != End2; ++M)
      Used.insert((*M)[1].str());
  }

  // 3. CMake option()s (documented in CONFIG.md's build-shape table, but
  //    not environment variables).
  std::set<std::string> Options;
  const std::regex OptionRe(R"(option\s*\(\s*(PATHFUZZ_[A-Z0-9_]+))");
  std::string TopCMake = slurp(Root / "CMakeLists.txt");
  for (std::sregex_iterator M(TopCMake.begin(), TopCMake.end(), OptionRe), End2;
       M != End2; ++M)
    Options.insert((*M)[1].str());
  EXPECT_TRUE(Options.count("PATHFUZZ_SANITIZE"));

  std::string Config = slurp(Root / "docs" / "CONFIG.md");
  ASSERT_FALSE(Config.empty()) << "docs/CONFIG.md missing";
  std::set<std::string> Documented = knobTokens(Config);

  // Every knob the code reads is documented.
  for (const std::string &Knob : Used)
    EXPECT_TRUE(Documented.count(Knob))
        << "env knob " << Knob << " is read in the tree but missing from "
        << "docs/CONFIG.md";

  // Every knob CONFIG.md names is real.
  for (const std::string &Knob : Documented)
    EXPECT_TRUE(Used.count(Knob) || Options.count(Knob))
        << "docs/CONFIG.md documents " << Knob
        << ", which is neither an env call site, a ctest $ENV read, nor a "
        << "CMake option";

  // The engine selector is wired through both sides; the two nested
  // boolean knobs it replaced and the deleted selective tier's knob are
  // gone from both.
  EXPECT_TRUE(Used.count("PATHFUZZ_VM_ENGINE"));
  EXPECT_TRUE(Documented.count("PATHFUZZ_VM_ENGINE"));
  for (const char *Retired :
       {"PATHFUZZ_VM_FASTPATH", "PATHFUZZ_VM_JIT", "PATHFUZZ_SELECTIVE"}) {
    EXPECT_FALSE(Used.count(Retired)) << Retired;
    EXPECT_FALSE(Documented.count(Retired)) << Retired;
  }
}

} // namespace
