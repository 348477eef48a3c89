//===- Io.cpp - Crash-safe file primitives ------------------------------------===//
//
// Part of the pathfuzz project.
//
//===----------------------------------------------------------------------===//

#include "support/Io.h"

#include "support/FaultInjection.h"

#include <cstdio>

#include <fcntl.h>
#include <unistd.h>

namespace pathfuzz {
namespace io {

namespace {

constexpr const char *TmpSuffix = ".tmp";

/// Durability barrier for the parent directory: after rename(), the new
/// directory entry must itself reach disk or a power cut can resurrect
/// the old file. Best-effort by design (see the header).
void fsyncParentDir(const std::string &Path) {
  // The parent of "f" is ".", of "/f" is "/", of "d/f" is "d". Built in
  // one construction: assigning a literal over the substr result trips
  // GCC 12's -Wrestrict false positive at -O3.
  const size_t Slash = Path.find_last_of('/');
  const std::string Dir = Slash == std::string::npos ? std::string(".")
                          : Slash == 0               ? std::string("/")
                                                     : Path.substr(0, Slash);
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
  }
}

} // namespace

const char *tmpSuffix() { return TmpSuffix; }

bool atomicWriteFile(const std::string &Path, const void *Data, size_t Size,
                     std::string *Err) {
  const std::string Tmp = Path + TmpSuffix;
  auto Fail = [&](std::string Msg) {
    if (Err)
      *Err = std::move(Msg);
    std::remove(Tmp.c_str());
    return false;
  };

  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return Fail("cannot open " + Tmp + " for writing");

  // Fault drills. The short-write site truncates the request to half its
  // bytes — deterministic, and exactly the torn shape a full disk or a
  // crash mid-fwrite produces — so the no-torn-destination guarantee is
  // testable without raw device tricks.
  bool Injected = fault::enabled();
  if (Injected && fault::shouldFail("io.write.fail")) {
    std::fclose(F);
    return Fail("injected fault at io.write.fail");
  }
  size_t ToWrite = Size;
  bool InjectedShort = Injected && fault::shouldFail("io.write.short");
  if (InjectedShort)
    ToWrite = Size / 2;
  size_t Written = ToWrite ? std::fwrite(Data, 1, ToWrite, F) : 0;
  if (Written != Size) {
    std::fclose(F);
    return Fail(InjectedShort ? "injected fault at io.write.short"
                              : "short write to " + Tmp);
  }
  if (std::fflush(F) != 0) {
    std::fclose(F);
    return Fail("flush failed for " + Tmp);
  }
  // fsync before close: the rename below must never publish bytes that
  // only exist in the page cache.
  bool InjectedFsync = Injected && fault::shouldFail("io.fsync.fail");
  bool FsyncFailed = InjectedFsync || ::fsync(::fileno(F)) != 0;
  if (std::fclose(F) != 0 || FsyncFailed) {
    if (InjectedFsync)
      return Fail("injected fault at io.fsync.fail");
    return Fail(FsyncFailed ? "fsync failed for " + Tmp
                            : "close failed for " + Tmp);
  }

  if (Injected && fault::shouldFail("io.rename.fail"))
    return Fail("injected fault at io.rename.fail");
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0)
    return Fail("rename to " + Path + " failed");

  fsyncParentDir(Path);
  return true;
}

bool atomicWriteFile(const std::string &Path, const std::vector<uint8_t> &Data,
                     std::string *Err) {
  return atomicWriteFile(Path, Data.data(), Data.size(), Err);
}

bool atomicWriteFile(const std::string &Path, const std::string &Data,
                     std::string *Err) {
  return atomicWriteFile(Path, Data.data(), Data.size(), Err);
}

bool readFileBounded(const std::string &Path, size_t MaxBytes,
                     std::vector<uint8_t> &Out, std::string *Err) {
  Out.clear();
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    if (Err)
      *Err = "cannot open " + Path;
    return false;
  }
  bool Ok = std::fseek(F, 0, SEEK_END) == 0;
  long Size = Ok ? std::ftell(F) : -1;
  if (Size < 0 || static_cast<unsigned long>(Size) > MaxBytes) {
    std::fclose(F);
    if (Err)
      *Err = Size < 0 ? "cannot stat " + Path
                      : Path + " exceeds the " + std::to_string(MaxBytes) +
                            "-byte read bound";
    return false;
  }
  std::rewind(F);
  Out.resize(static_cast<size_t>(Size));
  size_t Read =
      Out.empty() ? 0 : std::fread(Out.data(), 1, Out.size(), F);
  std::fclose(F);
  if (Read != Out.size()) {
    Out.clear();
    if (Err)
      *Err = "short read from " + Path;
    return false;
  }
  return true;
}

} // namespace io
} // namespace pathfuzz
