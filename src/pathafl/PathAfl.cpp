//===- PathAfl.cpp - PathAFL comparator notes ---------------------------------===//
//
// Part of the pathfuzz project. Header-only; this TU anchors the library.
//
//===----------------------------------------------------------------------===//

#include "pathafl/PathAfl.h"

namespace pathfuzz {
namespace pathafl {
// Intentionally empty.
} // namespace pathafl
} // namespace pathfuzz
