// Process-wide heap allocation counter. alloc_counter.cc replaces the global
// operator new with a counting wrapper (the same technique as
// tests/alloc_test.cc), so it must be linked into the executable itself.
#pragma once

#include <cstdint>

namespace perfbench {

/// Global operator new calls since process start (all threads).
std::uint64_t allocation_count();

}  // namespace perfbench
