// Allocation counter for the benchmark binary: alloc_count.cc replaces
// the global operator new/delete and counts every allocation made while
// counting is switched on. Counting is off by default; the traced run
// switches it on around single-threaded batches only.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

void SetAllocCounting(bool on);
AllocCounts ReadAllocCounts();

}  // namespace perfbench
