// tmcbench -- process-wide heap counters.
//
// alloc_counter.cpp replaces the global operator new/delete family for the
// benchmark binary only. Every heap allocation the simulator makes passes
// through it, so the benchmark can read exact allocation counts (a
// deterministic per-job work counter) and the bytes a structure keeps live.
// The benchmark is single-threaded; the counters are plain integers.
#pragma once

#include <cstdint>

namespace tmcbench {

struct HeapCounts {
  std::uint64_t allocs = 0;     // operator new calls so far
  std::int64_t live_bytes = 0;  // requested bytes currently allocated
};

[[nodiscard]] HeapCounts heap_counts();

}  // namespace tmcbench
