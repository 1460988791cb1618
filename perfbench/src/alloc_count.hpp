// Heap-allocation counter for the traced run (mem.allocs_per_round).
//
// The benchmark binary replaces the global operator new. Counting is off by
// default, so the end-to-end runs pay one relaxed load per allocation and
// nothing else; the traced run switches it on around the rounds it probes.
#pragma once

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t alloc_count();

}  // namespace perfbench
