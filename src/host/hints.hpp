// Memory hints for the serial walks: they start loading memory a walk is
// about to touch, or ask for larger pages under a big table, and change
// nothing else, so no result depends on them.
#pragma once

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include <cstddef>
#include <cstdint>

namespace adam2::host {

constexpr std::size_t kCacheLine = 64;

/// Hints that [data, data + bytes) will be read (kWrite: written) soon:
/// every cache line the range touches.
template <bool kWrite = false>
inline void prefetch_bytes(const void* data, std::size_t bytes) {
  if (bytes == 0) return;
  const auto start = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t last = (start + bytes - 1) & ~(kCacheLine - 1);
  for (std::uintptr_t line = start & ~(kCacheLine - 1); line <= last;
       line += kCacheLine) {
    __builtin_prefetch(reinterpret_cast<const void*>(line), kWrite ? 1 : 0);
  }
}

/// Hints that `*object` will be read (kWrite: written) soon.
template <bool kWrite = false, class T>
inline void prefetch_object(const T* object) {
  prefetch_bytes<kWrite>(object, sizeof(T));
}

/// Reads one byte in every cache line [data, data + bytes) touches, and
/// only bytes inside that range, and discards them: a demand load where a
/// prefetch hint measured no gain. It stalls on a miss only once the core
/// runs out of other work.
inline void touch_bytes(const void* data, std::size_t bytes) {
  if (bytes == 0) return;
  const auto* first = static_cast<const volatile char*>(data);
  (void)*first;
  const auto start = reinterpret_cast<std::uintptr_t>(data);
  for (std::uintptr_t line = (start & ~(kCacheLine - 1)) + kCacheLine;
       line < start + bytes; line += kCacheLine) {
    (void)first[line - start];
  }
}

/// Asks the kernel to back the whole pages inside [data, data + bytes) with
/// huge pages where it supports them (Linux transparent huge pages). A
/// table walked at random costs a TLB miss per access at 4 KB pages; with
/// 2 MB pages far fewer. The hint changes no byte, and where the kernel
/// declines it nothing happens. A range under 2 MB cannot hold a huge page
/// and is left alone. Call it before the memory is first touched.
inline void advise_huge_pages(const void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  constexpr std::uintptr_t kPage = 4096;
  constexpr std::size_t kHugePage = std::size_t{2} << 20;
  if (bytes < kHugePage) return;
  const auto start = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first = (start + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t last = (start + bytes) & ~(kPage - 1);
  if (last > first) {
    (void)::madvise(reinterpret_cast<void*>(first), last - first,
                    MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace adam2::host
