#include "alloc_counter.h"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

std::uint64_t g_allocs = 0;
std::int64_t g_live_bytes = 0;

// Each block carries a 16-byte header just below the returned pointer: the
// requested size and the offset back to the malloc'd start. Requested sizes
// are deterministic; malloc's usable sizes depend on the heap's history.
constexpr std::size_t kHeader = 16;

void* counted_alloc(std::size_t size, std::size_t align) {
  const std::size_t offset = align > kHeader ? align : kHeader;
  if (size > SIZE_MAX - offset - align) return nullptr;
  void* raw = nullptr;
  if (align <= alignof(std::max_align_t)) {
    raw = std::malloc(size + offset);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    raw = std::aligned_alloc(align,
                             (size + offset + align - 1) / align * align);
  }
  if (raw == nullptr) return nullptr;
  char* user = static_cast<char*>(raw) + offset;
  std::memcpy(user - 16, &size, sizeof size);
  std::memcpy(user - 8, &offset, sizeof offset);
  ++g_allocs;
  g_live_bytes += static_cast<std::int64_t>(size);
  return user;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  char* user = static_cast<char*>(p);
  std::size_t size = 0;
  std::size_t offset = 0;
  std::memcpy(&size, user - 16, sizeof size);
  std::memcpy(&offset, user - 8, sizeof offset);
  g_live_bytes -= static_cast<std::int64_t>(size);
  std::free(user - offset);
}

void* throwing_alloc(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

}  // namespace

namespace tmcbench {

HeapCounts heap_counts() { return {g_allocs, g_live_bytes}; }

}  // namespace tmcbench

void* operator new(std::size_t size) {
  return throwing_alloc(size, kDefaultAlign);
}
void* operator new[](std::size_t size) {
  return throwing_alloc(size, kDefaultAlign);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kDefaultAlign);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, kDefaultAlign);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return throwing_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return throwing_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}
