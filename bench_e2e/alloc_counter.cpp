// Replacement global allocation operators that count every operator new
// call, so the benchmark can report heap allocations per delivered event.
// Every form of new and delete is replaced, nothrow ones included, so no
// block is ever freed by an allocator other than the one that made it.
#include "alloc_counter.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_malloc(std::size_t n) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* counted_aligned(std::size_t n, std::align_val_t al) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + a - 1) / a * a;
  return std::aligned_alloc(a, rounded ? rounded : a);
}

}  // namespace

namespace aa::bench_e2e {
std::uint64_t allocations() { return g_alloc_count.load(std::memory_order_relaxed); }
}  // namespace aa::bench_e2e

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, std::align_val_t al) { return ::operator new(n, al); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_malloc(n); }
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
