#include "heap_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

namespace hire {

uint64_t HeapAllocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

}  // namespace hire

#if !defined(HIRE_TEST_ASAN)

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // !HIRE_TEST_ASAN
