// Counting global operator new for the perfbench executable: every heap
// allocation made through new (the simulator's containers, captured
// closures, strings) bumps one relaxed atomic, which the benchmark reads
// at span boundaries to report allocations per event. Replaceable
// operator new may be defined once per program, so this file is a source
// of the executable and never part of a library.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "trace.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC cannot see that the replacement operator new below is malloc-based
// and flags every new/free pairing in dependent TUs.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t allocation_count() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench
