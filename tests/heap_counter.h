#ifndef HIRE_TESTS_HEAP_COUNTER_H_
#define HIRE_TESTS_HEAP_COUNTER_H_

// Counting replacements of the global operator new/delete for the test
// binary that links heap_counter.cc (core_test): every operator new and
// new[] adds one to a relaxed atomic counter. They live in their own
// translation unit so that no call site inlines their malloc/free bodies;
// inlined into the test's own code, GCC paired the operator new call with
// the inlined free and warned of a mismatched deallocation.
//
// Under AddressSanitizer the replacement is compiled out -- ASan's own
// new/delete interceptors flag a malloc-backed operator new as an
// alloc-dealloc mismatch -- and the counter stays at zero.

#include <cstdint>

#if defined(__SANITIZE_ADDRESS__)
#define HIRE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HIRE_TEST_ASAN 1
#endif
#endif

namespace hire {

/// Global operator new/new[] calls so far in this process.
uint64_t HeapAllocations();

}  // namespace hire

#endif  // HIRE_TESTS_HEAP_COUNTER_H_
