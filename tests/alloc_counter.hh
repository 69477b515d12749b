/**
 * @file
 * Counting global allocator for allocation-free hot-path tests.
 *
 * Replaces the global operator new/delete with malloc/free wrappers
 * that count every allocation in g_allocCount, so a test can assert a
 * steady-state call sequence performs zero heap allocation:
 *
 *     const std::size_t before = g_allocCount.load();
 *     ... hot calls ...
 *     EXPECT_EQ(g_allocCount.load(), before);
 *
 * The counter is atomic so tests that spawn worker threads stay safe.
 * Include from exactly one translation unit per test binary (every
 * test in tests/ is one source file): the replacement functions are
 * program-wide definitions.
 */

#ifndef MOENTWINE_TESTS_ALLOC_COUNTER_HH
#define MOENTWINE_TESTS_ALLOC_COUNTER_HH

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_allocCount{0};
} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The deletes stay out of line: inlined next to a replacement new, GCC
// sees free() on an operator-new pointer and draws
// -Wmismatched-new-delete, although both sides wrap malloc/free.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // MOENTWINE_TESTS_ALLOC_COUNTER_HH
