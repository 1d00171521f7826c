/**
 * @file
 * Always-on integrity checks.
 *
 * `assert` compiles out under NDEBUG, so an invariant guarded only by
 * it is silently skipped in a release build and the state it protects
 * is corrupted instead.  DAMN_CHECK is the fail-stop that stays: on a
 * false condition it prints the reason, the expression and the
 * location to stderr and aborts, in every build type.  This is the
 * split Linux draws between `BUG_ON` and `VM_BUG_ON`: cheap invariants
 * (double free, impossible sizes) use DAMN_CHECK, while expensive
 * debug-only walks stay `assert`.
 */

#ifndef DAMN_SIM_CHECK_HH
#define DAMN_SIM_CHECK_HH

#include <cstdio>
#include <cstdlib>

namespace damn::sim {

/** Report a failed DAMN_CHECK and abort.  Out of line of the caller's
 *  hot path: the check itself is one predicted branch. */
[[noreturn, gnu::cold, gnu::noinline]] inline void
checkFailed(const char *reason, const char *expr, const char *file,
            int line)
{
    std::fprintf(stderr, "damn: check failed: %s [%s] at %s:%d\n",
                 reason, expr, file, line);
    std::fflush(stderr);
    std::abort();
}

} // namespace damn::sim

/** Fail-stop unless @p cond holds; @p reason says what broke. */
#define DAMN_CHECK(cond, reason)                                        \
    do {                                                                \
        if (__builtin_expect(!(cond), 0))                               \
            ::damn::sim::checkFailed(reason, #cond, __FILE__, __LINE__); \
    } while (0)

#endif // DAMN_SIM_CHECK_HH
