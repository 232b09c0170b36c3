/**
 * @file
 * gem5-style status/error reporting.
 *
 * panic():  a condition that indicates a simulator bug; aborts.
 * fatal():  a condition caused by the user (bad configuration); exits.
 * warn():   a non-terminating warning.
 */

#ifndef TENOC_COMMON_LOG_HH
#define TENOC_COMMON_LOG_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace tenoc
{

namespace detail
{

/** Formats the variadic message parts into one string. */
template <typename... Args>
std::string
formatMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

/** Emits a log line and aborts (simulator bug). */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Emits a log line and exits with status 1 (user error). */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Emits a warning line on stderr. */
void warnImpl(const std::string &msg);

} // namespace detail

/** Number of warn() calls so far (useful for tests). */
std::uint64_t warnCount();

/** @return true when TENOC_VALIDATE is set to a non-zero value in the
 *  environment (forces MeshNetworkParams::validate on and turns on
 *  the SIMT cores' MSHR parking audit and the DRAM channels' FR-FCFS
 *  bank-state audit). */
bool validateForcedByEnv();

template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::formatMessage(std::forward<Args>(args)...));
}

} // namespace tenoc

/** Abort with a message; use for internal invariant violations. */
#define tenoc_panic(...)                                                    \
    ::tenoc::detail::panicImpl(__FILE__, __LINE__,                          \
        ::tenoc::detail::formatMessage(__VA_ARGS__))

/** Exit with a message; use for invalid user configuration. */
#define tenoc_fatal(...)                                                    \
    ::tenoc::detail::fatalImpl(__FILE__, __LINE__,                          \
        ::tenoc::detail::formatMessage(__VA_ARGS__))

/** Assert an invariant with a formatted message on failure. */
#define tenoc_assert(cond, ...)                                             \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::tenoc::detail::panicImpl(__FILE__, __LINE__,                  \
                ::tenoc::detail::formatMessage(                             \
                    "assertion failed: " #cond " ", __VA_ARGS__));          \
        }                                                                   \
    } while (0)

#endif // TENOC_COMMON_LOG_HH
