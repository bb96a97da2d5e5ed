/**
 * @file
 * Status and error reporting helpers in the gem5 style.
 *
 * panic()  — an internal invariant was violated: a simulator bug. Aborts.
 * fatal()  — the simulation cannot continue due to a user/configuration
 *            error. Exits with an error code.
 */

#ifndef THYNVM_COMMON_LOGGING_HH
#define THYNVM_COMMON_LOGGING_HH

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace thynvm {

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    using std::logic_error::logic_error;
};

/** Thrown by fatal(): a user or configuration error. */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail {

/** Renders a printf-style format string to a std::string. */
std::string vformat(const char* fmt, std::va_list args);

/** printf-style formatting returning std::string. */
std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

[[noreturn]] void panicImpl(const char* file, int line, const std::string&);
[[noreturn]] void fatalImpl(const char* file, int line, const std::string&);

} // namespace detail

} // namespace thynvm

/** Report a simulator bug and abort. */
#define panic(...) \
    ::thynvm::detail::panicImpl(__FILE__, __LINE__, \
                                ::thynvm::detail::format(__VA_ARGS__))

/** Report an unrecoverable user error and exit(1). */
#define fatal(...) \
    ::thynvm::detail::fatalImpl(__FILE__, __LINE__, \
                                ::thynvm::detail::format(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define panic_if(cond, ...) \
    do { \
        if (cond) { \
            panic(__VA_ARGS__); \
        } \
    } while (0)

/** fatal() unless the condition is false. */
#define fatal_if(cond, ...) \
    do { \
        if (cond) { \
            fatal(__VA_ARGS__); \
        } \
    } while (0)

#endif // THYNVM_COMMON_LOGGING_HH
