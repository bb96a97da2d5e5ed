/**
 * @file
 * Implementation of the logging helpers.
 */

#include "common/logging.hh"

#include <cstdio>
#include <vector>

namespace thynvm {
namespace detail {

std::string
vformat(const char* fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

std::string
format(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string result = vformat(fmt, args);
    va_end(args);
    return result;
}

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::string full =
        format("panic: %s (%s:%d)", msg.c_str(), file, line);
    std::fprintf(stderr, "%s\n", full.c_str());
    throw PanicError(full);
}

void
fatalImpl(const char* file, int line, const std::string& msg)
{
    std::string full =
        format("fatal: %s (%s:%d)", msg.c_str(), file, line);
    std::fprintf(stderr, "%s\n", full.c_str());
    throw FatalError(full);
}

} // namespace detail

} // namespace thynvm
