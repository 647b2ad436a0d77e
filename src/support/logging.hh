/**
 * @file
 * Error-reporting and status-message helpers.
 *
 * Follows the gem5 convention: panic() for internal invariant violations
 * (simulator bugs), fatal() for user/configuration errors, warn()/inform()
 * for status messages that never stop the simulation.
 */

#ifndef ADORE_SUPPORT_LOGGING_HH
#define ADORE_SUPPORT_LOGGING_HH

#include <cstdarg>
#include <string>

namespace adore
{

/** Print a formatted message and abort: internal invariant violated. */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Print a formatted message and exit(1): user/configuration error. */
[[noreturn]] void fatalImpl(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Print a warning; the simulation continues. */
void warnImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational message; the simulation continues. */
void informImpl(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Enable/disable inform() output globally (off by default). */
void setVerbose(bool verbose);
bool verbose();

#define panic(...) ::adore::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::adore::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define warn(...) ::adore::warnImpl(__VA_ARGS__)
#define inform(...) ::adore::informImpl(__VA_ARGS__)

#define panic_if(cond, ...)                                                  \
    do {                                                                     \
        if (cond)                                                            \
            panic(__VA_ARGS__);                                             \
    } while (0)

#define fatal_if(cond, ...)                                                  \
    do {                                                                     \
        if (cond)                                                            \
            fatal(__VA_ARGS__);                                             \
    } while (0)

} // namespace adore

#endif // ADORE_SUPPORT_LOGGING_HH
