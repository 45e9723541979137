#ifndef RAW_HARNESS_CLI_HPP
#define RAW_HARNESS_CLI_HPP

/**
 * @file
 * Validated command-line number parsing shared by the rawcc tool and
 * the bench drivers.  std::atoi silently maps garbage to 0 and
 * accepts trailing junk and negatives, so every driver that sizes a
 * sweep or a worker pool from argv must go through these helpers:
 * they reject partial parses, overflow and out-of-range values with a
 * uniform "<tool>: <flag> expects <what>, got '<value>'" diagnostic
 * and exit code 2 (usage error), which tests/test_faults.cpp pins.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

namespace raw {
namespace cli {

[[noreturn]] inline void
bad_value(const char *tool, const char *flag, const char *got,
          const char *want)
{
    std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", tool, flag,
                 want, got);
    std::exit(2);
}

/** Reject an argument the tool does not know; exit 2. */
[[noreturn]] inline void
unknown_option(const char *tool, const char *arg)
{
    std::fprintf(stderr, "%s: unknown option %s\n", tool, arg);
    std::exit(2);
}

/** The value after flag argv[i], advancing @p i; exit 2 if missing. */
inline const char *
next_value(const char *tool, int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        bad_value(tool, argv[i], "", "a value");
    return argv[++i];
}

/** Parse a full decimal integer; reject trailing garbage/overflow. */
inline long
parse_long(const char *tool, const char *s, const char *flag)
{
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE)
        bad_value(tool, flag, s, "an integer");
    return v;
}

inline unsigned long long
parse_u64(const char *tool, const char *s, const char *flag)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE ||
        std::strchr(s, '-') != nullptr)
        bad_value(tool, flag, s, "a non-negative integer");
    return v;
}

inline double
parse_double(const char *tool, const char *s, const char *flag)
{
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE)
        bad_value(tool, flag, s, "a number");
    return v;
}

/** parse_long restricted to [lo, hi]; @p want names the range. */
inline long
parse_long_in(const char *tool, const char *s, const char *flag,
              long lo, long hi, const char *want)
{
    long v = parse_long(tool, s, flag);
    if (v < lo || v > hi)
        bad_value(tool, flag, s, want);
    return v;
}

/**
 * Parse a mesh size for --tiles: a power of two in [1, 1024].
 * mesh_shape() folds powers of two into near-square meshes (64 ->
 * 8x8, 128 -> 8x16); non-power-of-two counts degrade into elongated
 * shapes no benchmark schedule targets, and anything past 1024
 * exceeds what MachineConfig::validate() accepts — both are usage
 * errors, caught here with exit 2 before any compile starts.
 */
inline long
parse_tiles(const char *tool, const char *s, const char *flag)
{
    long v = parse_long(tool, s, flag);
    if (v < 1 || v > 1024 || (v & (v - 1)) != 0)
        bad_value(tool, flag, s,
                  "a power-of-two tile count in 1..1024");
    return v;
}

/**
 * Exit 1 with "<tool>: <what><path>" unless @p path can be opened for
 * writing, so a run never finishes only to find it cannot write its
 * report.  Creates nothing: a file it had to create is removed again.
 */
inline void
require_writable(const char *tool, const std::string &path,
                 const char *what = "cannot write ")
{
    std::error_code ec;
    const bool existed = std::filesystem::exists(path, ec);
    if (!std::ofstream(path, std::ios::app)) {
        std::fprintf(stderr, "%s: %s%s\n", tool, what, path.c_str());
        std::exit(1);
    }
    if (!existed)
        std::filesystem::remove(path, ec);
}

} // namespace cli
} // namespace raw

#endif // RAW_HARNESS_CLI_HPP
