/**
 * @file
 * Strict text parsers for list, size, integer and bool values: the
 * spec's `threads = 2,4,8,16` and `llc = 1M,2M,4M,8M`, the
 * `machine.*` keys and the command-line flags that set them. Every
 * parser throws std::invalid_argument naming the bad text.
 */

#ifndef SST_UTIL_PARSE_HH
#define SST_UTIL_PARSE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sst {

/** Split "a, b,c" at commas, dropping whitespace; empty items stay. */
std::vector<std::string> splitCommas(const std::string &text);

/** Parse "2,4,8,16" into integers in [@p min, 2^20]. Throws
 *  std::invalid_argument. */
std::vector<int> parseIntList(const std::string &text, int min = 1);

/** Parse "a,b,c" into labels. Throws std::invalid_argument on empties. */
std::vector<std::string> parseLabelList(const std::string &text);

/**
 * Parse one size with an optional K/M/G suffix (case-insensitive):
 * "512K" -> 524288, "2M" -> 2097152, "4096" -> 4096.
 * Throws std::invalid_argument.
 */
std::uint64_t parseSize(const std::string &text);

/**
 * Render @p bytes in the shortest suffixed form parseSize() round-trips
 * ("2M", "64K", "1536" for non-multiples).
 */
std::string sizeText(std::uint64_t bytes);

/**
 * Strict base-10 u64 for spec values: digits only, so signs ("-1"
 * would silently wrap through strtoull), whitespace and suffixes are
 * all rejected. @p what names the key in the error. The one integer
 * parser behind every spec-level value (machine keys, seed-offset,
 * sched-seed).
 */
std::uint64_t parseU64Text(const char *what, const std::string &text);

/** Strict bool for spec values: true/1 or false/0. */
bool parseBoolText(const char *what, const std::string &text);

} // namespace sst

#endif // SST_UTIL_PARSE_HH
