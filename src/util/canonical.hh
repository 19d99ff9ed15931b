/**
 * @file
 * Canonical `key=value` text and its 64-bit FNV-1a digest: the form
 * job fingerprints and trace workload hashes are built in. One writer
 * per value type, so a field prints the same wherever it is encoded.
 */

#ifndef SST_UTIL_CANONICAL_HH
#define SST_UTIL_CANONICAL_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

namespace sst {

/** FNV-1a 64-bit hash of @p data. */
inline std::uint64_t
fnv1a64(const std::string &data)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : data) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Append `key=value\n` to @p out. */
inline void
putKey(std::string &out, const char *key, std::uint64_t v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 "\n", key, v);
    out += buf;
}

inline void
putKey(std::string &out, const char *key, int v)
{
    putKey(out, key, static_cast<std::uint64_t>(v));
}

inline void
putKey(std::string &out, const char *key, bool v)
{
    putKey(out, key, static_cast<std::uint64_t>(v ? 1 : 0));
}

inline void
putKey(std::string &out, const char *key, double v)
{
    // %.17g round-trips every IEEE-754 double exactly.
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
    out += buf;
}

inline void
putKey(std::string &out, const char *key, const std::string &v)
{
    out += key;
    out += '=';
    out += v;
    out += '\n';
}

} // namespace sst

#endif // SST_UTIL_CANONICAL_HH
