#include "parse.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace sst {

std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> parts;
    std::string cur;
    for (const char c : text) {
        if (c == ',') {
            parts.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur += c;
        }
    }
    parts.push_back(cur);
    return parts;
}

std::vector<int>
parseIntList(const std::string &text, int min)
{
    std::vector<int> out;
    for (const std::string &part : splitCommas(text)) {
        if (part.empty())
            throw std::invalid_argument("empty entry in list '" + text +
                                        "'");
        errno = 0;
        char *end = nullptr;
        const long v = std::strtol(part.c_str(), &end, 10);
        if (errno != 0 || !end || *end != '\0' || v < min || v > 1 << 20)
            throw std::invalid_argument("bad integer '" + part + "'");
        out.push_back(static_cast<int>(v));
    }
    return out;
}

std::vector<std::string>
parseLabelList(const std::string &text)
{
    std::vector<std::string> out = splitCommas(text);
    for (const std::string &label : out)
        if (label.empty())
            throw std::invalid_argument("empty entry in list '" + text +
                                        "'");
    return out;
}

std::uint64_t
parseSize(const std::string &text)
{
    if (text.empty())
        throw std::invalid_argument("empty size");
    std::uint64_t mult = 1;
    std::string digits = text;
    const char suffix =
        static_cast<char>(std::toupper(static_cast<unsigned char>(
            text.back())));
    if (suffix == 'K' || suffix == 'M' || suffix == 'G') {
        mult = suffix == 'K' ? 1024ULL
                             : suffix == 'M' ? 1024ULL * 1024
                                             : 1024ULL * 1024 * 1024;
        digits = text.substr(0, text.size() - 1);
    }
    if (digits.empty())
        throw std::invalid_argument("bad size '" + text + "'");
    // Digits only: strtoull silently wraps "-5" to a huge value.
    for (const char c : digits)
        if (c < '0' || c > '9')
            throw std::invalid_argument("bad size '" + text + "'");
    errno = 0;
    char *end = nullptr;
    const std::uint64_t v = std::strtoull(digits.c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0' || v == 0)
        throw std::invalid_argument("bad size '" + text + "'");
    return v * mult;
}

std::string
sizeText(std::uint64_t bytes)
{
    constexpr std::uint64_t K = 1024, M = K * K, G = M * K;
    if (bytes >= G && bytes % G == 0)
        return std::to_string(bytes / G) + "G";
    if (bytes >= M && bytes % M == 0)
        return std::to_string(bytes / M) + "M";
    if (bytes >= K && bytes % K == 0)
        return std::to_string(bytes / K) + "K";
    return std::to_string(bytes);
}

std::uint64_t
parseU64Text(const char *what, const std::string &text)
{
    // Digits only: strtoull would silently wrap "-1" to 2^64-1, so a
    // character check is the only safe strictness.
    if (text.empty() || text.size() > 20)
        throw std::invalid_argument(std::string("bad value for ") +
                                    what + ": '" + text + "'");
    for (const char c : text)
        if (c < '0' || c > '9')
            throw std::invalid_argument(
                std::string("bad value for ") + what + ": '" + text +
                "' (expected an unsigned integer)");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || !end || *end != '\0')
        throw std::invalid_argument(std::string("bad value for ") +
                                    what + ": '" + text + "'");
    return v;
}

bool
parseBoolText(const char *what, const std::string &text)
{
    if (text == "true" || text == "1")
        return true;
    if (text == "false" || text == "0")
        return false;
    throw std::invalid_argument(std::string("bad value for ") + what +
                                ": '" + text +
                                "' (expected true or false)");
}

} // namespace sst
