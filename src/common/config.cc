/**
 * @file
 * Config implementation.
 */

#include "common/config.hh"

#include "common/log.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>

namespace tenoc
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

} // namespace

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, const char *value)
{
    values_[key] = value;
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = value ? "true" : "false";
}

void
Config::set(const std::string &key, std::int64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, std::uint64_t value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, int value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, unsigned value)
{
    values_[key] = std::to_string(value);
}

void
Config::set(const std::string &key, double value)
{
    // The shortest text that reads back as the same double.
    char buf[32];
    const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    values_[key] = std::string(buf, end);
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    std::string v = it->second;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    tenoc_fatal("config key '", key, "' has non-boolean value '",
                it->second, "'");
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    try {
        std::size_t pos = 0;
        std::int64_t v = std::stoll(it->second, &pos, 0);
        if (pos != it->second.size())
            throw std::invalid_argument("trailing junk");
        return v;
    } catch (const std::exception &) {
        tenoc_fatal("config key '", key, "' has non-integer value '",
                    it->second, "'");
    }
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    // std::stoull accepts a leading '-' and wraps the value modulo 2^64.
    if (it->second.find('-') != std::string::npos) {
        tenoc_fatal("config key '", key, "' must be a non-negative"
                    " integer (got '", it->second, "')");
    }
    try {
        std::size_t pos = 0;
        std::uint64_t v = std::stoull(it->second, &pos, 0);
        if (pos != it->second.size())
            throw std::invalid_argument("trailing junk");
        return v;
    } catch (const std::exception &) {
        tenoc_fatal("config key '", key, "' has non-integer value '",
                    it->second, "'");
    }
}

std::uint32_t
Config::getUint32(const std::string &key, std::uint32_t def) const
{
    const std::uint64_t v = getUint(key, def);
    if (v > UINT32_MAX) {
        tenoc_fatal("config key '", key, "' value ", v,
                    " exceeds the 32-bit maximum ", UINT32_MAX);
    }
    return static_cast<std::uint32_t>(v);
}

double
Config::getDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    try {
        std::size_t pos = 0;
        double v = std::stod(it->second, &pos);
        if (pos != it->second.size())
            throw std::invalid_argument("trailing junk");
        return v;
    } catch (const std::exception &) {
        tenoc_fatal("config key '", key, "' has non-numeric value '",
                    it->second, "'");
    }
}

std::size_t
Config::parseText(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    std::size_t n = 0;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            tenoc_fatal("config parse error at line ", line_no,
                        ": missing '=' in '", line, "'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            tenoc_fatal("config parse error at line ", line_no,
                        ": empty key");
        set(key, value);
        ++n;
    }
    return n;
}

void
Config::merge(const Config &other)
{
    for (const auto &[k, v] : other.values_)
        values_[k] = v;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[k, v] : values_)
        out.push_back(k);
    return out;
}

std::string
Config::toText() const
{
    std::ostringstream os;
    for (const auto &[k, v] : values_)
        os << k << " = " << v << "\n";
    return os.str();
}

const char *
simulatorVersion()
{
    // Major.minor of the simulator's model behaviour; bumped whenever
    // a model change alters simulation results for a fixed config.
    return "tenoc-6.3";
}

std::string
Config::canonicalText() const
{
    // values_ is a std::map, so toText() already emits keys sorted;
    // appending the simulator version makes the hash reject results
    // produced by a build with different model behaviour.
    return toText() + "# simulator = " + simulatorVersion() + "\n";
}

std::uint64_t
Config::canonicalHash() const
{
    const std::string text = canonicalText();
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
Config::canonicalHashHex() const
{
    static const char digits[] = "0123456789abcdef";
    const std::uint64_t h = canonicalHash();
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i)
        out[15 - i] = digits[(h >> (4 * i)) & 0xf];
    return out;
}

} // namespace tenoc
