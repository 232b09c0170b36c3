/**
 * @file
 * Typed key-value configuration store.
 *
 * Components take a Config (or structured parameter objects built from
 * one).  Keys are dotted strings ("noc.vcs"), values are stored as
 * strings and converted on access with defaulting.  Parsing supports
 * "key = value" lines with '#' comments, so experiment sweeps can be
 * driven from small config files as well as programmatic overrides.
 */

#ifndef TENOC_COMMON_CONFIG_HH
#define TENOC_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tenoc
{

/** Simulator version string baked into config hashes. */
const char *simulatorVersion();

/** Dotted-key configuration dictionary with typed accessors. */
class Config
{
  public:
    Config() = default;

    /** Sets (or overrides) a key from any streamable value. */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, const char *value);
    void set(const std::string &key, bool value);
    void set(const std::string &key, std::int64_t value);
    void set(const std::string &key, std::uint64_t value);
    void set(const std::string &key, int value);
    void set(const std::string &key, unsigned value);
    void set(const std::string &key, double value);

    /** @return true if the key is present. */
    bool has(const std::string &key) const;

    /** Typed getters; fatal() on malformed values. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    bool getBool(const std::string &key, bool def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    std::uint64_t getUint(const std::string &key, std::uint64_t def) const;
    double getDouble(const std::string &key, double def) const;

    /**
     * Parses "key = value" lines; '#' starts a comment; blank lines are
     * ignored.  @return number of keys set.
     */
    std::size_t parseText(const std::string &text);

    /** Merges another config over this one (other wins on conflict). */
    void merge(const Config &other);

    /** @return all keys in sorted order (for dumping). */
    std::vector<std::string> keys() const;

    /** Renders the config as "key = value" lines. */
    std::string toText() const;

    /**
     * Canonical dump used for content addressing: sorted
     * "key = value" lines followed by the simulator version string,
     * so two Configs hash equal iff they contain the same keys and
     * values and were built by the same simulator version.
     */
    std::string canonicalText() const;

    /** FNV-1a (64-bit) over canonicalText(). */
    std::uint64_t canonicalHash() const;

    /** canonicalHash() as a fixed-width lowercase hex string. */
    std::string canonicalHashHex() const;

  private:
    std::map<std::string, std::string> values_;
};

} // namespace tenoc

#endif // TENOC_COMMON_CONFIG_HH
