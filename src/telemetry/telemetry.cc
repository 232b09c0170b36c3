/**
 * @file
 * TelemetryHub and CLI flag parsing.
 */

#include "telemetry/telemetry.hh"

#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/log.hh"

namespace tenoc::telemetry
{

namespace
{

/**
 * Matches `--name value` / `--name=value` at argv[i].
 * @return true and sets `value` (advancing `i` past a separate value
 *         argument) on a match.  A matched flag with no value is
 *         fatal.
 */
bool
matchFlag(int argc, char **argv, int &i, const char *name,
          std::string &value)
{
    const char *arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0)
        return false;
    const std::size_t name_len = std::strlen(name);
    if (std::strncmp(arg + 2, name, name_len) != 0)
        return false;
    const char *rest = arg + 2 + name_len;
    if (*rest == '=') {
        value = rest + 1;
    } else if (*rest == '\0') {
        // A following "--..." argument is another flag, not a value:
        // --stats-json --trace t.json must not eat --trace.
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
            value = argv[++i];
    } else {
        return false; // prefix of a longer flag (e.g. --interval-csv)
    }
    if (value.empty())
        tenoc_fatal("telemetry flag --", name, " needs a value");
    return true;
}

/** Parses the value of a count flag: a whole number >= 1, or fatal. */
std::uint64_t
countValue(const char *name, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long n =
        std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || value[0] == '-' ||
        n < 1)
        tenoc_fatal("telemetry flag --", name, " wants a whole number "
                    ">= 1, got '", value, "'");
    return n;
}

} // namespace

TelemetryConfig
parseTelemetryFlags(int &argc, char **argv)
{
    TelemetryConfig cfg;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string value;
        // Longest names first: matchFlag rejects strict prefixes via
        // the '=' / '\0' check, but keeping this order makes that
        // obvious.
        if (matchFlag(argc, argv, i, "interval-csv", value)) {
            cfg.intervalCsvPath = value;
        } else if (matchFlag(argc, argv, i, "interval", value)) {
            cfg.intervalCycles = countValue("interval", value);
        } else if (matchFlag(argc, argv, i, "stats-json", value)) {
            cfg.statsJsonPath = value;
        } else if (matchFlag(argc, argv, i, "trace-sample", value)) {
            cfg.traceSampleEvery = countValue("trace-sample", value);
        } else if (matchFlag(argc, argv, i, "trace", value)) {
            cfg.tracePath = value;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    argv[argc] = nullptr;
    return cfg;
}

TelemetryHub::TelemetryHub(const TelemetryConfig &config)
    : config_(config)
{
    if (!config_.intervalCsvPath.empty())
        sampler_ =
            std::make_unique<IntervalSampler>(config_.intervalCycles);
    if (!config_.tracePath.empty())
        tracer_ =
            std::make_unique<ChromeTraceSink>(config_.traceSampleEvery);
}

TelemetryHub::~TelemetryHub() = default;

void
TelemetryHub::finish(Cycle now)
{
    if (sampler_)
        sampler_->finish(now);
}

bool
TelemetryHub::writeOutputs(const StatGroup *root)
{
    bool ok = true;
    auto toFile = [&](const std::string &path, auto &&writer) {
        std::ofstream os(path);
        if (!os) {
            warn("telemetry: cannot open '", path, "' for writing");
            ok = false;
            return;
        }
        writer(os);
        if (!os) {
            warn("telemetry: short write to '", path, "'");
            ok = false;
        }
    };
    if (!config_.statsJsonPath.empty()) {
        if (root) {
            toFile(config_.statsJsonPath, [&](std::ostream &os) {
                JsonValue doc = metricsToJson(*root);
                if (!config_.configHash.empty())
                    doc.set("config_hash",
                            JsonValue(config_.configHash));
                doc.write(os, 2);
                os << "\n";
            });
        } else {
            warn("telemetry: --stats-json requested but no stats "
                 "registry was provided");
            ok = false;
        }
    }
    if (sampler_ && !config_.intervalCsvPath.empty()) {
        toFile(config_.intervalCsvPath, [&](std::ostream &os) {
            sampler_->writeCsv(os);
            // Trailing metadata comment: the header row must stay on
            // line 1 for existing consumers.
            if (!config_.configHash.empty())
                os << "# config_hash=" << config_.configHash << "\n";
        });
    }
    if (tracer_ && !config_.tracePath.empty()) {
        toFile(config_.tracePath,
               [&](std::ostream &os) { tracer_->write(os); });
    }
    return ok;
}

} // namespace tenoc::telemetry
