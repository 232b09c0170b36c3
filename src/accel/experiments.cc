/**
 * @file
 * Experiment driver implementation.
 */

#include "accel/experiments.hh"

#include <cmath>
#include <cstdlib>

#include "common/log.hh"

namespace tenoc
{

ChipResult
runWorkload(const ChipParams &params, const KernelProfile &profile)
{
    Chip chip(params, profile);
    return chip.run();
}

std::vector<SuiteRun>
runSuite(const ChipParams &params, double scale)
{
    std::vector<SuiteRun> out;
    for (const auto &profile : workloadSuite()) {
        const KernelProfile scaled =
            scale == 1.0 ? profile : scaleWorkload(profile, scale);
        SuiteRun run;
        run.abbr = profile.abbr;
        run.cls = profile.expectedClass;
        run.result = runWorkload(params, scaled);
        out.push_back(std::move(run));
    }
    return out;
}

double
envScale(double def)
{
    const char *env = std::getenv("TENOC_SCALE");
    if (!env)
        return def;
    char *end = nullptr;
    const double v = std::strtod(env, &end);
    if (end == env || *end != '\0' || !(v > 0.0) || !std::isfinite(v)) {
        warn("ignoring invalid TENOC_SCALE='", env,
             "' (want a positive finite number)");
        return def;
    }
    return v;
}

} // namespace tenoc
