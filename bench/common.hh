/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses.
 *
 * Every binary regenerates one figure or table from the paper's
 * evaluation section and prints the same rows/series the paper
 * reports.  Kernel lengths can be scaled with TENOC_SCALE (or argv[1])
 * for quick runs; shapes are stable from about 0.3 upward.
 */

#ifndef TENOC_BENCH_COMMON_HH
#define TENOC_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "accel/experiments.hh"
#include "area/area_model.hh"
#include "telemetry/telemetry.hh"

#include "sweep.hh"

namespace tenoc::bench
{

/** Prints the standard harness banner. */
inline void
banner(const char *what, const char *paper_says)
{
    std::printf("==============================================================\n");
    std::printf("tenoc reproduction: %s\n", what);
    std::printf("paper reference: %s\n", paper_says);
    std::printf("==============================================================\n");
}

/** Scale factor from argv[1] or TENOC_SCALE (default 1.0). */
inline double
scaleFromArgs(int argc, char **argv, double def = 1.0)
{
    if (argc > 1) {
        const double v = std::atof(argv[1]);
        if (v > 0.0)
            return v;
    }
    return envScale(def);
}

/** Runs the full suite under a config, with a progress note. */
inline std::vector<SuiteRun>
suite(ConfigId id, double scale)
{
    std::fprintf(stderr, "[bench] running suite: %s (scale %.2f)\n",
                 configName(id), scale);
    return runSuite(id, scale);
}

/**
 * Runs the full suite under several configs at once, fanning the
 * independent (config, workload) points over the sweep thread pool.
 * Results are grouped back per config in argument order and each group
 * is byte-identical to the sequential suite(id, scale) run (every
 * point seeds its own RNG; see bench/sweep.hh).
 */
inline std::vector<std::vector<SuiteRun>>
suites(const std::vector<ConfigId> &ids, double scale)
{
    const auto &profiles = workloadSuite();
    const std::size_t per = profiles.size();
    for (auto id : ids) {
        std::fprintf(stderr,
                     "[bench] running suite: %s (scale %.2f, "
                     "%u threads)\n",
                     configName(id), scale, sweepThreads());
    }
    const auto flat =
        sweepMap(ids.size() * per, [&](std::size_t i) {
            const ConfigId id = ids[i / per];
            const KernelProfile &profile = profiles[i % per];
            const KernelProfile scaled = scale == 1.0
                ? profile : scaleWorkload(profile, scale);
            SuiteRun run;
            run.abbr = profile.abbr;
            run.cls = profile.expectedClass;
            run.result = runWorkload(makeConfig(id), scaled);
            return run;
        });
    std::vector<std::vector<SuiteRun>> grouped(ids.size());
    for (std::size_t c = 0; c < ids.size(); ++c) {
        grouped[c].assign(flat.begin() + c * per,
                          flat.begin() + (c + 1) * per);
    }
    return grouped;
}

/** suites() for explicit ChipParams (ablations that tweak fields). */
inline std::vector<std::vector<SuiteRun>>
suites(const std::vector<ChipParams> &configs, double scale)
{
    const auto &profiles = workloadSuite();
    const std::size_t per = profiles.size();
    const auto flat =
        sweepMap(configs.size() * per, [&](std::size_t i) {
            const KernelProfile &profile = profiles[i % per];
            const KernelProfile scaled = scale == 1.0
                ? profile : scaleWorkload(profile, scale);
            SuiteRun run;
            run.abbr = profile.abbr;
            run.cls = profile.expectedClass;
            run.result = runWorkload(configs[i / per], scaled);
            return run;
        });
    std::vector<std::vector<SuiteRun>> grouped(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        grouped[c].assign(flat.begin() + c * per,
                          flat.begin() + (c + 1) * per);
    }
    return grouped;
}

/** Formats a ratio as a signed percentage. */
inline std::string
pct(double ratio)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * (ratio - 1.0));
    return buf;
}

/** Prints one per-benchmark speedup series with class annotations. */
inline void
printSpeedupSeries(const char *label,
                   const std::vector<SuiteRun> &base,
                   const std::vector<SuiteRun> &test)
{
    std::printf("\n%-6s", "bench");
    std::printf("%-5s %10s\n", "class", label);
    const auto sp = speedups(base, test);
    for (std::size_t i = 0; i < base.size(); ++i) {
        std::printf("%-6s %-5s %10s\n", base[i].abbr.c_str(),
                    trafficClassName(base[i].cls), pct(sp[i]).c_str());
    }
    std::printf("%-6s %-5s %10s   (harmonic mean)\n", "HM", "all",
                pct(harmonicMeanSpeedup(base, test)).c_str());
}

/** Per-class harmonic-mean speedup line. */
inline void
printClassMeans(const std::vector<SuiteRun> &base,
                const std::vector<SuiteRun> &test)
{
    for (auto cls : {TrafficClass::LL, TrafficClass::LH,
                     TrafficClass::HH}) {
        std::vector<double> v;
        for (std::size_t i = 0; i < base.size(); ++i)
            if (base[i].cls == cls)
                v.push_back(test[i].result.ipc / base[i].result.ipc);
        std::printf("  HM speedup %s: %s\n", trafficClassName(cls),
                    pct(harmonicMean(v)).c_str());
    }
}

/** Chip area (mm^2) for a named configuration. */
inline double
chipAreaFor(ConfigId id)
{
    const AreaModel model;
    return model.chipArea(model.meshArea(areaSpecFor(id)));
}

/**
 * Runs one instrumented workload and writes any telemetry outputs the
 * user requested (--stats-json / --interval-csv / --trace; parse
 * them out of argv with parseTelemetryFlags *before* reading
 * positional arguments).  No-op when no flag was given, so
 * harnesses can call this unconditionally after their normal output.
 */
inline void
runTelemetryWorkload(const telemetry::TelemetryConfig &cfg, ConfigId id,
                     double scale, const std::string &workload = "MM")
{
    if (!cfg.any())
        return;
    std::fprintf(stderr,
                 "[bench] telemetry run: %s on %s (scale %.2f)\n",
                 workload.c_str(), configName(id), scale);
    telemetry::TelemetryHub hub(cfg);
    const auto prof = scaleWorkload(findWorkload(workload), scale);
    runWorkload(makeConfig(id), prof, &hub);
}

} // namespace tenoc::bench

#endif // TENOC_BENCH_COMMON_HH
