/**
 * @file
 * Simulator speed microbenchmark: interconnect cycles per second and
 * flit-hops per second on the 6x6 baseline mesh, at low load and at
 * saturation.  Writes BENCH_noc_speed.json so the simulator's
 * performance trajectory is tracked across commits (see
 * docs/performance.md).
 *
 * Usage: noc_speed [scale] [--profile] [--compare FILE]
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "accel/experiments.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "noc/mesh_network.hh"
#include "telemetry/json.hh"

namespace
{

using namespace tenoc;

struct SpeedPoint
{
    double load = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t hops = 0;
    std::uint64_t packets = 0;
    double wallSeconds = 0.0;
    double cyclesPerSec = 0.0;
    double hopsPerSec = 0.0;
    /** Per-phase wall-time breakdown (--profile); cycles == 0 when
     *  profiling was off for this point. */
    PhaseProfile profile;
};

/** --profile: attach a PhaseProfile to every measured network and
 *  emit the per-phase breakdown alongside each point. */
bool g_profile = false;

/** Discards ejected packets without backpressure. */
struct NullSink : PacketSink
{
    bool tryReserve(const Packet &) override { return true; }
    void deliver(PacketPtr, Cycle) override {}
};

/**
 * Runs `cycles` interconnect cycles of many-to-few request traffic
 * (each compute node injects a 1-flit packet to a random MC with
 * probability `load` per cycle) and times the loop.
 */
SpeedPoint
runPoint(double load, Cycle cycles)
{
    MeshNetworkParams p; // defaults = 6x6 Table III baseline
    MeshNetwork net(p);
    PhaseProfile profile;
    if (g_profile)
        net.setPhaseProfile(&profile);
    NullSink sink;
    const auto &topo = net.topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net.setSink(n, &sink);

    Rng rng(7);
    const auto t0 = std::chrono::steady_clock::now();
    for (Cycle now = 0; now < cycles; ++now) {
        for (NodeId core : topo.computeNodes()) {
            if (rng.nextBool(load) && net.canInject(core, 0)) {
                auto pkt = makePacket();
                pkt->src = core;
                pkt->dst = rng.pick(topo.mcNodes());
                pkt->sizeFlits = 1;
                pkt->sizeBytes = p.flitBytes;
                net.inject(std::move(pkt), now);
            }
        }
        net.cycle(now);
    }
    const auto t1 = std::chrono::steady_clock::now();

    SpeedPoint pt;
    pt.load = load;
    pt.cycles = cycles;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        pt.hops += net.router(n).flitsTraversed();
    pt.packets = net.stats().packetsEjected;
    pt.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    if (pt.wallSeconds > 0.0) {
        pt.cyclesPerSec = static_cast<double>(cycles) / pt.wallSeconds;
        pt.hopsPerSec = static_cast<double>(pt.hops) / pt.wallSeconds;
    }
    pt.profile = profile;
    return pt;
}

void
printProfile(const PhaseProfile &pr)
{
    if (pr.cycles == 0)
        return;
    const double total = static_cast<double>(
        pr.readInputsNs + pr.injectNs + pr.computeNs + pr.drainNs +
        pr.bookkeepingNs);
    const auto pct = [&](std::uint64_t ns) {
        return total > 0.0 ? 100.0 * static_cast<double>(ns) / total
                           : 0.0;
    };
    std::printf("    phases: readInputs %.1f%%  inject %.1f%%  "
                "compute %.1f%%  drain %.1f%%  bookkeeping %.1f%%\n",
                pct(pr.readInputsNs), pct(pr.injectNs),
                pct(pr.computeNs), pct(pr.drainNs),
                pct(pr.bookkeepingNs));
}

telemetry::JsonValue
pointJson(const SpeedPoint &pt)
{
    using telemetry::JsonValue;
    JsonValue v = JsonValue::makeObject();
    v.set("load", JsonValue(pt.load));
    v.set("icnt_cycles", JsonValue(pt.cycles));
    v.set("flit_hops", JsonValue(pt.hops));
    v.set("packets_ejected", JsonValue(pt.packets));
    v.set("wall_seconds", JsonValue(pt.wallSeconds));
    v.set("icnt_cycles_per_second", JsonValue(pt.cyclesPerSec));
    v.set("flit_hops_per_second", JsonValue(pt.hopsPerSec));
    if (pt.profile.cycles != 0) {
        const PhaseProfile &pr = pt.profile;
        JsonValue prof = JsonValue::makeObject();
        prof.set("cycles", JsonValue(pr.cycles));
        prof.set("read_inputs_ns", JsonValue(pr.readInputsNs));
        prof.set("inject_ns", JsonValue(pr.injectNs));
        prof.set("compute_ns", JsonValue(pr.computeNs));
        prof.set("drain_ns", JsonValue(pr.drainNs));
        prof.set("bookkeeping_ns", JsonValue(pr.bookkeepingNs));
        v.set("phase_profile", prof);
    }
    return v;
}

void
printPoint(const SpeedPoint &pt)
{
    std::printf("  %12.3e cycles/s %12.3e hops/s (%.2fs wall)\n",
                pt.cyclesPerSec, pt.hopsPerSec, pt.wallSeconds);
    printProfile(pt.profile);
}

/**
 * Regression gate (`--compare baseline.json`): matches the measured
 * points against a previously written BENCH_noc_speed.json on load
 * and fails if any point's cycles/second dropped more than the
 * tolerance (default 15%, override with TENOC_SPEED_TOLERANCE, a
 * fraction in (0, 1)).  Compare against a baseline captured on the
 * same machine —
 * absolute simulation rates do not transfer between hosts
 * (bench/baselines/ holds a reference-shape example; CI regenerates
 * its own).
 */
int
compareBaseline(const std::string &path,
                const std::vector<SpeedPoint> &current)
{
    using telemetry::JsonValue;

    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "noc_speed: cannot open baseline '%s'\n",
                     path.c_str());
        return 1;
    }
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    JsonValue doc;
    std::string err;
    if (!JsonValue::parse(text, doc, &err) || !doc.isObject()) {
        std::fprintf(stderr, "noc_speed: bad baseline '%s': %s\n",
                     path.c_str(), err.c_str());
        return 1;
    }
    const JsonValue *points = doc.find("points");
    if (!points || !points->isArray()) {
        std::fprintf(stderr,
                     "noc_speed: baseline '%s' has no points array\n",
                     path.c_str());
        return 1;
    }

    double tolerance = 0.15;
    if (const char *env = std::getenv("TENOC_SPEED_TOLERANCE")) {
        char *end = nullptr;
        const double v = std::strtod(env, &end);
        if (end != env && *end == '\0' && v > 0.0 && v < 1.0)
            tolerance = v;
        else
            warn("ignoring invalid TENOC_SPEED_TOLERANCE='", env,
                 "' (want a fraction in (0, 1))");
    }

    std::printf("\ncomparing against %s (tolerance -%.0f%%):\n",
                path.c_str(), tolerance * 100.0);
    int failures = 0;
    unsigned matched = 0;
    for (const SpeedPoint &pt : current) {
        const JsonValue *base = nullptr;
        for (const JsonValue &bp : points->asArray()) {
            if (!bp.isObject())
                continue;
            const JsonValue *load = bp.find("load");
            if (load && load->isNumber() &&
                load->asNumber() == pt.load) {
                base = &bp;
                break;
            }
        }
        if (!base) {
            std::printf("  load %.3f: no baseline point, skipped\n",
                        pt.load);
            continue;
        }
        const JsonValue *rate = base->find("icnt_cycles_per_second");
        if (!rate || !rate->isNumber() || rate->asNumber() <= 0.0)
            continue;
        ++matched;
        const double ratio = pt.cyclesPerSec / rate->asNumber();
        const bool bad = ratio < 1.0 - tolerance;
        std::printf("  load %.3f: %.3e vs %.3e cycles/s (%+.1f%%)%s\n",
                    pt.load, pt.cyclesPerSec, rate->asNumber(),
                    (ratio - 1.0) * 100.0, bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }
    if (matched == 0) {
        std::fprintf(stderr, "noc_speed: no baseline points matched — "
                             "stale baseline file?\n");
        return 1;
    }
    if (failures != 0) {
        std::fprintf(stderr, "noc_speed: %d point(s) regressed more "
                             "than %.0f%% in cycles/second\n",
                     failures, tolerance * 100.0);
        return 1;
    }
    std::printf("  all %u matched point(s) within tolerance\n",
                matched);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tenoc;

    // TENOC_SCALE (or a positional number) shortens the run for CI
    // smoke tests; --compare FILE gates on a prior
    // BENCH_noc_speed.json.  Anything else is fatal.
    double scale = envScale(1.0);
    std::string compare_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--profile") {
            g_profile = true;
            continue;
        }
        if (arg == "--compare" && i + 1 < argc) {
            compare_path = argv[++i];
            continue;
        }
        char *end = nullptr;
        const double v = std::strtod(argv[i], &end);
        if (end == argv[i] || *end != '\0' || !(v > 0.0) ||
            !std::isfinite(v)) {
            const std::string why = arg == "--compare"
                ? "--compare needs a path"
                : "unknown argument '" + arg + "'";
            tenoc_fatal(why, "; usage: noc_speed [scale] [--profile] "
                             "[--compare FILE]");
        }
        scale = v;
    }
    const auto low_cycles =
        static_cast<Cycle>(200000 * scale);
    const auto sat_cycles =
        static_cast<Cycle>(50000 * scale);

    std::printf("noc_speed: 6x6 baseline mesh (scale %.2f)\n", scale);

    const double LOW_LOAD = 0.005;
    const double SAT_LOAD = 0.20; // far past many-to-few saturation
    const auto low = runPoint(LOW_LOAD, low_cycles);
    const auto sat = runPoint(SAT_LOAD, sat_cycles);

    std::printf("\nlow load (%.3f flits/node/cycle):\n", LOW_LOAD);
    printPoint(low);
    std::printf("\nsaturation (offered %.2f flits/node/cycle):\n",
                SAT_LOAD);
    printPoint(sat);

    using telemetry::JsonValue;
    JsonValue doc = JsonValue::makeObject();
    doc.set("benchmark", JsonValue("noc_speed"));
    doc.set("topology", JsonValue("6x6"));
    doc.set("scale", JsonValue(scale));
    JsonValue points = JsonValue::makeArray();
    for (const auto &pt : {low, sat})
        points.push(pointJson(pt));
    doc.set("points", points);
    std::ofstream os("BENCH_noc_speed.json");
    doc.write(os);
    os << "\n";
    std::printf("\nwrote BENCH_noc_speed.json\n");
    if (!compare_path.empty())
        return compareBaseline(compare_path, {low, sat});
    return 0;
}
