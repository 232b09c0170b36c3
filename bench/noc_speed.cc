/**
 * @file
 * Simulator speed microbenchmark: interconnect cycles per second and
 * flit-hops per second on the 6x6 baseline mesh, at low load and at
 * saturation, with the idle-skip scheduler against the reference
 * tick-everything scheduler.  Writes BENCH_noc_speed.json so the
 * simulator's performance trajectory is tracked across commits (see
 * docs/performance.md).
 *
 * Both schedulers are driven with the identical seeded workload, so
 * the run doubles as a cheap equivalence check: the benchmark fails if
 * the two modes diverge on any network statistic it samples.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "accel/experiments.hh"
#include "common/rng.hh"
#include "noc/mesh_network.hh"
#include "telemetry/json.hh"

namespace
{

using namespace tenoc;

struct SpeedPoint
{
    double load = 0.0;
    bool idleSkip = false;
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
 * probability `load` per cycle) and times the loop.  `dim` scales the
 * mesh (the mesh sweep runs 8x8 and up).
 */
SpeedPoint
runPoint(bool idle_skip, double load, Cycle cycles, unsigned dim = 6)
{
    MeshNetworkParams p; // defaults = 6x6 Table III baseline
    p.idleSkip = idle_skip;
    if (dim != 6) {
        p.topo.rows = dim;
        p.topo.cols = dim;
        p.topo.numMcs = dim;
    }
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
    pt.idleSkip = idle_skip;
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
    v.set("scheduler", JsonValue(pt.idleSkip ? "idle_skip"
                                             : "full_tick"));
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
    std::printf("  %-10s %12.3e cycles/s %12.3e hops/s (%.2fs wall)\n",
                pt.idleSkip ? "idle-skip" : "full-tick",
                pt.cyclesPerSec, pt.hopsPerSec, pt.wallSeconds);
    printProfile(pt.profile);
}

/**
 * Huge-mesh scaling sweep (`--mesh-sweep`): runs the identical
 * many-to-few workload at a fixed 0.1 flits/node/cycle injection rate
 * on 8x8 through 64x64 meshes (128x128 with `--huge`; it takes a
 * while) and reports the size-normalized simulation throughput
 * `cycles_per_sec_per_router` — aggregate router-cycles simulated per
 * wall second (icnt cycles/sec x routers).  The structure-of-arrays
 * hot path keeps this roughly flat as the mesh grows; a drop at large
 * dims means the per-router cost regressed.  Cycle counts shrink with
 * the router count so every point does comparable total work.
 */
int
runMeshSweep(bool huge, double scale, const std::string &compare_path);

/**
 * Regression gate (`--compare baseline.json`): matches the measured
 * points against a previously written BENCH_noc_speed.json on
 * (load, scheduler) and fails if any point's cycles/second dropped
 * more than the tolerance (default 15%, override with
 * TENOC_SPEED_TOLERANCE).  Compare against a baseline captured on the
 * same machine — absolute simulation rates do not transfer between
 * hosts (bench/baselines/ holds a reference-shape example; CI
 * regenerates its own).
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
        const double v = std::atof(env);
        if (v > 0.0 && v < 1.0)
            tolerance = v;
    }

    std::printf("\ncomparing against %s (tolerance -%.0f%%):\n",
                path.c_str(), tolerance * 100.0);
    int failures = 0;
    unsigned matched = 0;
    for (const SpeedPoint &pt : current) {
        const char *sched = pt.idleSkip ? "idle_skip" : "full_tick";
        const JsonValue *base = nullptr;
        for (const JsonValue &bp : points->asArray()) {
            if (!bp.isObject())
                continue;
            const JsonValue *load = bp.find("load");
            const JsonValue *scheduler = bp.find("scheduler");
            if (load && load->isNumber() &&
                load->asNumber() == pt.load && scheduler &&
                scheduler->isString() &&
                scheduler->asString() == sched) {
                base = &bp;
                break;
            }
        }
        if (!base) {
            std::printf("  load %.3f %-10s: no baseline point, "
                        "skipped\n", pt.load, sched);
            continue;
        }
        const JsonValue *rate = base->find("icnt_cycles_per_second");
        if (!rate || !rate->isNumber() || rate->asNumber() <= 0.0)
            continue;
        ++matched;
        const double ratio = pt.cyclesPerSec / rate->asNumber();
        const bool bad = ratio < 1.0 - tolerance;
        std::printf("  load %.3f %-10s: %.3e vs %.3e cycles/s "
                    "(%+.1f%%)%s\n",
                    pt.load, sched, pt.cyclesPerSec, rate->asNumber(),
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

/** One measured mesh-sweep row: (dim, load) keys a baseline point. */
struct MeshRate
{
    unsigned dim;
    double load;
    double perRouter;
};

/**
 * Mesh-sweep regression gate: matches baseline points on (dim, load)
 * and fails when `cycles_per_sec_per_router` dropped more than the
 * tolerance (TENOC_SPEED_TOLERANCE, default 15%).  Small meshes are
 * noisy in shared-runner CI, so only dims at or above the gate dim
 * (TENOC_MESH_GATE_DIM, default 32) fail the run; smaller points are
 * reported informationally.  Baselines written before the high-load
 * row existed carry no `load` field; those legacy points only match
 * the default low-load rows.
 */
int
compareMeshBaseline(const std::string &path,
                    const std::vector<MeshRate> &current)
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
        const double v = std::atof(env);
        if (v > 0.0 && v < 1.0)
            tolerance = v;
    }
    unsigned gate_dim = 32;
    if (const char *env = std::getenv("TENOC_MESH_GATE_DIM")) {
        const long v = std::atol(env);
        if (v >= 0)
            gate_dim = static_cast<unsigned>(v);
    }

    std::printf("\ncomparing against %s (tolerance -%.0f%%, gating "
                "dims >= %u):\n",
                path.c_str(), tolerance * 100.0, gate_dim);
    int failures = 0;
    unsigned matched = 0;
    for (const auto &[dim, load, rate] : current) {
        const JsonValue *base = nullptr;
        for (const JsonValue &bp : points->asArray()) {
            if (!bp.isObject())
                continue;
            const JsonValue *bdim = bp.find("dim");
            if (!bdim || !bdim->isNumber() ||
                static_cast<unsigned>(bdim->asNumber()) != dim)
                continue;
            const JsonValue *bload = bp.find("load");
            if (!bload || !bload->isNumber() ||
                bload->asNumber() != load)
                continue;
            base = &bp;
            break;
        }
        if (!base) {
            std::printf("  %3ux%-3u @%.2f: no baseline point, "
                        "skipped\n",
                        dim, dim, load);
            continue;
        }
        const JsonValue *brate = base->find("cycles_per_sec_per_router");
        if (!brate || !brate->isNumber() || brate->asNumber() <= 0.0)
            continue;
        ++matched;
        const double ratio = rate / brate->asNumber();
        const bool gated = dim >= gate_dim;
        const bool bad = gated && ratio < 1.0 - tolerance;
        std::printf("  %3ux%-3u @%.2f: %.3e vs %.3e router-cycles/s "
                    "(%+.1f%%)%s%s\n",
                    dim, dim, load, rate, brate->asNumber(),
                    (ratio - 1.0) * 100.0,
                    gated ? "" : "  [informational]",
                    bad ? "  REGRESSION" : "");
        if (bad)
            ++failures;
    }
    if (matched == 0) {
        std::fprintf(stderr, "noc_speed: no baseline points matched — "
                             "stale baseline file?\n");
        return 1;
    }
    if (failures != 0) {
        std::fprintf(stderr, "noc_speed: %d mesh point(s) regressed "
                             "more than %.0f%% in router-cycles/"
                             "second\n",
                     failures, tolerance * 100.0);
        return 1;
    }
    std::printf("  all %u matched point(s) within tolerance\n",
                matched);
    return 0;
}

int
runMeshSweep(bool huge, double scale, const std::string &compare_path)
{
    using telemetry::JsonValue;

    // Low-load scaling row at every dim, plus one saturated row
    // (0.4 flits/node/cycle) at the gate dim: low load exercises the
    // sleep-until-arrival scheduler, saturation the allocator and NI
    // hot paths — a regression in either shows up in its own row.
    const double LOAD = 0.1;
    const double HIGH_LOAD = 0.4;
    std::vector<unsigned> dims = {8, 16, 32, 64};
    if (huge)
        dims.push_back(128);

    std::printf("noc_speed --mesh-sweep: %.2f flits/node/cycle, "
                "8x8..%ux%u mesh (scale %.2f), plus %.2f at 64x64\n",
                LOAD, dims.back(), dims.back(), scale, HIGH_LOAD);

    JsonValue doc = JsonValue::makeObject();
    doc.set("benchmark", JsonValue("noc_speed"));
    doc.set("mode", JsonValue("mesh_sweep"));
    doc.set("topology", JsonValue("mesh"));
    doc.set("load", JsonValue(LOAD));
    doc.set("scale", JsonValue(scale));
    JsonValue points = JsonValue::makeArray();
    std::vector<MeshRate> rates;
    std::vector<std::pair<unsigned, double>> rows;
    for (const unsigned dim : dims)
        rows.emplace_back(dim, LOAD);
    rows.emplace_back(64, HIGH_LOAD);
    for (const auto &[dim, load] : rows) {
        // Constant total router-cycles per point: the 64x64 budget of
        // 2000 cycles scales up as the mesh shrinks.
        const double budget = 2000.0 * scale * (64.0 * 64.0) /
                              (static_cast<double>(dim) * dim);
        const auto cycles =
            std::max<Cycle>(100, static_cast<Cycle>(budget));
        const auto pt = runPoint(true, load, cycles, dim);
        const auto routers = static_cast<double>(dim) * dim;
        const double per_router = pt.cyclesPerSec * routers;
        rates.push_back(MeshRate{dim, load, per_router});
        std::printf("  %3ux%-3u @%.2f %8llu cycles %12.3e cycles/s "
                    "%12.3e router-cycles/s (%.2fs wall)\n",
                    dim, dim, load,
                    static_cast<unsigned long long>(pt.cycles),
                    pt.cyclesPerSec, per_router, pt.wallSeconds);
        printProfile(pt.profile);

        JsonValue v = pointJson(pt);
        v.set("dim", JsonValue(std::uint64_t{dim}));
        v.set("routers",
              JsonValue(static_cast<std::uint64_t>(routers)));
        v.set("cycles_per_sec_per_router", JsonValue(per_router));
        points.push(v);
    }
    doc.set("points", points);
    std::ofstream os("BENCH_noc_speed.json");
    doc.write(os);
    os << "\n";
    std::printf("\nwrote BENCH_noc_speed.json\n");
    if (!compare_path.empty())
        return compareMeshBaseline(compare_path, rates);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tenoc;

    // TENOC_SCALE (or a positional number) shortens the run for CI
    // smoke tests; --mesh-sweep [--huge] switches to the 8x8..64x64
    // (..128x128) scaling sweep; --compare FILE gates on a prior
    // BENCH_noc_speed.json of the same mode.
    double scale = envScale(1.0);
    bool mesh_sweep = false;
    bool mesh_huge = false;
    std::string compare_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--mesh-sweep") {
            mesh_sweep = true;
        } else if (arg == "--profile") {
            g_profile = true;
        } else if (arg == "--huge") {
            mesh_huge = true;
        } else if (arg == "--compare" && i + 1 < argc) {
            compare_path = argv[++i];
        } else {
            const double v = std::atof(arg.c_str());
            if (v > 0.0)
                scale = v;
        }
    }
    if (mesh_sweep)
        return runMeshSweep(mesh_huge, scale, compare_path);
    const auto low_cycles =
        static_cast<Cycle>(200000 * scale);
    const auto sat_cycles =
        static_cast<Cycle>(50000 * scale);

    std::printf("noc_speed: 6x6 baseline mesh, idle-skip vs "
                "full-tick scheduler (scale %.2f)\n", scale);

    const double LOW_LOAD = 0.005;
    const double SAT_LOAD = 0.20; // far past many-to-few saturation
    const auto low_ref = runPoint(false, LOW_LOAD, low_cycles);
    const auto low_skip = runPoint(true, LOW_LOAD, low_cycles);
    const auto sat_ref = runPoint(false, SAT_LOAD, sat_cycles);
    const auto sat_skip = runPoint(true, SAT_LOAD, sat_cycles);

    // Both modes ran the identical seeded workload; any statistical
    // divergence means the idle-skip scheduler is broken.
    if (low_ref.hops != low_skip.hops ||
        low_ref.packets != low_skip.packets ||
        sat_ref.hops != sat_skip.hops ||
        sat_ref.packets != sat_skip.packets) {
        std::fprintf(stderr, "noc_speed: idle-skip diverged from the "
                             "reference scheduler!\n");
        return 1;
    }

    std::printf("\nlow load (%.3f flits/node/cycle):\n", LOW_LOAD);
    printPoint(low_ref);
    printPoint(low_skip);
    const double low_speedup = low_ref.cyclesPerSec > 0.0
        ? low_skip.cyclesPerSec / low_ref.cyclesPerSec : 0.0;
    std::printf("  idle-skip speedup: %.2fx\n", low_speedup);

    std::printf("\nsaturation (offered %.2f flits/node/cycle):\n",
                SAT_LOAD);
    printPoint(sat_ref);
    printPoint(sat_skip);
    const double sat_speedup = sat_ref.cyclesPerSec > 0.0
        ? sat_skip.cyclesPerSec / sat_ref.cyclesPerSec : 0.0;
    std::printf("  idle-skip speedup: %.2fx\n", sat_speedup);

    using telemetry::JsonValue;
    JsonValue doc = JsonValue::makeObject();
    doc.set("benchmark", JsonValue("noc_speed"));
    doc.set("topology", JsonValue("6x6"));
    doc.set("scale", JsonValue(scale));
    JsonValue points = JsonValue::makeArray();
    for (const auto &pt : {low_ref, low_skip, sat_ref, sat_skip})
        points.push(pointJson(pt));
    doc.set("points", points);
    doc.set("low_load_speedup", JsonValue(low_speedup));
    doc.set("saturation_speedup", JsonValue(sat_speedup));
    std::ofstream os("BENCH_noc_speed.json");
    doc.write(os);
    os << "\n";
    std::printf("\nwrote BENCH_noc_speed.json\n");
    if (!compare_path.empty())
        return compareBaseline(compare_path,
                               {low_ref, low_skip, sat_ref, sat_skip});
    return 0;
}
