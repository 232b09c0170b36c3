/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: cycles
 * per second for routers, the mesh, the DRAM channel, and a full
 * closed-loop chip.  Useful when optimizing the simulator.
 *
 * Also the telemetry harness: every run times one instrumented
 * closed-loop chip and writes BENCH_telemetry.json (cycles simulated,
 * wall-clock seconds, simulated cycles per second).  The telemetry
 * flags (--stats-json / --interval-csv / --trace, see
 * docs/telemetry.md) attach sinks to that run; when any is given the
 * google-benchmark suite is skipped so the telemetry files are the
 * run's product.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "accel/experiments.hh"
#include "common/config.hh"
#include "noc/mesh_network.hh"
#include "telemetry/json.hh"
#include "telemetry/telemetry.hh"

namespace
{

using namespace tenoc;

void
BM_MeshCycleIdle(benchmark::State &state)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    Cycle now = 0;
    for (auto _ : state)
        net.cycle(now++);
    state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_MeshCycleIdle);

void
BM_MeshCycleLoaded(benchmark::State &state)
{
    MeshNetworkParams p;
    MeshNetwork net(p);
    struct Sink : PacketSink
    {
        bool tryReserve(const Packet &) override { return true; }
        void deliver(PacketPtr, Cycle) override {}
    } sink;
    const auto &topo = net.topology();
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        net.setSink(n, &sink);
    Rng rng(1);
    Cycle now = 0;
    for (auto _ : state) {
        for (NodeId core : topo.computeNodes()) {
            if (rng.nextBool(0.05) && net.canInject(core, 0)) {
                auto pkt = makePacket();
                pkt->src = core;
                pkt->dst = rng.pick(topo.mcNodes());
                pkt->sizeFlits = 1;
                pkt->sizeBytes = 16;
                net.inject(std::move(pkt), now);
            }
        }
        net.cycle(now++);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_MeshCycleLoaded);

void
BM_DramChannelStream(benchmark::State &state)
{
    DramChannelParams p;
    DramChannel ch(p);
    Cycle now = 0;
    Addr addr = 0;
    for (auto _ : state) {
        if (ch.canAccept()) {
            DramRequest req;
            req.localAddr = addr;
            addr += 64;
            ch.push(std::move(req), now);
        }
        ch.cycle(now++);
        ch.popCompleted();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(now));
}
BENCHMARK(BM_DramChannelStream);

void
BM_ClosedLoopChip(benchmark::State &state)
{
    // Whole-chip simulation rate (interconnect cycles per second).
    for (auto _ : state) {
        const auto prof = scaleWorkload(findWorkload("MM"), 0.02);
        const auto r =
            runWorkload(makeConfig(ConfigId::BASELINE_TB_DOR), prof);
        benchmark::DoNotOptimize(r.ipc);
        state.SetItemsProcessed(
            static_cast<std::int64_t>(r.icntCycles));
    }
}
BENCHMARK(BM_ClosedLoopChip)->Unit(benchmark::kMillisecond);

/** Times one instrumented chip run and writes BENCH_telemetry.json.
 *  @return false if the run hit its cycle cap (likely deadlock; the
 *  chip printed a diagnostic snapshot). */
bool
runTelemetryHarness(telemetry::TelemetryConfig cfg)
{
    const char *workload = "MM";
    const double scale = envScale(0.05);

    // Canonical hash of this run's effective configuration, echoed
    // into the stats-JSON header and interval-CSV metadata so sweep
    // tooling can content-address the outputs (docs/telemetry.md).
    Config id_cfg;
    id_cfg.set("base", "baseline");
    id_cfg.set("workload", workload);
    id_cfg.set("workload.scale", scale);
    cfg.configHash = id_cfg.canonicalHashHex();

    telemetry::TelemetryHub hub(cfg);
    const auto prof = scaleWorkload(findWorkload(workload), scale);

    const auto t0 = std::chrono::steady_clock::now();
    const auto result = runWorkload(
        makeConfig(ConfigId::BASELINE_TB_DOR), prof, &hub);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double>(t1 - t0).count();
    const double rate = wall > 0.0
        ? static_cast<double>(result.icntCycles) / wall : 0.0;

    telemetry::JsonValue doc =
        telemetry::JsonValue::makeObject();
    doc.set("workload", telemetry::JsonValue(workload));
    doc.set("scale", telemetry::JsonValue(scale));
    doc.set("icnt_cycles", telemetry::JsonValue(
        static_cast<double>(result.icntCycles)));
    doc.set("wall_seconds", telemetry::JsonValue(wall));
    doc.set("sim_cycles_per_second", telemetry::JsonValue(rate));
    doc.set("ipc", telemetry::JsonValue(result.ipc));
    std::ofstream os("BENCH_telemetry.json");
    doc.write(os);
    os << "\n";

    std::fprintf(stderr,
                 "[micro_simulator] %s scale %.2f: %llu icnt cycles "
                 "in %.2fs (%.0f cycles/s)\n",
                 workload, scale,
                 static_cast<unsigned long long>(result.icntCycles),
                 wall, rate);
    if (result.timedOut) {
        std::fprintf(stderr,
                     "[micro_simulator] ERROR: run hit the icnt cycle "
                     "cap before completing — see the diagnostic "
                     "snapshot above\n");
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // Telemetry flags must come out of argv before google-benchmark
    // sees them; an argument neither knows is fatal before any run.
    const auto cfg = telemetry::parseTelemetryFlags(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;

    if (!runTelemetryHarness(cfg))
        return 2; // cycle-cap timeout: fail fast instead of reporting
    if (cfg.any())
        return 0; // harness-only run; skip the benchmark suite

    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
