/**
 * @file
 * Config-file-driven simulator front end, and the telemetry front end.
 *
 * Reads a dotted-key configuration (file and/or key=value command-line
 * overrides), runs one workload or the whole Table I suite closed-
 * loop, and prints results plus (optionally) a full statistics dump.
 *
 * Usage:
 *   tenoc_sim [config-file | -] [key=value ...] [telemetry flags]
 *
 * Extra keys on top of chipParamsFromConfig():
 *   workload = BFS | ... | suite   (default "suite")
 *   scale    = kernel-length scale (default 1.0)
 *   stats    = true to dump detailed statistics
 *
 * Telemetry flags (docs/telemetry.md) instrument a one-workload run:
 *   --stats-json PATH  --interval-csv PATH  --interval CYCLES
 *   --trace PATH       --trace-sample N
 * The output files carry the canonical hash of the run's whole
 * configuration (config_hash).  Any other `--` argument, a telemetry
 * flag with workload=suite, or an output file that cannot be written
 * fails the run with exit 1.
 *
 * Exits 2 when any run hits the icnt cycle cap (sim.maxIcntCycles),
 * so scripts can fail on a timed-out run.
 *
 * Examples:
 *   tenoc_sim - workload=BFS base=thr-eff noc.mcInjPorts=2 scale=0.5
 *   tenoc_sim - workload=MM scale=0.02 --stats-json m.json \
 *       --interval-csv m.csv --trace t.json
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "accel/experiments.hh"
#include "telemetry/telemetry.hh"

using namespace tenoc;

int
main(int argc, char **argv)
{
    // Telemetry flags come out of argv first; what is left is the
    // config file and the key=value overrides.
    telemetry::TelemetryConfig tcfg =
        telemetry::parseTelemetryFlags(argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) == 0)
            tenoc_fatal("unknown flag '", argv[i], "'; usage: tenoc_sim "
                        "[config-file | -] [key=value ...] "
                        "[--stats-json PATH] [--interval-csv PATH] "
                        "[--interval CYCLES] [--trace PATH] "
                        "[--trace-sample N]");
    }

    Config cfg;
    int first_kv = 1;
    if (argc > 1 && std::string(argv[1]).find('=') == std::string::npos
        && std::string(argv[1]) != "-") {
        std::ifstream f(argv[1]);
        if (!f)
            tenoc_fatal("cannot open config file '", argv[1], "'");
        std::stringstream ss;
        ss << f.rdbuf();
        cfg.parseText(ss.str());
        first_kv = 2;
    } else if (argc > 1 && std::string(argv[1]) == "-") {
        first_kv = 2;
    }
    for (int i = first_kv; i < argc; ++i)
        cfg.parseText(argv[i]);

    const std::string workload = cfg.getString("workload", "suite");
    const double scale = cfg.getDouble("scale", 1.0);
    const bool dump_stats = cfg.getBool("stats", false);
    if (tcfg.any() && workload == "suite")
        tenoc_fatal("telemetry flags need one workload=, not the suite");
    tcfg.configHash = cfg.canonicalHashHex();

    // Strip front-end keys before handing off to the chip builder.
    Config chip_cfg;
    for (const auto &key : cfg.keys()) {
        if (key != "workload" && key != "scale" && key != "stats")
            chip_cfg.set(key, cfg.getString(key));
    }
    const ChipParams params = chipParamsFromConfig(chip_cfg);

    std::printf("tenoc_sim: base=%s routing=%s flit=%uB "
                "mcInj=%u sliced=%s workload=%s scale=%.2f\n\n",
                chip_cfg.getString("base", "baseline").c_str(),
                params.mesh.topo.checkerboardRouters ? "cr" : "xy",
                params.mesh.flitBytes,
                params.mesh.mcInjPorts,
                params.netKind == NetKind::DOUBLE ? "yes" : "no",
                workload.c_str(), scale);

    auto report = [&](const SuiteRun &r) {
        std::printf("%-6s %-4s IPC %8.2f  mc-stall %5.1f%%  "
                    "net-lat %7.1f  acc %5.2f B/cyc/node  "
                    "dram-eff %.2f%s\n",
                    r.abbr.c_str(), trafficClassName(r.cls),
                    r.result.ipc, 100.0 * r.result.mcStallFractionMean,
                    r.result.avgNetLatency,
                    r.result.acceptedBytesPerNode,
                    r.result.dramEfficiency,
                    r.result.timedOut ? "  TIMEOUT" : "");
    };

    bool timed_out = false;
    bool wrote = true;
    if (workload == "suite") {
        const auto runs = runSuite(params, scale);
        for (const auto &r : runs) {
            report(r);
            timed_out |= r.result.timedOut;
        }
        std::printf("\nharmonic-mean IPC: %.2f\n",
                    harmonicMeanIpc(runs));
    } else {
        const auto profile =
            scaleWorkload(findWorkload(workload), scale);
        SuiteRun r;
        r.abbr = profile.abbr;
        r.cls = profile.expectedClass;
        Chip chip(params, profile);
        telemetry::TelemetryHub hub(tcfg);
        if (tcfg.any())
            chip.attachTelemetry(hub);
        r.result = chip.run();
        wrote = hub.writeOutputs(&chip.statGroup());
        report(r);
        timed_out = r.result.timedOut;
        if (dump_stats) {
            std::printf("\nscalar insts      %llu\n",
                        static_cast<unsigned long long>(
                            r.result.scalarInsts));
            std::printf("core cycles       %llu\n",
                        static_cast<unsigned long long>(
                            r.result.coreCycles));
            std::printf("icnt cycles       %llu\n",
                        static_cast<unsigned long long>(
                            r.result.icntCycles));
            std::printf("mem cycles        %llu\n",
                        static_cast<unsigned long long>(
                            r.result.memCycles));
            std::printf("packets ejected   %llu\n",
                        static_cast<unsigned long long>(
                            r.result.packetsEjected));
            std::printf("MC inj rate       %.4f flits/cyc/MC\n",
                        r.result.mcInjectionRate);
            std::printf("MC:core inj ratio %.2f (paper: ~6.9)\n",
                        r.result.mcToCoreInjectionRatio);
            std::printf("DRAM row hit rate %.3f\n",
                        r.result.dramRowHitRate);
        }
    }
    if (!wrote)
        return 1;
    return timed_out ? 2 : 0;
}
