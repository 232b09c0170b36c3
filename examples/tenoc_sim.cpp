/**
 * @file
 * Config-file-driven simulator front end.
 *
 * Reads a dotted-key configuration (file and/or key=value command-line
 * overrides), runs one workload or the whole Table I suite closed-
 * loop, and prints results plus (optionally) a full statistics dump.
 *
 * Usage:
 *   tenoc_sim [config-file] [key=value ...]
 *
 * Extra keys on top of chipParamsFromConfig():
 *   workload = BFS | ... | suite   (default "suite")
 *   scale    = kernel-length scale (default 1.0)
 *   stats    = true to dump detailed statistics
 *
 * Exits 2 when any run hits the icnt cycle cap (sim.maxIcntCycles),
 * like micro_simulator, so scripts can fail on a timed-out run.
 *
 * Example:
 *   tenoc_sim - workload=BFS base=thr-eff noc.mcInjPorts=2 scale=0.5
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "accel/experiments.hh"

using namespace tenoc;

int
main(int argc, char **argv)
{
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
                params.mesh.routing.c_str(), params.mesh.flitBytes,
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
        r.result = runWorkload(params, profile);
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
    return timed_out ? 2 : 0;
}
