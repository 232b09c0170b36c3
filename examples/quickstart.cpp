/**
 * @file
 * Quickstart: run one benchmark closed-loop on the baseline mesh and
 * on the throughput-effective NoC, and report IPC, the MC reply-path
 * stall fraction, and throughput-effectiveness (IPC/mm^2).
 *
 * Usage: quickstart [ABBR] [scale]
 *   ABBR   benchmark abbreviation from Table I (default BFS)
 *   scale  kernel-length scale factor (default 0.5)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "accel/experiments.hh"
#include "area/area_model.hh"

int
main(int argc, char **argv)
{
    using namespace tenoc;

    const std::string abbr = argc > 1 ? argv[1] : "BFS";
    const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;

    const KernelProfile profile =
        scaleWorkload(findWorkload(abbr), scale);
    std::printf("workload: %s (%s), class %s\n", profile.abbr.c_str(),
                profile.name.c_str(),
                trafficClassName(profile.expectedClass));

    const AreaModel area;
    for (ConfigId id : {ConfigId::BASELINE_TB_DOR,
                        ConfigId::THROUGHPUT_EFFECTIVE,
                        ConfigId::CP_CR_2INJ_SINGLE}) {
        const ChipParams params = makeConfig(id);
        const ChipResult r = runWorkload(params, profile);
        const auto noc = area.meshArea(areaSpecOf(params));
        const double chip_mm2 = area.chipArea(noc);
        std::printf(
            "%-28s IPC %7.2f  mc-stall %5.1f%%  net-lat %6.1f  "
            "noc-area %6.2f mm^2  IPC/mm^2 %.4f\n",
            configName(id), r.ipc, 100.0 * r.mcStallFractionMean,
            r.avgNetLatency, noc.nocTotal(),
            throughputEffectiveness(r.ipc, chip_mm2));
    }
    return 0;
}
