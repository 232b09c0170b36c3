/**
 * @file
 * Closed-loop chip benchmark driver.
 *
 * Runs the suite slice -- LL HSP, BP; LH MM, TRA; HH BFS, RD (Table I)
 * -- on one interconnect through the public Chip API, repeating the
 * slice until the time budget is spent, and prints one JSON document
 * on stdout: the set-up samples, per-repetition host times and output
 * digests, and per-point simulated results with the raw facts of the
 * output checks.  Built with CHIPBENCH_TRACED it also reports each
 * point's layer spans (spans.hh) and NoC phase split.  run.py drives
 * both builds and turns this into metrics; see README.md.
 *
 *   chipbench --workload ideal|tb_dor|cp_cr_2p [--seed N] [--seconds S]
 *             [--scale F] [--min-reps N]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accel/chip.hh"
#include "accel/chip_config.hh"
#include "common/stats.hh"
#include "gpu/workloads.hh"

#ifdef CHIPBENCH_TRACED
#include "spans.hh"
#endif

namespace
{

using namespace tenoc;
using Clock = std::chrono::steady_clock;

/** The suite slice: two kernels of each traffic class. */
const char *const kKernels[] = {"HSP", "BP", "MM", "TRA", "BFS", "RD"};

/** Set-up samples taken before each repetition of the slice. */
constexpr unsigned kSetupSamplesPerRep = 10;

struct WorkloadDef
{
    const char *name;
    ConfigId config;
};

/** The workloads differ only in the interconnect. */
const WorkloadDef kWorkloads[] = {
    {"ideal", ConfigId::PERFECT},
    {"tb_dor", ConfigId::BASELINE_TB_DOR},
    {"cp_cr_2p", ConfigId::CP_CR_2INJ_SINGLE},
};

struct Options
{
    const WorkloadDef *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    double scale = 1.0;
    unsigned minReps = 3;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "chipbench: %s\nusage: chipbench --workload "
                 "ideal|tb_dor|cp_cr_2p [--seed N] [--seconds S] "
                 "[--scale F] [--min-reps N]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            for (const auto &w : kWorkloads)
                if (std::strcmp(w.name, v) == 0)
                    o.workload = &w;
            if (!o.workload)
                usage("unknown workload");
            continue;
        }
        if (flag == "--seed")
            o.seed = std::strtoull(v, &end, 10);
        else if (flag == "--seconds")
            o.seconds = std::strtod(v, &end);
        else if (flag == "--scale")
            o.scale = std::strtod(v, &end);
        else if (flag == "--min-reps")
            o.minReps = static_cast<unsigned>(std::strtoul(v, &end, 10));
        else
            usage(("unknown flag " + flag).c_str());
        if (!end || *end != '\0')
            usage(("bad value for " + flag).c_str());
    }
    if (!o.workload)
        usage("--workload is required");
    if (!(o.scale > 0.0) || o.seconds < 0.0 || o.minReps == 0)
        usage("out-of-range value");
    return o;
}

/** @return why timings from this process would mislead, or null. */
const char *
timingRefusal()
{
#if !defined(__OPTIMIZE__)
    return "unoptimised build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
    if (std::strstr(CHIPBENCH_CXX_FLAGS, "-fsanitize"))
        return "sanitizer build";
    const char *validate = std::getenv("TENOC_VALIDATE");
    if (validate && *validate && std::strcmp(validate, "0") != 0)
        return "TENOC_VALIDATE is set";
    return nullptr;
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** 64-bit FNV-1a, as 16 hex digits. */
std::string
digestOf(const std::string &text)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Digest of everything the chip reports: ChipResult + stat dump. */
std::string
chipDigest(const ChipResult &r, const Chip &chip)
{
    std::ostringstream os;
    os.precision(17);
    os << r.ipc << ' ' << r.scalarInsts << ' ' << r.coreCycles << ' '
       << r.icntCycles << ' ' << r.memCycles << ' ' << r.timedOut << ' '
       << r.mcStallFractionMean << ' ' << r.mcStallFractionMax << ' '
       << r.mcInjectionRate << ' ' << r.avgNetLatency << ' '
       << r.avgTotalLatency << ' ' << r.acceptedBytesPerNode << ' '
       << r.mcToCoreInjectionRatio << ' ' << r.dramEfficiency << ' '
       << r.dramRowHitRate << ' ' << r.packetsEjected << '\n';
    chip.statGroup().dump(os);
    return digestOf(os.str());
}

/** Flattens a stat tree into "path -> value" (accumulators give
 *  ".sum" and ".count"). */
void
flattenStats(const StatGroup &g, const std::string &prefix,
             std::map<std::string, double> &out)
{
    const std::string base =
        prefix.empty() ? g.name() : prefix + "." + g.name();
    for (const auto *c : g.counters())
        out[base + "." + c->name()] = static_cast<double>(c->value());
    for (const auto *a : g.accumulators()) {
        out[base + "." + a->name() + ".sum"] = a->sum();
        out[base + "." + a->name() + ".count"] =
            static_cast<double>(a->count());
    }
    for (const auto &v : g.values())
        out[base + "." + v.name] = v.fn();
    for (const auto *child : g.children())
        flattenStats(*child, base, out);
}

/** Sum of every `<group>N.<leaf>` entry, e.g. ("chip.core", "warp_insts"). */
double
sumOver(const std::map<std::string, double> &stats,
        const std::string &group, const std::string &leaf)
{
    const std::string tail = "." + leaf;
    double sum = 0.0;
    for (const auto &[key, value] : stats) {
        if (key.compare(0, group.size(), group) != 0)
            continue;
        const std::size_t end =
            key.find_first_not_of("0123456789", group.size());
        if (end != group.size() && end != std::string::npos &&
            key.compare(end, std::string::npos, tail) == 0)
            sum += value;
    }
    return sum;
}

/** A number in JSON, with all its digits. */
std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Minimal JSON object writer (flat values; nesting by raw strings). */
class JsonObject
{
  public:
    JsonObject &
    num(const char *key, double v)
    {
        return raw(key, jsonNumber(v));
    }
    JsonObject &
    str(const char *key, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return raw(key, q + "\"");
    }
    JsonObject &
    flag(const char *key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    JsonObject &
    raw(const char *key, const std::string &json)
    {
        body_ += (body_.empty() ? "\"" : ", \"") + std::string(key) +
            "\": " + json;
        return *this;
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? ", " : "") + items[i];
    return out + "]";
}

/** One point's simulated results and the facts its checks need. */
std::string
pointFacts(const char *kernel, const KernelProfile &profile,
           const ChipResult &r, Chip &chip)
{
    std::map<std::string, double> s;
    flattenStats(chip.statGroup(), "", s);
    const Topology &topo = chip.topology();
    const std::uint64_t cores =
        topo.computeNodes().size() * topo.concentration();
    const std::uint64_t expected = cores * profile.warpsPerCore *
        profile.warpInstsPerWarp * 32 * std::max(1u, profile.numKernels);
    const NetStats &net = chip.network().stats();
    JsonObject o;
    o.str("kernel", kernel)
        .flag("timed_out", r.timedOut)
        .num("scalar_insts", static_cast<double>(r.scalarInsts))
        .num("expected_insts", static_cast<double>(expected))
        .flag("drained", chip.network().drained())
        .num("packets_injected", static_cast<double>(net.packetsInjected))
        .num("packets_ejected", static_cast<double>(net.packetsEjected))
        .num("flits_ejected", static_cast<double>(net.flitsEjected))
        .num("core_cycles", static_cast<double>(r.coreCycles))
        .num("icnt_cycles", static_cast<double>(r.icntCycles))
        .num("ipc", r.ipc)
        .num("avg_net_latency", r.avgNetLatency)
        .num("avg_total_latency", r.avgTotalLatency)
        .num("mc_inject_rate", r.mcInjectionRate)
        .num("mc_stall_frac_mean", r.mcStallFractionMean)
        .num("dram_efficiency", r.dramEfficiency)
        .num("warp_insts", sumOver(s, "chip.core", "warp_insts"))
        .num("stall_slots", sumOver(s, "chip.core", "stall_slots"))
        .num("reads_sent", sumOver(s, "chip.core", "reads_sent"))
        .num("writes_sent", sumOver(s, "chip.core", "writes_sent"))
        .num("mc_requests_served",
             sumOver(s, "chip.mc", "requests_served"))
        .num("dram_served", sumOver(s, "chip.mc", "dram.served_requests"))
        .num("dram_row_hits", sumOver(s, "chip.mc", "dram.row_hits"))
        .num("dram_row_misses", sumOver(s, "chip.mc", "dram.row_misses"))
        .num("dram_reorder_sum",
             sumOver(s, "chip.mc", "dram.reorder_depth.sum"))
        .num("dram_reorder_count",
             sumOver(s, "chip.mc", "dram.reorder_depth.count"))
        .num("dram_return_buffer_blocked",
             sumOver(s, "chip.mc", "dram.blocked_by_return_buffer"));
    return o.text();
}

#ifdef CHIPBENCH_TRACED
/** Spans and NoC phases of one Chip::run, in seconds. */
std::string
spanFacts(const chipbench::Spans &sp, const PhaseProfile &noc,
          double ticks_to_s)
{
    const auto sec = [&](std::uint64_t ticks) {
        return static_cast<double>(ticks) * ticks_to_s;
    };
    const auto ns = [](std::uint64_t v) { return v * 1e-9; };
    JsonObject o;
    o.num("core_s", sec(sp.coreTicks))
        .num("core_calls", static_cast<double>(sp.coreCalls))
        .num("reply_s", sec(sp.replyTicks))
        .num("reply_calls", static_cast<double>(sp.replyCalls))
        .num("mc_icnt_s", sec(sp.mcIcntTicks))
        .num("mc_icnt_calls", static_cast<double>(sp.mcIcntCalls))
        .num("mc_mem_s", sec(sp.mcMemTicks))
        .num("mc_mem_calls", static_cast<double>(sp.mcMemCalls))
        .num("dram_s", sec(sp.dramTicks))
        .num("dram_calls", static_cast<double>(sp.dramCalls))
        .num("clock_s", sec(sp.clockTicks))
        .num("clock_calls", static_cast<double>(sp.clockCalls))
        .num("mshr_probes", static_cast<double>(sp.mshrProbes))
        .num("mshr_probe_fails", static_cast<double>(sp.mshrProbeFails))
        .num("mshr_allocs", static_cast<double>(sp.mshrAllocs))
        .num("mshr_merges", static_cast<double>(sp.mshrMerges))
        .num("noc_read_inputs_s", ns(noc.readInputsNs))
        .num("noc_inject_s", ns(noc.injectNs))
        .num("noc_compute_s", ns(noc.computeNs))
        .num("noc_drain_s", ns(noc.drainNs))
        .num("noc_bookkeeping_s", ns(noc.bookkeepingNs))
        .num("noc_cycles", static_cast<double>(noc.cycles));
    return o.text();
}
#endif

/**
 * Peak resident set of this process image, in MiB.  VmHWM restarts at
 * exec; getrusage's ru_maxrss would keep the launching process's peak.
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Builds one point's chip: the config, then the chip itself. */
std::unique_ptr<Chip>
buildChip(const Options &opt, const KernelProfile &profile)
{
    return std::make_unique<Chip>(
        makeConfig(opt.workload->config, opt.seed), profile);
}

/** Host seconds to build the six chips (one set-up sample). */
double
setupSample(const Options &opt, const std::vector<KernelProfile> &profiles)
{
    double sum = 0.0;
    for (const auto &p : profiles) {
        const auto t0 = Clock::now();
        auto chip = buildChip(opt, p);
        sum += secondsBetween(t0, Clock::now());
    }
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    // One thread everywhere, pinned before anything resolves it.
    setenv("TENOC_THREADS", "1", 1);
    setenv("TENOC_CYCLE_THREADS", "1", 1);
    const Options opt = parseArgs(argc, argv);
    if (const char *why = timingRefusal()) {
        std::fprintf(stderr, "chipbench: refusing to report timings: %s\n",
                     why);
        return 3;
    }

    std::vector<KernelProfile> profiles;
    for (const char *k : kKernels)
        profiles.push_back(scaleWorkload(findWorkload(k), opt.scale));

    // Measured repetitions of the whole slice, as many as fit in the
    // budget (judged by the previous repetition's length).  Set-up
    // samples are spread over the run with them: one build takes well
    // under a millisecond, and the host's speed drifts over seconds.
    std::vector<std::string> setup;
    std::vector<std::string> reps;
    std::vector<std::string> facts;
    const auto start = Clock::now();
    double last_rep_s = 0.0;
    while (reps.size() < opt.minReps ||
           secondsBetween(start, Clock::now()) + last_rep_s <= opt.seconds) {
        const auto rep_start = Clock::now();
        for (unsigned i = 0; i < kSetupSamplesPerRep; ++i)
            setup.push_back(jsonNumber(setupSample(opt, profiles)));
        std::vector<std::string> points;
        for (std::size_t k = 0; k < profiles.size(); ++k) {
            auto chip = buildChip(opt, profiles[k]);
#ifdef CHIPBENCH_TRACED
            PhaseProfile noc;
            if (auto *mesh = dynamic_cast<MeshNetwork *>(&chip->network()))
                mesh->setPhaseProfile(&noc);
            chipbench::spans = {};
            const std::uint64_t tick0 = chipbench::spanTicks();
#endif
            const auto t0 = Clock::now();
            const ChipResult r = chip->run();
            const auto t1 = Clock::now();
            JsonObject p;
            p.num("run_s", secondsBetween(t0, t1))
                .str("digest", chipDigest(r, *chip));
#ifdef CHIPBENCH_TRACED
            const std::uint64_t ticks = chipbench::spanTicks() - tick0;
            p.raw("spans",
                  spanFacts(chipbench::spans, noc,
                            ticks ? secondsBetween(t0, t1) / ticks : 0.0));
#endif
            points.push_back(p.text());
            if (reps.empty())
                facts.push_back(
                    pointFacts(kKernels[k], profiles[k], r, *chip));
        }
        reps.push_back(jsonArray(points));
        last_rep_s = secondsBetween(rep_start, Clock::now());
    }

    JsonObject out;
    out.str("workload", opt.workload->name)
        .num("seed", static_cast<double>(opt.seed))
        .num("scale", opt.scale)
#ifdef CHIPBENCH_TRACED
        .flag("traced", true)
#else
        .flag("traced", false)
#endif
        .str("compiler", __VERSION__)
        .str("cxx_flags", CHIPBENCH_CXX_FLAGS)
        .str("build_type", CHIPBENCH_BUILD_TYPE)
        .num("peak_rss_mb", peakRssMib())
        .raw("setup_s", jsonArray(setup))
        .raw("reps", jsonArray(reps))
        .raw("points", jsonArray(facts));
    std::printf("%s\n", out.text().c_str());
    return 0;
}
