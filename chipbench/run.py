#!/usr/bin/env python3
"""Closed-loop chip benchmark: suite-slice wall time, simulated cycles/s
and a traced per-layer host-time split (see README.md).

    python3 chipbench/run.py --workload ideal|tb_dor|cp_cr_2p \
        [--seed N] [--seconds S] [--trace 0|1] [--scale F] \
        [--digests FILE] [--record-digests FILE]

Run from the repository root.  It builds chipbench/ (and the tenoc
libraries from src/) into .bench_build/chipbench, runs the untraced and
the traced driver, checks every point's output, writes a result file
with the host envelope to .bench_build/results/, prints every metric by
name and unit to stderr, and prints one JSON line on stdout as its last
line:

    {"correct": ..., "attempted": <points>, "failed": <points failed>,
     "metrics": {name: {"value": v, "unit": u}}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is non-zero when the build fails, a driver refuses to
time (unoptimised or sanitizer build, TENOC_VALIDATE set) or a point
fails a check.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "chipbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
DEFAULT_DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("ideal", "tb_dor", "cp_cr_2p")
DRIVERS_TIMEOUT_S = 170  # both drivers together, after the build


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["TENOC_THREADS"] = "1"
    env["TENOC_CYCLE_THREADS"] = "1"
    return env


def build():
    """Configures once, then (re)builds both drivers."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("tenoc sources not found at %s"
                         % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def drive(binary, args, seconds, min_reps, deadline):
    cmd = [os.path.join(BUILD, binary), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", repr(args.scale),
           "--seconds", repr(seconds), "--min-reps", str(min_reps)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              env=child_env(),
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s timed out" % binary) from exc
    if proc.returncode != 0:
        raise BenchError("%s exited with %d" % (binary, proc.returncode))
    return json.loads(proc.stdout)


# --- output checks ---------------------------------------------------

def load_digests(path):
    if not path or not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def recorded_for(digests, args):
    """This workload's recorded digests, if recorded at this seed/scale."""
    if (digests and digests.get("seed") == args.seed
            and digests.get("scale") == args.scale):
        return digests.get("digests", {}).get(args.workload)
    return None


def rep_digests(run, k):
    return {rep[k]["digest"] for rep in run["reps"]}


def check_points(plain, traced, recorded):
    """@return per-point lists of failure reasons."""
    failures = []
    for k, facts in enumerate(plain["points"]):
        why = []
        if facts["timed_out"]:
            why.append("hit the cycle cap")
        if facts["scalar_insts"] != facts["expected_insts"]:
            why.append("scalar_insts %d != %d" % (facts["scalar_insts"],
                                                  facts["expected_insts"]))
        if not facts["drained"] or (facts["packets_injected"]
                                    != facts["packets_ejected"]):
            why.append("network not drained (%d injected, %d ejected)"
                       % (facts["packets_injected"],
                          facts["packets_ejected"]))
        untraced = rep_digests(plain, k)
        both = untraced | rep_digests(traced, k)
        if len(untraced) != 1:
            why.append("untraced repetitions disagree")
        elif len(both) != 1:
            why.append("traced run differs from untraced")
        if recorded is not None and recorded.get(facts["kernel"]) not in both:
            why.append("digest %s != recorded %s"
                       % (sorted(both)[0], recorded.get(facts["kernel"])))
        failures.append(why)
    return failures


def record_digests(path, args, plain):
    digests = load_digests(path)
    if not digests or (digests.get("seed"), digests.get("scale")) != (
            args.seed, args.scale):
        digests = {"seed": args.seed, "scale": args.scale, "digests": {}}
    digests["digests"][args.workload] = {
        p["kernel"]: plain["reps"][0][k]["digest"]
        for k, p in enumerate(plain["points"])}
    with open(path, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


# --- metrics ---------------------------------------------------------

def harmonic_mean(values):
    return len(values) / sum(1.0 / v for v in values)


def total(points, key):
    return sum(p[key] for p in points)


def point_best(run):
    """Each point's fastest Chip::run time over the repetitions.  The
    work is deterministic, so a slower repetition only measures
    interference from the rest of the host."""
    return [min(rep[k]["run_s"] for rep in run["reps"])
            for k in range(len(run["points"]))]


def end_to_end(plain):
    pts = plain["points"]
    best = point_best(plain)
    wall = sum(best)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(plain["setup_s"]), "s"),
        "sim_kcycles_per_s": (total(pts, "core_cycles") / wall / 1e3,
                              "kcycles/s"),
        "sim_minsts_per_s": (total(pts, "scalar_insts") / wall / 1e6,
                             "M/s"),
        "max_point_s": (max(best), "s"),
        "peak_rss_mb": (plain["peak_rss_mb"], "MiB"),
        "ipc_hm": (harmonic_mean([p["ipc"] for p in pts]), "insts/cycle"),
    }


def self_times(rep):
    """One traced repetition's host split, in seconds of self time.

    The NoC phases come from MeshNetwork's phase profile; read replies
    are delivered inside the drain phase, so their span is taken out of
    it.  On the ideal network there is no phase profile: its cycle time,
    and the replies it delivers, sit outside every NoC span.
    """
    s = {key: sum(p["spans"][key] for p in rep) for key in rep[0]["spans"]}
    nested_reply = s["reply_s"] if s["noc_cycles"] else 0.0
    split = {
        "gpu.host_s": s["core_s"],
        "gpu.reply_host_s": s["reply_s"],
        "noc.read_inputs_s": s["noc_read_inputs_s"],
        "noc.inject_s": s["noc_inject_s"],
        "noc.compute_s": s["noc_compute_s"],
        "noc.drain_s": s["noc_drain_s"] - nested_reply,
        "noc.bookkeeping_s": s["noc_bookkeeping_s"],
        "mc.icnt_host_s": s["mc_icnt_s"],
        "mc.mem_self_host_s": s["mc_mem_s"] - s["dram_s"],
        "dram.host_s": s["dram_s"],
        "chip.clock_host_s": s["clock_s"],
    }
    run = sum(p["run_s"] for p in rep)
    split["chip.residual_s"] = run - sum(split.values())
    return split, run


def check_accounting(split, run):
    """The layer self times and the residual are non-negative and add
    up to the traced run time.  @return failure reasons."""
    why = ["%s is negative (%.6f s)" % (k, v)
           for k, v in split.items() if v < 0.0]
    if abs(sum(split.values()) - run) > 1e-9 * max(run, 1.0):
        why.append("self times do not add up to the traced run time")
    return why


def per_layer(plain, traced):
    """The split of the median traced repetition (by run time), so the
    reported self times add up to trace.run_s exactly."""
    pts = traced["points"]
    splits = sorted((self_times(rep) for rep in traced["reps"]),
                    key=lambda split_run: split_run[1])
    med, traced_run = splits[(len(splits) - 1) // 2]
    plain_run = statistics.median_low(sum(p["run_s"] for p in r)
                                      for r in plain["reps"])
    first = traced["reps"][0]  # counts repeat exactly across repetitions
    spans = {k: sum(p["spans"][k] for p in first) for k in first[0]["spans"]}

    noc_host = sum(med[k] for k in ("noc.read_inputs_s", "noc.inject_s",
                                    "noc.compute_s", "noc.drain_s",
                                    "noc.bookkeeping_s"))
    packets = total(pts, "packets_ejected")
    warp_insts = total(pts, "warp_insts")
    issue_slots = warp_insts + total(pts, "stall_slots")
    dram_served = total(pts, "dram_served")
    row_accesses = total(pts, "dram_row_hits") + total(pts, "dram_row_misses")
    flits = total(pts, "flits_ejected")

    def ratio(num, den):
        return num / den if den else 0.0

    def weighted(key):
        return ratio(sum(p[key] * p["packets_ejected"] for p in pts), packets)

    def mean(key):
        return statistics.fmean(p[key] for p in pts)

    m = {
        "noc.host_s": (noc_host, "s"),
        "noc.compute_s": (med["noc.compute_s"], "s"),
        "noc.read_inputs_s": (med["noc.read_inputs_s"], "s"),
        "noc.inject_s": (med["noc.inject_s"], "s"),
        "noc.drain_s": (med["noc.drain_s"], "s"),
        "noc.bookkeeping_s": (med["noc.bookkeeping_s"], "s"),
        "noc.ns_per_icnt_cycle": (ratio(noc_host * 1e9, spans["noc_cycles"]),
                                  "ns"),
        "noc.ns_per_flit": (ratio(noc_host * 1e9, flits), "ns"),
        "noc.flits_ejected": (flits, "count"),
        "noc.avg_net_latency": (weighted("avg_net_latency"), "cycles"),
        "noc.avg_total_latency": (weighted("avg_total_latency"), "cycles"),
        "noc.mc_inject_rate": (mean("mc_inject_rate"), "flits/cycle"),
        "gpu.host_s": (med["gpu.host_s"], "s"),
        "gpu.reply_host_s": (med["gpu.reply_host_s"], "s"),
        "gpu.ns_per_warp_inst": (ratio(med["gpu.host_s"] * 1e9, warp_insts),
                                 "ns"),
        "gpu.warp_insts": (warp_insts, "count"),
        "gpu.stall_slot_frac": (ratio(total(pts, "stall_slots"),
                                      issue_slots), "fraction"),
        "gpu.reads_sent": (total(pts, "reads_sent"), "count"),
        "gpu.writes_sent": (total(pts, "writes_sent"), "count"),
        "cache.mshr_probes": (spans["mshr_probes"], "count"),
        "cache.mshr_probes_per_warp_inst": (
            ratio(spans["mshr_probes"], warp_insts), "count"),
        "cache.mshr_probe_fail_frac": (
            ratio(spans["mshr_probe_fails"], spans["mshr_probes"]),
            "fraction"),
        "cache.mshr_allocs": (spans["mshr_allocs"], "count"),
        "cache.mshr_merge_frac": (
            ratio(spans["mshr_merges"], spans["mshr_allocs"]), "fraction"),
        "mc.icnt_host_s": (med["mc.icnt_host_s"], "s"),
        "mc.mem_self_host_s": (med["mc.mem_self_host_s"], "s"),
        "mc.stall_frac_mean": (mean("mc_stall_frac_mean"), "fraction"),
        "mc.requests_served": (total(pts, "mc_requests_served"), "count"),
        "chip.clock_host_s": (med["chip.clock_host_s"], "s"),
        "chip.residual_s": (med["chip.residual_s"], "s"),
        "dram.host_s": (med["dram.host_s"], "s"),
        "dram.ns_per_request": (ratio(med["dram.host_s"] * 1e9, dram_served),
                                "ns"),
        "dram.served_requests": (dram_served, "count"),
        "dram.row_hit_rate": (ratio(total(pts, "dram_row_hits"),
                                    row_accesses), "fraction"),
        "dram.efficiency": (mean("dram_efficiency"), "fraction"),
        "dram.reorder_depth_mean": (ratio(total(pts, "dram_reorder_sum"),
                                          total(pts, "dram_reorder_count")),
                                    "requests"),
        "dram.return_buffer_blocked": (total(pts, "dram_return_buffer_blocked"),
                                       "cycles"),
        "trace.run_s": (traced_run, "s"),
        "trace.overhead_frac": (traced_run / plain_run - 1.0, "fraction"),
    }
    return m, splits, spans


def uninstrumented(spans, pts):
    """Spans never entered although their layer did work: the build
    inlined the call (or made it within the symbol's own translation
    unit), so its time is in chip.residual_s instead."""
    expected = {
        "SimtCore::cycle": "core_calls",
        "McNode::icntCycle": "mc_icnt_calls",
        "McNode::memCycle": "mc_mem_calls",
        "DramChannel::cycle": "dram_calls",
        "ClockDomainSet::advance": "clock_calls",
    }
    if total(pts, "reads_sent"):
        expected["SimtCore::onReadReply"] = "reply_calls"
        expected["MshrTable::canAllocate"] = "mshr_probes"
        expected["MshrTable::allocate"] = "mshr_allocs"
    return [name for name, key in expected.items() if not spans[key]]


# --- host envelope ---------------------------------------------------

def git_sha():
    # Look no further up than the checkout itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env, check=False).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
        return top[1]
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def envelope(plain):
    return {
        "schema": "tenoc-bench-v1",
        "git_sha": git_sha(),
        "compiler": "g++ " + plain["compiler"],
        "cxx_flags": plain["cxx_flags"],
        "build_type": plain["build_type"],
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "tenoc_env": {k: v for k, v in sorted(child_env().items())
                      if k.startswith("TENOC_")},
    }


# --- main ------------------------------------------------------------

E2E = ("wall_s", "setup_s", "sim_kcycles_per_s", "sim_minsts_per_s",
       "max_point_s", "peak_rss_mb", "ipc_hm")
LAYER = (
    "noc.host_s", "noc.compute_s", "noc.read_inputs_s", "noc.inject_s",
    "noc.drain_s", "noc.bookkeeping_s", "noc.ns_per_icnt_cycle",
    "noc.ns_per_flit", "noc.flits_ejected", "noc.avg_net_latency",
    "noc.avg_total_latency", "noc.mc_inject_rate", "gpu.host_s",
    "gpu.reply_host_s", "gpu.ns_per_warp_inst", "gpu.warp_insts",
    "gpu.stall_slot_frac", "gpu.reads_sent", "gpu.writes_sent",
    "cache.mshr_probes", "cache.mshr_probes_per_warp_inst",
    "cache.mshr_probe_fail_frac", "cache.mshr_allocs",
    "cache.mshr_merge_frac", "mc.icnt_host_s", "mc.mem_self_host_s",
    "mc.stall_frac_mean", "mc.requests_served", "chip.clock_host_s",
    "chip.residual_s", "dram.host_s", "dram.ns_per_request",
    "dram.served_requests", "dram.row_hit_rate", "dram.efficiency",
    "dram.reorder_depth_mean", "dram.return_buffer_blocked",
    "trace.run_s", "trace.overhead_frac")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="kernel-length scale (1.0 = the recorded slice)")
    ap.add_argument("--digests", default=DEFAULT_DIGESTS,
                    help="recorded digests to check against")
    ap.add_argument("--record-digests", metavar="FILE",
                    help="write this run's digests into FILE")
    return ap.parse_args(argv)


def run(args):
    build()
    deadline = time.monotonic() + DRIVERS_TIMEOUT_S
    if args.trace:
        # Half the budget each: the untraced run is the overhead base.
        plain = drive("chipbench", args, args.seconds / 2, 3, deadline)
        traced = drive("chipbench_traced", args, args.seconds / 2, 3,
                       deadline)
    else:
        plain = drive("chipbench", args, args.seconds, 3, deadline)
        # One traced repetition, for the output check only.
        traced = drive("chipbench_traced", args, 0, 1, deadline)

    recorded = recorded_for(load_digests(args.digests), args)
    failures = check_points(plain, traced, recorded)
    metrics = end_to_end(plain)
    layers, splits, spans = per_layer(plain, traced)
    metrics.update(layers)
    accounting = [w for split, run_s in splits
                  for w in check_accounting(split, run_s)]
    missing = uninstrumented(spans, traced["points"])

    for p, why in zip(plain["points"], failures):
        for w in why:
            log("FAILED %s/%s: %s" % (args.workload, p["kernel"], w))
    for w in accounting:
        log("trace accounting: " + w)
    for name in missing:
        log("note: %s was never entered (inlined?); its time is in "
            "chip.residual_s" % name)
    if recorded is None:
        log("note: no recorded digests for seed %d scale %g; ran the "
            "seed-free checks only" % (args.seed, args.scale))

    failed = sum(1 for why in failures if why)
    correct = failed == 0 and not accounting
    if args.record_digests and correct:
        record_digests(args.record_digests, args, plain)

    log("%s seed %d: %d untraced / %d traced repetitions"
        % (args.workload, args.seed, len(plain["reps"]),
           len(traced["reps"])))
    for name, (value, unit) in metrics.items():
        log("  %-34s %16.6g %s" % (name, value, unit))

    result = {
        "envelope": envelope(plain),
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "trace": args.trace, "seconds": args.seconds,
        "points": len(plain["points"]), "points_failed": failed,
        "failures": {p["kernel"]: why
                     for p, why in zip(plain["points"], failures) if why},
        "digests_checked": recorded is not None,
        "trace_accounting": accounting, "uninstrumented": missing,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "untraced": plain, "traced": traced,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "BENCH_chipbench_%s_s%d_t%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    log("wrote " + os.path.relpath(path, ROOT))

    names = E2E if args.trace == 0 else LAYER
    print(json.dumps({
        "correct": correct, "attempted": len(plain["points"]),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names}}))
    return 0 if correct else 1


def main(argv):
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        log("chipbench: " + str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
