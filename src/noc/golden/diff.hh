/**
 * @file
 * Differential-testing harness: a legal-configuration space, an oracle
 * battery that compares the optimized simulator against the golden
 * models (see golden.hh) and against itself, and a greedy config
 * minimizer for failure repros.
 *
 * A DiffConfig is one point in the legal configuration space.  For
 * each point, runDiff() executes:
 *
 *  1. routing sweep — every (src, dst) pair's realized route is walked
 *     step by step through the real Routing::route and compared with
 *     the golden model's independent reconstruction, plus legality
 *     (half-router turn rules) and minimality checks; unroutable
 *     checkerboard pairs must be exactly the full-to-full odd/odd
 *     offset pairs,
 *  2. zero-load probes — single packets on an idle network must meet
 *     the golden zero-load latency *exactly*,
 *  3. shadow run — seeded random traffic with a GoldenShadow auditing
 *     conservation and final statistics,
 *  4. determinism — an identical rerun must reproduce the statistics
 *     bit for bit,
 *  5. toggle invariance — invariant validation is a pure diagnostic;
 *     a validated run must be bit-identical to the baseline,
 *  6. sliced equivalence — a DoubleNetwork must behave exactly like
 *     two independently simulated half-width slices fed the same
 *     traffic schedule.
 *
 * Configs serialize to a line-oriented `key = value` format so failing
 * repros can be checked into tests/corpus/ and replayed forever.
 */

#ifndef TENOC_NOC_GOLDEN_DIFF_HH
#define TENOC_NOC_GOLDEN_DIFF_HH

#include <string>
#include <vector>

#include "common/rng.hh"
#include "noc/mesh_network.hh"

namespace tenoc
{

/** One fuzzable configuration point (see file comment). */
struct DiffConfig
{
    unsigned rows = 6;
    unsigned cols = 6;
    unsigned numMcs = 8;
    /** Checkerboard organization: half-routers, MCs at half-router
     *  cells, and with them CR routing; otherwise full routers, MCs
     *  top and bottom, and XY routing. */
    bool checkerboard = false;

    unsigned flitBytes = 16;
    unsigned protoClasses = 2;
    unsigned vcsPerClass = 1;
    unsigned vcDepth = 8;
    unsigned pipelineDepth = 4;
    unsigned halfPipelineDepth = 3;
    unsigned mcInjPorts = 1;
    unsigned mcEjPorts = 1;
    bool sliced = false;

    double rate = 0.02;     ///< per-node packet generation probability
    Cycle genCycles = 500;  ///< traffic generation window
    std::uint64_t seed = 1;

    /** Expands to full network parameters. */
    MeshNetworkParams toNetParams() const;

    /** Line-oriented `key = value` form (stable across versions). */
    std::string serialize() const;

    /**
     * Parses serialize() output (unknown keys, malformed lines and
     * numbers that are negative, carry trailing junk or overflow
     * their field are errors; missing keys keep their defaults).
     * @return true on success; on failure `err` explains why.
     */
    static bool parse(const std::string &text, DiffConfig &out,
                      std::string *err);
};

/** @return true if `cfg` violates none of the config-space rules. */
bool legalDiffConfig(const DiffConfig &cfg);

/** Draws a uniformly random *legal* configuration. */
DiffConfig sampleDiffConfig(Rng &rng);

/** Outcome of one oracle battery. */
struct DiffReport
{
    std::vector<std::string> violations;
    /** FNV-1a digest of the baseline shadow run's final-statistics
     *  signature (end cycle, packet/flit totals, latency accumulator,
     *  per-node traffic, latency histogram).  Toggle oracles only
     *  compare runs with each other; checking this against a recorded
     *  value catches a timing change every run shares.  0 when the
     *  config is illegal. */
    std::uint64_t signatureDigest = 0;
    bool ok() const { return violations.empty(); }
};

struct DiffOptions
{
    /** Zero-load single-packet probes per config. */
    unsigned zeroLoadProbes = 32;
};

/** Runs the full oracle battery on one configuration. */
DiffReport runDiff(const DiffConfig &cfg, const DiffOptions &opts = {});

/**
 * Greedily shrinks a failing config toward smaller/simpler values
 * while it keeps failing, re-running the oracle battery per candidate
 * (at most `max_trials` times).  Returns the smallest still-failing
 * config found.
 */
DiffConfig minimizeConfig(const DiffConfig &bad,
                          const DiffOptions &opts = {},
                          unsigned max_trials = 48);

} // namespace tenoc

#endif // TENOC_NOC_GOLDEN_DIFF_HH
