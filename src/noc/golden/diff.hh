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
 * Configs are written as Config key files (noc.* mesh keys plus the
 * harness keys, see diffConfigFromConfig) so failing repros can be
 * checked into tests/corpus/ and replayed forever.
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
    /** The network; `mesh.seed` (key sim.seed) also seeds the traffic
     *  schedule and the oracles' probes. */
    MeshNetworkParams mesh;
    bool sliced = false;    ///< noc.sliced: a DoubleNetwork
    double rate = 0.02;     ///< traffic.rate: per-node packet probability
    Cycle genCycles = 500;  ///< traffic.genCycles: generation window
};

/**
 * Reads a harness config: the MESH_CONFIG_KEYS keys (via
 * meshParamsFromConfig) plus the harness keys noc.protoClasses,
 * noc.sliced, traffic.rate, traffic.genCycles and sim.seed (used as
 * is for mesh.seed).  Missing keys keep DiffConfig's defaults.  Fatal
 * on any other key, a malformed value, a mesh meshParamsError
 * refuses, a rate outside [0, 1] or a zero traffic.genCycles.
 */
DiffConfig diffConfigFromConfig(const Config &cfg);

/** Every key of `cfg` in diffConfigFromConfig's terms (placement must
 *  not be CUSTOM). */
Config toConfig(const DiffConfig &cfg);

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
