/**
 * @file
 * Experiment drivers shared by the benchmark harnesses: run one
 * workload or the whole Table I suite on one chip configuration.
 */

#ifndef TENOC_ACCEL_EXPERIMENTS_HH
#define TENOC_ACCEL_EXPERIMENTS_HH

#include <vector>

#include "accel/metrics.hh"
#include "gpu/workloads.hh"

namespace tenoc
{

/** Runs one workload on one chip configuration. */
ChipResult runWorkload(const ChipParams &params,
                       const KernelProfile &profile);

/**
 * Runs the full suite.  `scale` shrinks kernel lengths for quick runs
 * (1.0 = full length).
 */
std::vector<SuiteRun> runSuite(const ChipParams &params,
                               double scale = 1.0);

/**
 * Reads the TENOC_SCALE environment variable (default `def`), used by
 * benches so CI can run shortened experiments.  A value that is not
 * wholly a positive finite number is ignored with a warning.
 */
double envScale(double def = 1.0);

} // namespace tenoc

#endif // TENOC_ACCEL_EXPERIMENTS_HH
