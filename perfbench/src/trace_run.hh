/**
 * @file
 * The traced run: per-layer metrics measured from the benchmark's
 * own files, by replaying the facade from its public units and the
 * kernel mix on the workload's own matrices and vectors.
 */

#ifndef PERFBENCH_TRACE_RUN_HH
#define PERFBENCH_TRACE_RUN_HH

#include <string>
#include <vector>

#include "bench_util.hh"
#include "checker.hh"
#include "pass.hh"
#include "workloads.hh"

namespace perfbench {

/** STREAM peaks measured in the same process. */
struct Roofline {
    double cacheGbps = 0.0; //!< in-cache buffer
    double dramGbps = 0.0;  //!< buffer >= 4x the reported LLC
    double cacheBytes = 0.0;
    double dramBytes = 0.0;
    double llcBytes = 0.0;  //!< as the CPU reports it (0 = unknown)
};

/**
 * The program's STREAM calibration (one thread) at one in-cache size
 * and one size >= 4x the LLC.
 */
Roofline measureRoofline();

/** One reported metric. */
struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
};

/**
 * Every per-layer metric for workload `w`, in BENCHMARK.json order.
 * Layers the workload does not exercise read 0. Mismatches between
 * the replay and the facade's reports go into `t`.
 */
std::vector<Metric> tracedRun(Workload &w, PassRunner &runner,
                                   const Roofline &roof,
                                   double seconds, Tally &t,
                                   Spans &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_RUN_HH
