/**
 * @file
 * The benchmark's three workloads and their set-up: matrices,
 * right-hand sides and (for the batch) the queued BatchSolver.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/batch_solver.hh"
#include "sparse/catalog.hh"
#include "sparse/csr.hh"

namespace perfbench {

/** One matrix and the right-hand sides solved against it. */
struct System {
    std::string id;                      //!< catalog ID or "Qs"
    const acamar::DatasetSpec *spec = nullptr; //!< null: fallback system
    acamar::CsrMatrix<float> a;
    std::vector<std::vector<float>> rhs;
    /**
     * True for If and Ns, whose solves fail under the known fp32
     * verdict fault. The checker counts their failures as failed
     * without turning `correct` false, and their right-hand sides do
     * not depend on the workload seed, so the failed share is the
     * same on every seed.
     */
    bool knownFault = false;
};

/** A workload: its systems and how the program is driven over them. */
struct Workload {
    std::string name;
    std::vector<System> systems;
    int hostThreads = 1; //!< AcamarConfig::hostThreads of single solves
    int jobs = 0;        //!< BatchOptions::jobs; 0 = single solves
    int blockWidth = 1;  //!< BatchOptions::blockWidth
    /** The queued batch (grouped workloads only). */
    std::unique_ptr<acamar::BatchSolver> batch;

    bool batched() const { return jobs > 0; }

    /** Solves one pass attempts. */
    size_t solvesPerPass() const;
};

/** Names accepted by --workload, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/**
 * The timed set-up: generate and convert the matrices, draw x_true
 * from `seed` and form b = A x_true, and queue the batch. Fatal on an
 * unknown name.
 */
std::unique_ptr<Workload> buildWorkload(const std::string &name,
                                        uint64_t seed);

/** Queue every (system, rhs) pair into a BatchSolver. */
std::unique_ptr<acamar::BatchSolver>
queueBatch(const Workload &w, int jobs, int block_width);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
