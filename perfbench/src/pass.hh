/**
 * @file
 * One pass of a workload through the program's public entry points,
 * and the checks every pass's reports go through.
 */

#ifndef PERFBENCH_PASS_HH
#define PERFBENCH_PASS_HH

#include <memory>
#include <vector>

#include "accel/acamar.hh"
#include "checker.hh"
#include "workloads.hh"

namespace perfbench {

class PassRunner
{
  public:
    /**
     * Scans every system for its Table I pick (untimed checker
     * work); single-solve workloads get their Acamar here.
     */
    explicit PassRunner(Workload &w);

    /**
     * One pass: Acamar::run on every system (single-solve workloads)
     * or one BatchSolver::solveAll (grouped). Reports come back in
     * submission order. When `walls` is given, each Acamar::run is
     * timed into it.
     */
    std::vector<acamar::AcamarRunReport>
    run(std::vector<double> *walls = nullptr);

    /**
     * Reports every pass must reproduce byte for byte: solo
     * Acamar::run calls for a batch, the warm pass otherwise.
     */
    void setReference(std::vector<acamar::AcamarRunReport> ref)
    {
        reference_ = std::move(ref);
    }

    const std::vector<acamar::AcamarRunReport> &reference() const
    {
        return reference_;
    }

    /** Check one pass's reports into `t`. */
    void check(const std::vector<acamar::AcamarRunReport> &reps,
               Tally &t) const;

  private:
    Workload &w_;
    std::unique_ptr<acamar::Acamar> acc_;
    std::vector<acamar::SolverKind> picks_;
    std::vector<acamar::AcamarRunReport> reference_;
};

/**
 * Solo Acamar::run(a, b_j) for every (system, rhs) in submission
 * order, each on a fresh default-config Acamar, spread over
 * `threads` threads.
 */
std::vector<acamar::AcamarRunReport> soloReports(const Workload &w,
                                                 int threads);

} // namespace perfbench

#endif // PERFBENCH_PASS_HH
