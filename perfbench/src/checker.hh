/**
 * @file
 * The benchmark's checker. It shares no code with the program: the
 * true residual, the Table I pick (strict dominance and symmetry)
 * and the report comparison are its own loops over the CSR arrays
 * and report fields.
 */

#ifndef PERFBENCH_CHECKER_HH
#define PERFBENCH_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "accel/acamar.hh"
#include "workloads.hh"

namespace perfbench {

/** The paper's convergence threshold (Section V-B). */
inline constexpr double kTolerance = 1e-5;

/**
 * Share by which a true residual may exceed kTolerance and still
 * pass. The solver's stopping test evaluates the residual in fp32;
 * its fp64 value lands up to ~0.25% either side of it, so a strict
 * cut fails a seed-dependent handful of solves. Those land in
 * `marginal`; only misses beyond the band count as failed.
 */
inline constexpr double kResidualBand = 0.01;

/** Running verdict over the solves of a run. */
struct Tally {
    int64_t attempted = 0;
    int64_t failed = 0;
    int64_t falseConverged = 0; //!< reported converged, true residual out of band
    int64_t marginal = 0;       //!< true residual within the band above tolerance
    double falseMin = 0.0, falseMax = 0.0; //!< range of false-converged residuals
    bool correct = true;        //!< no failure besides the known fault's
    std::vector<std::string> errors; //!< the first few, for stderr

    /** Record an output that contradicts the expected one. */
    void wrong(const std::string &why);
};

/** b = A x accumulated in fp64 and rounded once to fp32. */
std::vector<float> multiplyFp64(const acamar::CsrMatrix<float> &a,
                                const std::vector<double> &x);

/** ||b - A x|| / ||b|| in fp64 with the checker's own CSR loop. */
double trueResidual(const acamar::CsrMatrix<float> &a,
                    const std::vector<float> &x,
                    const std::vector<float> &b);

/**
 * Table I's first pick from the checker's own scans: strictly
 * diagonally dominant -> JB, else symmetric -> CG, else BiCG-STAB.
 */
acamar::SolverKind tableIPick(const acamar::CsrMatrix<float> &a);

/** Does the recipe's Table II row have a checkmark for `kind`? */
bool tableIIAllows(const acamar::DatasetSpec &spec,
                   acamar::SolverKind kind);

/**
 * Check one solve of `s` against right-hand side `j`: first pick,
 * Table II checkmark of the final solver (the fallback system
 * instead needs a failed first attempt and a converged later one),
 * and the true residual. Returns whether the solve passed. A failed
 * solve of a known-fault system only counts as failed; any other
 * failure also turns `correct` false.
 */
bool checkSolve(const System &s, size_t j, acamar::SolverKind pick,
                const acamar::AcamarRunReport &rep, Tally &t);

/**
 * Byte-identity of two reports: every attempt's kind, status,
 * iterations, residuals, residual history, solution and timing, and
 * the run's structure, plan and model statistics. Correlation ids
 * (run/span) are not compared.
 */
bool sameReport(const acamar::AcamarRunReport &x,
                const acamar::AcamarRunReport &y);

/**
 * The checker's own test: a perturbed solution entry, a wrong first
 * pick and a grouped member with one altered byte must each be
 * caught (the first two turning `correct` false), the perturbed
 * solution of a known-fault system must count as failed only, and
 * the unaltered solve must pass. Returns false with the
 * reason in `why` otherwise.
 */
bool checkerSelfTest(std::string &why);

} // namespace perfbench

#endif // PERFBENCH_CHECKER_HH
