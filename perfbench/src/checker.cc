#include "checker.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

using acamar::AcamarRunReport;
using acamar::CsrMatrix;
using acamar::SolverKind;

namespace {

constexpr size_t kMaxErrors = 8;

/** Bitwise equality of two trivially copyable arrays. */
template <typename T>
bool
sameBytes(const std::vector<T> &x, const std::vector<T> &y)
{
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

bool
sameBits(double x, double y)
{
    return std::memcmp(&x, &y, sizeof(double)) == 0;
}

bool
sameTiming(const acamar::TimingBreakdown &x,
           const acamar::TimingBreakdown &y)
{
    return x.initCycles == y.initCycles &&
           x.spmvCycles == y.spmvCycles &&
           x.denseCycles == y.denseCycles &&
           x.reconfigCycles == y.reconfigCycles &&
           x.iterations == y.iterations &&
           x.spmvUsefulMacs == y.spmvUsefulMacs &&
           x.spmvOfferedMacs == y.spmvOfferedMacs &&
           x.reconfigEvents == y.reconfigEvents;
}

/** Value of the stored entry (row, col), if any. */
bool
findEntry(const CsrMatrix<float> &a, int32_t row, int32_t col,
          float &out)
{
    const auto &rp = a.rowPtr();
    const auto &ci = a.colIdx();
    // Column indices are sorted within each row (a CSR invariant).
    const auto first = ci.begin() + rp[row];
    const auto last = ci.begin() + rp[row + 1];
    const auto it = std::lower_bound(first, last, col);
    if (it != last && *it == col) {
        out = a.values()[static_cast<size_t>(it - ci.begin())];
        return true;
    }
    return false;
}

/**
 * Same simulated statistics: analyzer cycles, plan, pass timing, RU
 * and every attempt's modelled timing.
 */
bool
sameModelStats(const AcamarRunReport &x, const AcamarRunReport &y)
{
    if (x.attempts.size() != y.attempts.size())
        return false;
    for (size_t i = 0; i < x.attempts.size(); ++i)
        if (!sameTiming(x.attempts[i].timing, y.attempts[i].timing))
            return false;
    return x.analyzerCycles == y.analyzerCycles &&
           x.structure.analysisCycles == y.structure.analysisCycles &&
           x.plan.factors == y.plan.factors &&
           x.plan.reconfigEvents == y.plan.reconfigEvents &&
           x.passStats.cycles == y.passStats.cycles &&
           x.passStats.usefulMacs == y.passStats.usefulMacs &&
           x.passStats.offeredMacs == y.passStats.offeredMacs &&
           sameTiming(x.totalTiming, y.totalTiming) &&
           sameBits(x.paperRu, y.paperRu) &&
           sameBits(x.occupancyRu, y.occupancyRu);
}

const char *
name(SolverKind k)
{
    switch (k) {
      case SolverKind::Jacobi: return "JB";
      case SolverKind::CG: return "CG";
      case SolverKind::BiCgStab: return "BiCG-STAB";
      default: return "other";
    }
}

} // namespace

void
Tally::wrong(const std::string &why)
{
    correct = false;
    if (errors.size() < kMaxErrors)
        errors.push_back(why);
}

std::vector<float>
multiplyFp64(const CsrMatrix<float> &a, const std::vector<double> &x)
{
    const auto &rp = a.rowPtr();
    const auto &ci = a.colIdx();
    const auto &va = a.values();
    std::vector<float> b(static_cast<size_t>(a.numRows()));
    for (int32_t r = 0; r < a.numRows(); ++r) {
        double s = 0.0;
        for (int64_t k = rp[r]; k < rp[r + 1]; ++k)
            s += static_cast<double>(va[k]) * x[ci[k]];
        b[static_cast<size_t>(r)] = static_cast<float>(s);
    }
    return b;
}

double
trueResidual(const CsrMatrix<float> &a, const std::vector<float> &x,
             const std::vector<float> &b)
{
    if (x.size() != static_cast<size_t>(a.numCols()) ||
        b.size() != static_cast<size_t>(a.numRows()))
        return INFINITY;
    const auto &rp = a.rowPtr();
    const auto &ci = a.colIdx();
    const auto &va = a.values();
    double rr = 0.0, bb = 0.0;
    for (int32_t r = 0; r < a.numRows(); ++r) {
        double ax = 0.0;
        for (int64_t k = rp[r]; k < rp[r + 1]; ++k)
            ax += static_cast<double>(va[k]) *
                  static_cast<double>(x[ci[k]]);
        const double br = b[static_cast<size_t>(r)];
        rr += (br - ax) * (br - ax);
        bb += br * br;
    }
    return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

SolverKind
tableIPick(const CsrMatrix<float> &a)
{
    const auto &rp = a.rowPtr();
    const auto &ci = a.colIdx();
    const auto &va = a.values();
    bool dominant = a.numRows() == a.numCols();
    for (int32_t r = 0; dominant && r < a.numRows(); ++r) {
        double diag = 0.0, off = 0.0;
        for (int64_t k = rp[r]; k < rp[r + 1]; ++k) {
            const double v = std::fabs(static_cast<double>(va[k]));
            (ci[k] == r ? diag : off) += v;
        }
        dominant = off < diag;
    }
    if (dominant)
        return SolverKind::Jacobi;

    // Symmetric: every stored (r, c) has a stored (c, r) equal to
    // within the structure unit's fp32 tolerance.
    bool symmetric = a.numRows() == a.numCols();
    for (int32_t r = 0; symmetric && r < a.numRows(); ++r) {
        for (int64_t k = rp[r]; symmetric && k < rp[r + 1]; ++k) {
            float t = 0.0f;
            symmetric = findEntry(a, ci[k], r, t) &&
                        std::fabs(static_cast<double>(va[k]) -
                                  static_cast<double>(t)) <= 1e-6;
        }
    }
    return symmetric ? SolverKind::CG : SolverKind::BiCgStab;
}

bool
tableIIAllows(const acamar::DatasetSpec &spec, SolverKind kind)
{
    switch (kind) {
      case SolverKind::Jacobi: return spec.jbExpected;
      case SolverKind::CG: return spec.cgExpected;
      case SolverKind::BiCgStab: return spec.bicgExpected;
      default: return false;
    }
}

bool
checkSolve(const System &s, size_t j, SolverKind pick,
           const AcamarRunReport &rep, Tally &t)
{
    ++t.attempted;
    bool ok = true;
    auto wrong = [&](const std::string &why) {
        ok = false;
        t.wrong(s.id + "[" + std::to_string(j) + "]: " + why);
    };
    // A failed solve of the known fault (If, Ns) only counts as
    // failed; on any other system it is a wrong output.
    auto fail = [&](const std::string &why) {
        if (s.knownFault)
            ok = false;
        else
            wrong(why);
    };
    if (rep.attempts.empty()) {
        wrong("no solve attempt");
        ++t.failed;
        return false;
    }
    if (rep.structure.solver != pick || rep.attempts[0].kind != pick)
        wrong(std::string("first pick ") + name(rep.attempts[0].kind) +
              ", Table I gives " + name(pick));
    if (s.spec) {
        if (!rep.converged)
            fail("did not converge");
        else if (!tableIIAllows(*s.spec, rep.finalSolver))
            wrong(std::string("converged with ") +
                  name(rep.finalSolver) + ", no Table II checkmark");
    } else if (rep.attempts.size() < 2 ||
               rep.attempts.front().result.ok() || !rep.converged) {
        wrong("fallback system: first attempt must fail and a later "
              "one converge");
    }
    if (rep.converged) {
        const double res = trueResidual(s.a, rep.solution(), s.rhs[j]);
        if (!(res <= kTolerance * (1.0 + kResidualBand))) {
            t.falseMin = t.falseConverged ? std::min(t.falseMin, res) : res;
            t.falseMax = std::max(t.falseMax, res);
            ++t.falseConverged;
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "reported converged, true residual %.3g", res);
            fail(buf);
        } else if (res > kTolerance) {
            ++t.marginal;
        }
    }
    if (!ok)
        ++t.failed;
    return ok;
}

bool
sameReport(const AcamarRunReport &x, const AcamarRunReport &y)
{
    if (!sameModelStats(x, y) || x.converged != y.converged ||
        x.finalSolver != y.finalSolver || x.timedOut != y.timedOut ||
        x.structure.solver != y.structure.solver)
        return false;
    for (size_t i = 0; i < x.attempts.size(); ++i) {
        const acamar::SolveResult &a = x.attempts[i].result;
        const acamar::SolveResult &b = y.attempts[i].result;
        if (x.attempts[i].kind != y.attempts[i].kind ||
            a.status != b.status || a.iterations != b.iterations ||
            !sameBits(a.initialResidual, b.initialResidual) ||
            !sameBits(a.finalResidual, b.finalResidual) ||
            !sameBits(a.relativeResidual, b.relativeResidual) ||
            !sameBytes(a.residualHistory, b.residualHistory) ||
            !sameBytes(a.solution, b.solution))
            return false;
    }
    return true;
}

bool
checkerSelfTest(std::string &why)
{
    const auto &catalog = acamar::datasetCatalog();
    const auto li = std::find_if(catalog.begin(), catalog.end(),
                                 [](const auto &d) { return d.id == "Li"; });
    System s;
    s.id = "Li";
    s.spec = &*li;
    s.a = acamar::generateDataset(*li, 256).cast<float>();
    s.rhs.push_back(multiplyFp64(
        s.a, std::vector<double>(static_cast<size_t>(s.a.numRows()), 1.0)));
    const SolverKind pick = tableIPick(s.a);
    acamar::Acamar acc;
    const AcamarRunReport rep = acc.run(s.a, s.rhs[0]);

    Tally clean;
    if (!checkSolve(s, 0, pick, rep, clean) || !clean.correct) {
        why = "an unaltered solve did not pass";
        return false;
    }

    AcamarRunReport perturbed = rep;
    perturbed.attempts.back().result.solution[3] += 1.0f;
    Tally t1;
    if (checkSolve(s, 0, pick, perturbed, t1) || t1.failed != 1 ||
        t1.correct) {
        why = "a solution with one perturbed entry passed";
        return false;
    }
    System faulty = s;
    faulty.knownFault = true;
    Tally t1k;
    if (checkSolve(faulty, 0, pick, perturbed, t1k) || t1k.failed != 1 ||
        !t1k.correct) {
        why = "a known-fault solve was not counted failed alone";
        return false;
    }

    AcamarRunReport mispicked = rep;
    const SolverKind other =
        pick == SolverKind::CG ? SolverKind::Jacobi : SolverKind::CG;
    mispicked.structure.solver = other;
    mispicked.attempts.front().kind = other;
    Tally t2;
    if (checkSolve(s, 0, pick, mispicked, t2) || t2.failed != 1 ||
        t2.correct) {
        why = "a wrong first pick passed";
        return false;
    }

    AcamarRunReport member = rep;
    if (!sameReport(member, rep)) {
        why = "a copied report compared unequal";
        return false;
    }
    auto &x = member.attempts.back().result.solution;
    unsigned char byte = 0;
    std::memcpy(&byte, x.data() + 5, 1);
    byte ^= 1u;
    std::memcpy(x.data() + 5, &byte, 1);
    if (sameReport(member, rep)) {
        why = "a grouped member with one altered byte compared equal";
        return false;
    }
    return true;
}

} // namespace perfbench
