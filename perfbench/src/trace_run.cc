#include "trace_run.hh"

#include <algorithm>
#include <map>
#include <memory>

#include <unistd.h>

#include "accel/dynamic_spmv.hh"
#include "accel/fine_grained_reconfig.hh"
#include "accel/matrix_structure_unit.hh"
#include "accel/solver_modifier.hh"
#include "exec/parallel_context.hh"
#include "fpga/device.hh"
#include "fpga/memory_model.hh"
#include "obs/mem_calibration.hh"
#include "obs/profiler.hh"
#include "obs/work_ledger.hh"
#include "sim/event_queue.hh"
#include "solvers/block_solver.hh"
#include "solvers/solver.hh"
#include "solvers/workspace.hh"
#include "sparse/dense_block.hh"
#include "sparse/properties.hh"
#include "sparse/spmm.hh"
#include "sparse/spmv.hh"
#include "sparse/vector_ops.hh"

namespace perfbench {

using acamar::AcamarRunReport;
using acamar::CsrMatrix;
using acamar::SolveResult;
using acamar::SolverKind;

namespace {

/** Per-layer metrics in BENCHMARK.json order, with their units. */
const std::vector<std::pair<const char *, const char *>> kMetrics = {
    {"accel.analyze_s", "s"},
    {"accel.plan_s", "s"},
    {"accel.timing_model_s", "s"},
    {"accel.attempts", "count"},
    {"accel.fallback_attempts", "count"},
    {"accel.wasted_attempt_s", "s"},
    {"accel.useful_attempt_ratio", "ratio"},
    {"accel.facade_overhead_s", "s"},
    {"accel.model_cycles", "cycles"},
    {"accel.model_reconfig_events", "count"},
    {"accel.model_paper_ru", "ratio"},
    {"solvers.cg_s", "s"},
    {"solvers.bicgstab_s", "s"},
    {"solvers.jacobi_s", "s"},
    {"solvers.cg_us_per_iter", "us"},
    {"solvers.bicgstab_us_per_iter", "us"},
    {"solvers.jacobi_us_per_iter", "us"},
    {"solvers.iterations", "count"},
    {"solvers.block_solve_s", "s"},
    {"solvers.block_iterations", "count"},
    {"solvers.non_kernel_s", "s"},
    {"sparse.spmv_s", "s"},
    {"sparse.spmv_gbps", "GB/s"},
    {"sparse.spmv_peak_frac", "ratio"},
    {"sparse.vector_s", "s"},
    {"sparse.vector_gbps", "GB/s"},
    {"sparse.spmm_s", "s"},
    {"sparse.spmm_gbps", "GB/s"},
    {"sparse.bytes_per_iteration", "B"},
    {"sparse.stream_peak_gbps", "GB/s"},
    {"sparse.stream_cache_gbps", "GB/s"},
    {"exec.solveall_s", "s"},
    {"exec.jobs1_s", "s"},
    {"exec.parallel_speedup", "ratio"},
    {"exec.ungrouped_s", "s"},
    {"exec.grouping_speedup", "ratio"},
    {"exec.block_groups", "count"},
    {"exec.fingerprint_s", "s"},
    {"obs.profile_on_ratio", "ratio"},
    {"framework.overhead_s", "s"},
    {"trace.overhead_s", "s"},
};

// In-cache STREAM buffer: on the ~21-24 GB/s plateau of the curve.
constexpr double kCacheStreamBytes = 8.0 * (1 << 20);
// A matrix larger than this streams at the DRAM rate: the STREAM
// curve has left its cache plateau by 64 MiB.
constexpr double kDramClassBytes = 64.0 * (1 << 20);

/** Computed bytes of one CSR SpMM over k columns (k = 1: SpMV). */
double
csrBytes(const CsrMatrix<float> &a, size_t k)
{
    const auto n = static_cast<double>(a.numRows());
    const auto nnz = static_cast<double>(a.nnz());
    // values + column indices, row offsets, x read and y written.
    return nnz * (sizeof(float) + sizeof(int32_t)) +
           (n + 1) * sizeof(int64_t) +
           2.0 * n * sizeof(float) * static_cast<double>(k);
}

const char *
attemptSpan(SolverKind k)
{
    switch (k) {
      case SolverKind::Jacobi: return "solvers.jacobi";
      case SolverKind::CG: return "solvers.cg";
      case SolverKind::BiCgStab: return "solvers.bicgstab";
      default: return "solvers.other";
    }
}

/** Last-level cache size as the CPU reports it, in bytes (0 if unknown). */
double
llcBytes()
{
    for (int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                     _SC_LEVEL2_CACHE_SIZE}) {
        const long bytes = sysconf(name);
        if (bytes > 0)
            return static_cast<double>(bytes);
    }
    return 0.0;
}

/**
 * The facade's pipeline replayed from its public units, with a span
 * around each call into a layer. Records every attempt so the kernel
 * mix can be replayed on the same matrices afterwards.
 */
class Replayer
{
  public:
    Replayer(const Workload &w, Spans &spans, Tally &t)
        : w_(w), spans_(spans), t_(t),
          mem_(acamar::FpgaDevice::alveoU55c()), su_(&eq_),
          fgr_(&eq_, cfg_), dsp_(&eq_, mem_),
          mod_(&eq_, cfg_.extendedSolverChain)
    {
        if (w.hostThreads > 1) {
            pc_ = std::make_unique<acamar::ParallelContext>(
                w.hostThreads);
            ws_.setParallel(pc_.get());
        }
    }

    /** Replay one pass and compare it with the facade's reports. */
    void pass(const std::vector<AcamarRunReport> &facade);

    /** Replay the kernel mix of every recorded attempt. */
    void kernels();

    int64_t attempts = 0;
    int64_t fallbackAttempts = 0;
    int64_t convergedAttempts = 0;
    int64_t iterations = 0;
    int64_t blockIterations = 0;
    double wastedS = 0.0;
    double spmvBytes = 0.0;
    double spmmBytes = 0.0;
    double vectorBytes = 0.0;
    std::map<SolverKind, double> scalarIterations; //!< per kind

  private:
    struct ScalarRec {
        const System *sys;
        size_t rhs;
        SolverKind kind;
        int iterations;
    };
    struct BlockRec {
        const System *sys;
        SolverKind kind;
        std::vector<int> iterations; //!< per column
    };

    SolverKind frontEnd(const System &s, const AcamarRunReport &rep);
    void chain(const System &s, size_t j, SolverKind kind,
               SolveResult *first, const AcamarRunReport &rep);
    void vectorMix(const std::vector<float> &x, std::vector<float> &y,
                   std::vector<float> &z, int64_t dots, int64_t axpys);

    const Workload &w_;
    Spans &spans_;
    Tally &t_;
    acamar::AcamarConfig cfg_;
    acamar::EventQueue eq_;
    acamar::MemoryModel mem_;
    acamar::MatrixStructureUnit su_;
    acamar::FineGrainedReconfigUnit fgr_;
    acamar::DynamicSpmvKernel dsp_;
    acamar::SolverModifier mod_;
    std::unique_ptr<acamar::ParallelContext> pc_;
    acamar::SolverWorkspace ws_;
    std::vector<ScalarRec> scalarRecs_;
    std::vector<BlockRec> blockRecs_;
};

SolverKind
Replayer::frontEnd(const System &s, const AcamarRunReport &rep)
{
    acamar::StructureDecision dec;
    acamar::ReconfigPlan plan;
    acamar::SpmvRunStats pass;
    {
        Spans::Scope sc(spans_, "accel.analyze");
        dec = su_.analyze(s.a);
    }
    {
        Spans::Scope sc(spans_, "accel.plan");
        plan = fgr_.plan(s.a);
    }
    {
        Spans::Scope sc(spans_, "accel.timing_model");
        pass = dsp_.timePlanned(s.a, plan);
    }
    const acamar::Cycles analyzer = std::max(
        dec.analysisCycles, fgr_.analysisCycles(s.a.numRows()));
    if (dec.solver != rep.structure.solver ||
        analyzer != rep.analyzerCycles ||
        plan.factors != rep.plan.factors ||
        pass.cycles != rep.passStats.cycles)
        t_.wrong(s.id + ": replayed front end differs from the report");
    return dec.solver;
}

void
Replayer::chain(const System &s, size_t j, SolverKind kind,
                SolveResult *first, const AcamarRunReport &rep)
{
    mod_.reset();
    std::vector<SolverKind> kinds;
    std::vector<SolveResult> results;
    while (true) {
        SolveResult r;
        if (first) {
            r = std::move(*first); // the block solve's column
            first = nullptr;
        } else {
            const double t0 = nowSec();
            {
                Spans::Scope sc(spans_, attemptSpan(kind));
                r = acamar::makeSolver(kind)->solve(
                    s.a, s.rhs[j], {}, cfg_.criteria, ws_);
            }
            if (!r.ok())
                wastedS += nowSec() - t0;
            scalarRecs_.push_back({&s, j, kind, r.iterations});
            scalarIterations[kind] += r.iterations;
        }
        ++attempts;
        iterations += r.iterations;
        convergedAttempts += r.ok() ? 1 : 0;
        mod_.markTried(kind);
        kinds.push_back(kind);
        const bool ok = r.ok();
        const acamar::SolveStatus why = r.status;
        results.push_back(std::move(r));
        if (ok || why == acamar::SolveStatus::TimedOut)
            break;
        const auto next = mod_.onDivergence(
            kind, why, static_cast<int>(kinds.size()));
        if (!next)
            break;
        kind = *next;
    }
    fallbackAttempts += static_cast<int64_t>(kinds.size()) - 1;

    bool same = kinds.size() == rep.attempts.size();
    for (size_t i = 0; same && i < kinds.size(); ++i) {
        const SolveResult &f = rep.attempts[i].result;
        same = kinds[i] == rep.attempts[i].kind &&
               results[i].status == f.status &&
               results[i].iterations == f.iterations &&
               results[i].solution == f.solution;
    }
    if (!same)
        t_.wrong(s.id + "[" + std::to_string(j) +
                 "]: replayed attempt sequence differs from the report");
}

void
Replayer::pass(const std::vector<AcamarRunReport> &facade)
{
    size_t i = 0;
    for (const System &s : w_.systems) {
        if (i >= facade.size())
            return;
        const SolverKind kind = frontEnd(s, facade[i]);
        std::vector<SolveResult> firsts;
        if (s.rhs.size() > 1 && acamar::blockSolverAvailable(kind)) {
            // The grouped path: one fused block solve is every
            // member's first attempt (Acamar::runBlock).
            std::vector<const std::vector<float> *> bs;
            for (const auto &b : s.rhs)
                bs.push_back(&b);
            const double t0 = nowSec();
            acamar::BlockSolveResult br;
            {
                Spans::Scope sc(spans_, "solvers.block_solve");
                br = acamar::makeBlockSolver(kind)->solve(
                    s.a, bs, cfg_.criteria, ws_);
            }
            const double block_s = nowSec() - t0;
            BlockRec rec{&s, kind, {}};
            int64_t total = 0;
            for (const SolveResult &c : br.columns)
                total += c.iterations;
            for (const SolveResult &c : br.columns) {
                rec.iterations.push_back(c.iterations);
                blockIterations += c.iterations;
                if (!c.ok() && total > 0)
                    wastedS += block_s * static_cast<double>(c.iterations) /
                               static_cast<double>(total);
            }
            blockRecs_.push_back(std::move(rec));
            firsts = std::move(br.columns);
        }
        for (size_t j = 0; j < s.rhs.size() && i < facade.size();
             ++j, ++i)
            chain(s, j, kind, firsts.empty() ? nullptr : &firsts[j],
                  facade[i]);
    }
}

void
Replayer::vectorMix(const std::vector<float> &x, std::vector<float> &y,
                    std::vector<float> &z, int64_t dots, int64_t axpys)
{
    const double n = static_cast<double>(x.size());
    Spans::Scope sc(spans_, "sparse.vector");
    // Alternate the two reductions and the two updates.
    for (int64_t i = 0; i < dots; ++i) {
        if (i % 2) {
            (void)acamar::norm2(x, pc_.get());
            vectorBytes += n * sizeof(float);
        } else {
            (void)acamar::dot(x, y, pc_.get());
            vectorBytes += 2.0 * n * sizeof(float);
        }
    }
    for (int64_t i = 0; i < axpys; ++i) {
        if (i % 2)
            acamar::waxpby(0.5f, x, -0.5f, y, z);
        else
            acamar::axpy(1e-3f, x, y);
        vectorBytes += 3.0 * n * sizeof(float);
    }
}

void
Replayer::kernels()
{
    for (const ScalarRec &rec : scalarRecs_) {
        const auto prof = acamar::makeSolver(rec.kind)->iterationProfile();
        const CsrMatrix<float> &a = rec.sys->a;
        const std::vector<float> &x = rec.sys->rhs[rec.rhs];
        std::vector<float> y(x.size()), z(x.size());
        const int64_t spmvs =
            static_cast<int64_t>(prof.spmvs) * rec.iterations;
        {
            Spans::Scope sc(spans_, "sparse.spmv");
            for (int64_t i = 0; i < spmvs; ++i)
                acamar::spmv(a, x, y, pc_.get());
        }
        spmvBytes += static_cast<double>(spmvs) * csrBytes(a, 1);
        vectorMix(x, y, z, int64_t{prof.dots} * rec.iterations,
                  int64_t{prof.axpys} * rec.iterations);
    }
    for (const BlockRec &rec : blockRecs_) {
        const auto prof = acamar::makeSolver(rec.kind)->iterationProfile();
        const CsrMatrix<float> &a = rec.sys->a;
        const size_t n = static_cast<size_t>(a.numRows());
        const size_t k = rec.iterations.size();
        acamar::DenseBlock<float> xb(n, k), yb(n, k);
        for (size_t j = 0; j < k; ++j)
            xb.setColumn(j, rec.sys->rhs[j]);
        const int64_t spmms =
            int64_t{prof.spmvs} *
            *std::max_element(rec.iterations.begin(),
                              rec.iterations.end());
        {
            Spans::Scope sc(spans_, "sparse.spmm");
            for (int64_t i = 0; i < spmms; ++i)
                acamar::spmm(a, xb, yb, k, pc_.get());
        }
        spmmBytes += static_cast<double>(spmms) * csrBytes(a, k);
        int64_t col_iters = 0;
        for (int it : rec.iterations)
            col_iters += it;
        const std::vector<float> &x = rec.sys->rhs[0];
        std::vector<float> y(n), z(n);
        vectorMix(x, y, z, int64_t{prof.dots} * col_iters,
                  int64_t{prof.axpys} * col_iters);
    }
}

/** Time one solveAll of a re-queued batch (second of two calls). */
double
timeBatch(const Workload &w, int jobs, int width,
          const PassRunner &runner, Tally &t)
{
    const auto batch = queueBatch(w, jobs, width);
    double wall = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        const double t0 = nowSec();
        const std::vector<AcamarRunReport> reps = batch->solveAll();
        wall = nowSec() - t0;
        for (size_t i = 0; i < reps.size(); ++i) {
            if (!sameReport(reps[i], runner.reference()[i])) {
                t.wrong("batch jobs=" + std::to_string(jobs) +
                        " width=" + std::to_string(width) +
                        ": member " + std::to_string(i) +
                        " differs from the solo Acamar::run");
                break;
            }
        }
    }
    return wall;
}

} // namespace

Roofline
measureRoofline()
{
    Roofline r;
    r.llcBytes = llcBytes();
    acamar::MemCalibrationOptions opts;
    opts.bufferBytes = static_cast<uint64_t>(kCacheStreamBytes);
    opts.repetitions = 5;
    r.cacheBytes = kCacheStreamBytes;
    r.cacheGbps = acamar::calibrateMemoryBandwidth(opts).peakGbps;
    // At least 4x the LLC (256 MiB when the CPU does not say).
    r.dramBytes = std::max(4.0 * r.llcBytes, 256.0 * (1 << 20));
    opts.bufferBytes = static_cast<uint64_t>(r.dramBytes);
    opts.repetitions = 3;
    r.dramGbps = acamar::calibrateMemoryBandwidth(opts).peakGbps;
    return r;
}

std::vector<Metric>
tracedRun(Workload &w, PassRunner &runner, const Roofline &roof,
          double seconds, Tally &t, Spans &spans)
{
    std::map<std::string, double> m;
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    // Untraced facade passes, alternating with passes that run the
    // Profiler and WorkLedger. Every pass is checked against the
    // reference, so a profiled pass whose simulated statistics
    // differ from the unprofiled one is caught there.
    std::vector<double> off, on, facade_walls;
    std::vector<AcamarRunReport> facade;
    const double start = nowSec();
    do {
        std::vector<double> walls; // each Acamar::run call
        double t0 = nowSec();
        std::vector<AcamarRunReport> reps = runner.run(&walls);
        off.push_back(nowSec() - t0);
        runner.check(reps, t);
        if (!walls.empty()) {
            double sum = 0.0;
            for (double x : walls)
                sum += x;
            facade_walls.push_back(sum);
        }
        if (facade.empty())
            facade = std::move(reps);

        acamar::Profiler::instance().start();
        acamar::WorkLedger::instance().start();
        t0 = nowSec();
        reps = runner.run();
        on.push_back(nowSec() - t0);
        acamar::WorkLedger::instance().stop();
        acamar::Profiler::instance().stop();
        runner.check(reps, t);
    } while (off.size() < 2 || nowSec() - start < 0.3 * seconds);
    const double untraced_s = median(off);
    m["obs.profile_on_ratio"] = ratio(median(on), untraced_s);

    // A batch's facade is Acamar::runBlock per group, each on a
    // fresh accelerator as the batch runs it; time three rounds.
    for (int round = 0; w.batched() && round < 3; ++round) {
        double sum = 0.0;
        size_t i = 0;
        for (const System &s : w.systems) {
            std::vector<const std::vector<float> *> bs;
            for (const auto &b : s.rhs)
                bs.push_back(&b);
            acamar::Acamar acc;
            const double t0 = nowSec();
            const std::vector<AcamarRunReport> reps =
                acc.runBlock(s.a, bs);
            sum += nowSec() - t0;
            for (const AcamarRunReport &r : reps)
                if (!sameReport(r, runner.reference()[i++]))
                    t.wrong(s.id + ": runBlock differs from solo runs");
        }
        facade_walls.push_back(sum);
    }
    const double facade_s = median(facade_walls);

    // Traced replays of the pass, each on fresh units, until 30% of
    // the run's seconds are spent (at least three): every layer
    // time below is the median over them. Then the kernel mix of the
    // last replay.
    std::map<std::string, std::vector<double>> per_pass;
    std::vector<double> traced, wasted;
    std::unique_ptr<Replayer> rp;
    const double replay_start = nowSec();
    do {
        rp = std::make_unique<Replayer>(w, spans, t);
        const size_t from = spans.all().size();
        const double t0 = nowSec();
        {
            Spans::Scope sc(spans, "pass");
            rp->pass(facade);
        }
        traced.push_back(nowSec() - t0);
        wasted.push_back(rp->wastedS);
        for (const auto &[name, v] : spans.totalsSince(from))
            per_pass[name].push_back(v);
    } while (traced.size() < 3 ||
             nowSec() - replay_start < 0.3 * seconds);
    const size_t kernels_from = spans.all().size();
    rp->kernels();
    const std::map<std::string, double> kern =
        spans.totalsSince(kernels_from);
    auto layer = [&](const char *name) {
        const auto it = per_pass.find(name);
        return it == per_pass.end() ? 0.0 : median(it->second);
    };
    auto kernel = [&](const char *name) {
        const auto it = kern.find(name);
        return it == kern.end() ? 0.0 : it->second;
    };
    const double traced_s = median(traced);

    // The execution layer: the same batch at jobs=1 and ungrouped.
    double serial_pass_s = untraced_s;
    if (w.batched()) {
        m["exec.solveall_s"] = untraced_s;
        m["exec.jobs1_s"] = timeBatch(w, 1, w.blockWidth, runner, t);
        m["exec.parallel_speedup"] =
            ratio(m["exec.jobs1_s"], untraced_s);
        m["exec.ungrouped_s"] = timeBatch(w, w.jobs, 1, runner, t);
        m["exec.grouping_speedup"] =
            ratio(m["exec.ungrouped_s"], untraced_s);
        // Groups as the batch forms them: jobs sharing a matrix
        // fingerprint, in submission order, closed at the width.
        std::map<uint64_t, size_t> open;
        int64_t groups = 0;
        double fingerprint_s = 0.0;
        for (const System &s : w.systems) {
            const double t0 = nowSec();
            uint64_t fp = 0;
            {
                Spans::Scope sc(spans, "exec.fingerprint");
                fp = acamar::matrixFingerprint(s.a);
            }
            fingerprint_s += nowSec() - t0;
            for (size_t j = 0; j < s.rhs.size(); ++j) {
                auto [slot, fresh] = open.try_emplace(fp, 0);
                if (fresh)
                    ++groups;
                if (++slot->second >=
                    static_cast<size_t>(w.blockWidth))
                    open.erase(slot);
            }
        }
        m["exec.block_groups"] = static_cast<double>(groups);
        m["exec.fingerprint_s"] = fingerprint_s;
        serial_pass_s = m["exec.jobs1_s"];
    }

    // accel
    m["accel.analyze_s"] = layer("accel.analyze");
    m["accel.plan_s"] = layer("accel.plan");
    m["accel.timing_model_s"] = layer("accel.timing_model");
    m["accel.attempts"] = static_cast<double>(rp->attempts);
    m["accel.fallback_attempts"] =
        static_cast<double>(rp->fallbackAttempts);
    m["accel.wasted_attempt_s"] = median(wasted);
    m["accel.useful_attempt_ratio"] =
        ratio(static_cast<double>(rp->convergedAttempts),
              static_cast<double>(rp->attempts));
    double model_cycles = 0.0, model_events = 0.0, paper_ru = 0.0;
    for (const AcamarRunReport &r : facade) {
        model_cycles += static_cast<double>(r.latencyCycles(false));
        model_events += static_cast<double>(r.totalTiming.reconfigEvents);
        paper_ru += r.paperRu;
    }
    m["accel.model_cycles"] = model_cycles;
    m["accel.model_reconfig_events"] = model_events;
    m["accel.model_paper_ru"] =
        ratio(paper_ru, static_cast<double>(facade.size()));

    // solvers
    const double cg = layer("solvers.cg");
    const double bicg = layer("solvers.bicgstab");
    const double jb = layer("solvers.jacobi");
    const double block = layer("solvers.block_solve");
    m["solvers.cg_s"] = cg;
    m["solvers.bicgstab_s"] = bicg;
    m["solvers.jacobi_s"] = jb;
    auto &kind_iters = rp->scalarIterations;
    m["solvers.cg_us_per_iter"] =
        1e6 * ratio(cg, kind_iters[SolverKind::CG]);
    m["solvers.bicgstab_us_per_iter"] =
        1e6 * ratio(bicg, kind_iters[SolverKind::BiCgStab]);
    m["solvers.jacobi_us_per_iter"] =
        1e6 * ratio(jb, kind_iters[SolverKind::Jacobi]);
    m["solvers.iterations"] = static_cast<double>(rp->iterations);
    m["solvers.block_solve_s"] = block;
    m["solvers.block_iterations"] =
        static_cast<double>(rp->blockIterations);

    // sparse (kernel replay)
    const double spmv_s = kernel("sparse.spmv");
    const double spmm_s = kernel("sparse.spmm");
    const double vec_s = kernel("sparse.vector");
    double largest = 0.0;
    for (const System &s : w.systems)
        largest = std::max(largest, csrBytes(s.a, 0));
    const double peak =
        largest > kDramClassBytes ? roof.dramGbps : roof.cacheGbps;
    m["sparse.spmv_s"] = spmv_s;
    m["sparse.spmv_gbps"] = ratio(rp->spmvBytes, spmv_s) / 1e9;
    m["sparse.spmv_peak_frac"] = ratio(m["sparse.spmv_gbps"], peak);
    m["sparse.vector_s"] = vec_s;
    m["sparse.vector_gbps"] = ratio(rp->vectorBytes, vec_s) / 1e9;
    m["sparse.spmm_s"] = spmm_s;
    m["sparse.spmm_gbps"] = ratio(rp->spmmBytes, spmm_s) / 1e9;
    m["sparse.bytes_per_iteration"] =
        ratio(rp->spmvBytes + rp->spmmBytes + rp->vectorBytes,
              static_cast<double>(rp->iterations));
    m["sparse.stream_peak_gbps"] = roof.dramGbps;
    m["sparse.stream_cache_gbps"] = roof.cacheGbps;

    const double attempts_s =
        cg + bicg + jb + layer("solvers.other") + block;
    m["solvers.non_kernel_s"] = attempts_s - (spmv_s + spmm_s + vec_s);
    const double children = m["accel.analyze_s"] + m["accel.plan_s"] +
                            m["accel.timing_model_s"] + attempts_s;
    m["accel.facade_overhead_s"] = facade_s - children;
    m["framework.overhead_s"] =
        serial_pass_s - children - m["exec.fingerprint_s"];
    m["trace.overhead_s"] = traced_s - serial_pass_s;

    std::vector<Metric> out;
    for (const auto &[name, unit] : kMetrics)
        out.push_back({name, unit, m[name]});
    return out;
}

} // namespace perfbench
