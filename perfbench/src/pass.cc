#include "pass.hh"

#include <thread>

#include "bench_util.hh"

namespace perfbench {

using acamar::AcamarRunReport;

PassRunner::PassRunner(Workload &w) : w_(w)
{
    for (const System &s : w.systems)
        picks_.push_back(tableIPick(s.a));
    if (!w.batched()) {
        acamar::AcamarConfig cfg;
        cfg.hostThreads = w.hostThreads;
        acc_ = std::make_unique<acamar::Acamar>(cfg);
    }
}

std::vector<AcamarRunReport>
PassRunner::run(std::vector<double> *walls)
{
    if (w_.batched())
        return w_.batch->solveAll();
    std::vector<AcamarRunReport> reps;
    reps.reserve(w_.solvesPerPass());
    for (const System &s : w_.systems) {
        for (const auto &b : s.rhs) {
            const double t0 = nowSec();
            reps.push_back(acc_->run(s.a, b));
            if (walls)
                walls->push_back(nowSec() - t0);
        }
    }
    return reps;
}

void
PassRunner::check(const std::vector<AcamarRunReport> &reps,
                  Tally &t) const
{
    if (reps.size() != w_.solvesPerPass()) {
        t.wrong("pass returned " + std::to_string(reps.size()) +
                " reports for " + std::to_string(w_.solvesPerPass()) +
                " solves");
        t.attempted += static_cast<int64_t>(w_.solvesPerPass());
        t.failed += static_cast<int64_t>(w_.solvesPerPass());
        return;
    }
    size_t i = 0;
    for (size_t s = 0; s < w_.systems.size(); ++s) {
        const System &sys = w_.systems[s];
        for (size_t j = 0; j < sys.rhs.size(); ++j, ++i) {
            const bool ok = checkSolve(sys, j, picks_[s], reps[i], t);
            if (!reference_.empty() &&
                !sameReport(reps[i], reference_[i])) {
                t.wrong(sys.id + "[" + std::to_string(j) + "]: " +
                        (w_.batched()
                             ? "differs from the solo Acamar::run"
                             : "differs from the warm pass"));
                if (ok)
                    ++t.failed;
            }
        }
    }
}

std::vector<AcamarRunReport>
soloReports(const Workload &w, int threads)
{
    std::vector<std::pair<const System *, size_t>> jobs;
    for (const System &s : w.systems)
        for (size_t j = 0; j < s.rhs.size(); ++j)
            jobs.emplace_back(&s, j);
    std::vector<AcamarRunReport> out(jobs.size());
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (size_t i = static_cast<size_t>(t); i < jobs.size();
                 i += static_cast<size_t>(threads)) {
                acamar::Acamar acc;
                out[i] = acc.run(jobs[i].first->a,
                                 jobs[i].first->rhs[jobs[i].second]);
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    return out;
}

} // namespace perfbench
