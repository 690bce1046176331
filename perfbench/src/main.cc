/**
 * @file
 * End-to-end solve benchmark. One process runs one workload:
 *
 *   e2e_solve --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <path>]
 *
 * With --trace 0 it times whole passes through Acamar::run or
 * BatchSolver::solveAll for --seconds and prints the end-to-end
 * metrics; with --trace 1 it prints the per-layer metrics of the
 * traced replay instead. Every pass is checked by the benchmark's own
 * checker. The last line of stdout is one JSON object.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "checker.hh"
#include "pass.hh"
#include "trace_run.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2e_solve: %s\n"
                 "usage: e2e_solve --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>]\n"
                 "workloads:",
                 why);
    for (const std::string &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

bool
parseUnsigned(const std::string &s, uint64_t &out)
{
    if (s.empty() || s.size() > 19 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i], value;
        const size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(("missing value for " + key).c_str());
        }
        uint64_t n = 0;
        if (key == "--workload") {
            a.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            if (!parseUnsigned(value, a.seed))
                usage("--seed takes a whole number");
        } else if (key == "--seconds") {
            if (!parseUnsigned(value, n) || n < 1 || n > 3600)
                usage("--seconds takes a whole number in [1, 3600]");
            a.seconds = static_cast<double>(n);
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            a.trace = value == "1";
        } else if (key == "--spans") {
            a.spans = value;
        } else {
            usage(("unknown flag " + key).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    bool known = false;
    for (const std::string &n : workloadNames())
        known = known || n == a.workload;
    if (!known)
        usage(("unknown workload '" + a.workload + "'").c_str());
    return a;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
writeSpans(const std::string &path, const Spans &spans)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "e2e_solve: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    const double t0 = spans.all().empty() ? 0.0 : spans.all()[0].start;
    for (size_t i = 0; i < spans.all().size(); ++i) {
        const Spans::Span &s = spans.all()[i];
        out << "{\"id\": " << i << ", \"name\": \"" << s.name
            << "\", \"parent\": " << s.parent
            << ", \"start_s\": " << jsonNumber(s.start - t0)
            << ", \"dur_s\": " << jsonNumber(s.dur) << "}\n";
    }
}

void
describe(const Workload &w)
{
    for (const System &s : w.systems) {
        const double mib =
            static_cast<double>(s.a.nnz()) * 8.0 / (1 << 20) +
            static_cast<double>(s.a.numRows() + 1) * 8.0 / (1 << 20);
        std::fprintf(stderr,
                     "  %-3s rows=%d nnz=%" PRId64
                     " csr=%.1f MiB rhs=%zu%s\n",
                     s.id.c_str(), s.a.numRows(), s.a.nnz(), mib,
                     s.rhs.size(),
                     s.knownFault ? " (known fault, fixed inputs)" : "");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    Tally tally;
    std::string why;
    if (!checkerSelfTest(why))
        tally.wrong("checker self-test: " + why);

    // STREAM before the set-up, so its buffers and the workload's
    // matrices are never resident together.
    Roofline roof;
    if (args.trace)
        roof = measureRoofline();

    std::vector<double> setups;
    std::unique_ptr<Workload> w;
    for (int r = 0; r < kSetupRepeats; ++r) {
        w.reset();
        const double t0 = nowSec();
        w = buildWorkload(args.workload, args.seed);
        setups.push_back(nowSec() - t0);
    }
    std::fprintf(stderr, "%s (seed %" PRIu64 "):\n", w->name.c_str(),
                 args.seed);
    describe(*w);

    PassRunner runner(*w);
    if (w->batched())
        runner.setReference(soloReports(*w, w->jobs));

    // Untimed warm pass: caches, pools and lazy set-up settle.
    std::vector<acamar::AcamarRunReport> warm = runner.run();
    runner.check(warm, tally);
    if (!w->batched())
        runner.setReference(std::move(warm));

    std::vector<Metric> metrics;
    if (args.trace) {
        Spans spans;
        const double t0 = nowSec();
        metrics = tracedRun(*w, runner, roof, args.seconds, tally, spans);
        std::fprintf(stderr,
                     "  traced run %.2f s; STREAM %.2f GB/s at %.0f MiB, "
                     "%.2f GB/s at %.0f MiB (LLC %.0f MiB)\n",
                     nowSec() - t0, roof.cacheGbps,
                     roof.cacheBytes / (1 << 20), roof.dramGbps,
                     roof.dramBytes / (1 << 20), roof.llcBytes / (1 << 20));
        if (!args.spans.empty())
            writeSpans(args.spans, spans);
    } else {
        std::vector<double> walls;
        const double start = nowSec();
        while (walls.empty() || nowSec() - start < args.seconds) {
            const double t0 = nowSec();
            const std::vector<acamar::AcamarRunReport> reps = runner.run();
            walls.push_back(nowSec() - t0);
            runner.check(reps, tally);
        }
        double timed = 0.0;
        for (double x : walls)
            timed += x;
        const double solves =
            static_cast<double>(walls.size() * w->solvesPerPass());
        metrics = {
            {"time_to_solution_s", "s", median(walls)},
            {"solves_per_s", "1/s", solves / timed},
            {"setup_s", "s", median(setups)},
            {"peak_rss_mib", "MiB", peakRssMib()},
        };
        std::fprintf(stderr,
                     "  %zu timed passes of %zu solves: median %.4f s, "
                     "min %.4f s, max %.4f s; set-up median of %d: "
                     "%.3f s\n",
                     walls.size(), w->solvesPerPass(), median(walls),
                     *std::min_element(walls.begin(), walls.end()),
                     *std::max_element(walls.begin(), walls.end()),
                     kSetupRepeats, median(setups));
        std::fprintf(stderr, "  pass walls (s):");
        for (double x : walls)
            std::fprintf(stderr, " %.4f", x);
        std::fprintf(stderr, "\n");
    }

    std::fprintf(stderr,
                 "  solves attempted %" PRId64 ", failed %" PRId64
                 " (reported converged, true residual above tolerance: "
                 "%" PRId64 ", residuals %.3g to %.3g; within the %.0f%% "
                 "band: %" PRId64 ")\n",
                 tally.attempted, tally.failed, tally.falseConverged,
                 tally.falseMin, tally.falseMax, 100.0 * kResidualBand,
                 tally.marginal);
    for (const std::string &e : tally.errors)
        std::fprintf(stderr, "  WRONG: %s\n", e.c_str());

    std::string json = "{\"correct\": ";
    json += tally.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s: %s = %s %s\n", w->name.c_str(), m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
