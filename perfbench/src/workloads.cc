#include "workloads.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hh"
#include "checker.hh"
#include "common/random.hh"
#include "sparse/coo.hh"

namespace perfbench {

namespace {

// Rows of catalog-serial: Si, the largest recipe, is ~1 M nnz
// (~8 MiB of CSR), on the cache plateau of the STREAM curve.
constexpr int32_t kCacheDim = 16384;
// The paper's 4096-row chunk, for the grouped batch.
constexpr int32_t kBatchDim = 4096;
constexpr int kBatchRhs = 8;
// dram-threaded: each CSR is ~120 MiB, past the knee where STREAM
// drops to its DRAM rate (README has the curve and why not larger).
constexpr int32_t kDramSiRows = 262144;
constexpr int32_t kDramPoRows = 128 * 128 * 128;

/** The recipes whose solves hit the known fp32 verdict fault. */
bool
knownFalseConvergence(const std::string &id)
{
    return id == "If" || id == "Ns";
}

/**
 * Draw `count` right-hand sides b = A x_true, x_true ~ U[0.5, 1.5),
 * one Rng stream per (seed, system index, rhs index).
 */
void
drawRhs(System &s, size_t index, int count, uint64_t seed)
{
    uint64_t state = s.knownFault ? 0 : seed;
    const uint64_t base = acamar::splitmix64(state);
    for (int j = 0; j < count; ++j) {
        acamar::Rng rng(base ^ (index << 16) ^ static_cast<uint64_t>(j));
        // x_true is held in fp32, as a caller of the fp32 solver has it.
        std::vector<double> x(static_cast<size_t>(s.a.numCols()));
        for (double &v : x)
            v = static_cast<float>(rng.uniform(0.5, 1.5));
        s.rhs.push_back(multiplyFp64(s.a, x));
    }
}

/** Draw `count` right-hand sides for every system of `w`. */
void
drawAllRhs(Workload &w, int count, uint64_t seed)
{
    for (size_t i = 0; i < w.systems.size(); ++i)
        drawRhs(w.systems[i], i, count, seed);
}

System
catalogSystem(const acamar::DatasetSpec &spec, int32_t dim)
{
    System s;
    s.id = spec.id;
    s.spec = &spec;
    s.knownFault = knownFalseConvergence(spec.id);
    s.a = acamar::generateDataset(spec, dim).cast<float>();
    return s;
}

/**
 * The quickstart's symmetric indefinite system: 2x2 blocks
 * [d, 0.7d; 0.7d, -d] plus one coupling that breaks strict
 * dominance. The structure unit sees symmetry and picks CG, CG
 * cannot converge on the indefinite spectrum, and the Solver
 * Modifier falls back to JB, which converges.
 */
System
fallbackSystem(int32_t rows)
{
    const int32_t pairs = rows / 2;
    acamar::CooMatrix<double> coo(2 * pairs, 2 * pairs);
    acamar::Rng rng(3);
    for (int32_t i = 0; i < pairs; ++i) {
        const int32_t p = 2 * i, q = 2 * i + 1;
        const double d =
            i < 2 ? 1.0 : std::pow(10.0, rng.uniform(-3.5, 0.0));
        coo.add(p, p, d);
        coo.add(q, q, -d);
        coo.add(p, q, 0.7 * d);
        coo.add(q, p, 0.7 * d);
    }
    coo.add(0, 2, 0.31);
    coo.add(2, 0, 0.31);
    System s;
    s.id = "Qs";
    s.a = coo.toCsr().cast<float>();
    return s;
}

const acamar::DatasetSpec &
dataset(const std::string &id)
{
    for (const auto &spec : acamar::datasetCatalog())
        if (spec.id == id)
            return spec;
    std::fprintf(stderr, "perfbench: no catalog recipe %s\n", id.c_str());
    std::exit(2);
}

} // namespace

size_t
Workload::solvesPerPass() const
{
    size_t n = 0;
    for (const System &s : systems)
        n += s.rhs.size();
    return n;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "catalog-serial", "dram-threaded", "grouped-batch"};
    return names;
}

std::unique_ptr<acamar::BatchSolver>
queueBatch(const Workload &w, int jobs, int block_width)
{
    acamar::BatchOptions opts;
    opts.jobs = jobs;
    opts.blockWidth = block_width;
    auto batch = std::make_unique<acamar::BatchSolver>(opts);
    for (const System &s : w.systems)
        for (const auto &b : s.rhs)
            batch->add(s.a, b);
    return batch;
}

std::unique_ptr<Workload>
buildWorkload(const std::string &name, uint64_t seed)
{
    auto w = std::make_unique<Workload>();
    w->name = name;
    if (name == "catalog-serial") {
        for (const auto &spec : acamar::datasetCatalog())
            w->systems.push_back(catalogSystem(spec, kCacheDim));
        w->systems.push_back(fallbackSystem(kCacheDim));
        drawAllRhs(*w, 1, seed);
    } else if (name == "dram-threaded") {
        w->hostThreads = benchThreads();
        w->systems.push_back(catalogSystem(dataset("Si"), kDramSiRows));
        w->systems.push_back(catalogSystem(dataset("Po"), kDramPoRows));
        drawAllRhs(*w, 1, seed);
    } else if (name == "grouped-batch") {
        w->jobs = benchThreads();
        w->blockWidth = kBatchRhs;
        for (const auto &spec : acamar::datasetCatalog())
            w->systems.push_back(catalogSystem(spec, kBatchDim));
        drawAllRhs(*w, kBatchRhs, seed);
        w->batch = queueBatch(*w, w->jobs, w->blockWidth);
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     name.c_str());
        std::exit(2);
    }
    return w;
}

} // namespace perfbench
