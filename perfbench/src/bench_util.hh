/**
 * @file
 * Small helpers shared by the benchmark's files: wall clock, medians,
 * process memory and a span recorder.
 */

#ifndef PERFBENCH_BENCH_UTIL_HH
#define PERFBENCH_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

/** Monotonic wall clock in seconds. */
inline double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Median of a sample (0 for an empty one). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Peak resident set of this process in MiB. */
inline double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Worker threads for the threaded workloads: nproc, at most 4. */
inline int
benchThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 4u));
}

/**
 * In-memory span recorder for the traced run. Each span has a name,
 * start, duration and the index of the span that was open when it
 * began (its cause); spans are written out when the run ends.
 */
class Spans
{
  public:
    struct Span {
        std::string name;
        int parent = -1;
        double start = 0.0;
        double dur = 0.0;
    };

    /** RAII span: open on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Spans &s, std::string name) : spans_(s)
        {
            index_ = static_cast<int>(s.spans_.size());
            s.spans_.push_back({std::move(name),
                                s.open_.empty() ? -1 : s.open_.back(),
                                nowSec(), 0.0});
            s.open_.push_back(index_);
        }
        ~Scope()
        {
            Span &sp = spans_.spans_[static_cast<size_t>(index_)];
            sp.dur = nowSec() - sp.start;
            spans_.open_.pop_back();
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        int index_ = 0;
    };

    /** Summed duration per span name, over spans [from, end). */
    std::map<std::string, double>
    totalsSince(size_t from) const
    {
        std::map<std::string, double> t;
        for (size_t i = from; i < spans_.size(); ++i)
            t[spans_[i].name] += spans_[i].dur;
        return t;
    }

    const std::vector<Span> &all() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_HH
