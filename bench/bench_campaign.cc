/**
 * @file
 * Campaign-runner scaling bench: wall-time speedup of the parallel
 * campaign at jobs ∈ {1, 2, 4, 8} on a Table-IV subset, with
 * stop-on-bug disabled so every configuration executes the same fixed
 * iteration budget (kIterations; GOAT_SWEEP_MAXITER can lower it).
 * Each job count's wall time is the median of kReps runs, interleaved
 * across job counts after one untimed warm-up round, so a slow phase
 * of a shared host spreads over all of them instead of landing on one.
 *
 * Also cross-checks the determinism contract while it is at it: the
 * merged coverage bitmap at every worker count must equal the jobs=1
 * bitmap, or the speedup numbers are meaningless.
 *
 * Also measures the soak memory row: peak RSS of a cockroach_1055
 * `-cov -predict -keep-going` campaign at jobs=2 for 10k and 100k
 * iterations, each run in a forked child so it reads its own
 * high-water mark. The difference over the extra 90k iterations is
 * the memory a campaign retains per iteration, which
 * tools/check_bench.py bounds.
 *
 * Writes a machine-readable summary to BENCH_campaign.json in the
 * current directory: per-jobs wall time, iterations/second, and
 * speedup, plus the honest host core count and the soak memory row. Job counts exceeding the
 * cores the container grants still run (the determinism cross-check
 * covers them) but are marked timed=false and carry no speedup — an
 * oversubscribed "slowdown" is scheduler noise, not a regression, and
 * timing-quality consumers (tools/check_bench.py --compare) skip
 * those samples.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "bench_common.hh"
#include "campaign/campaign.hh"

using namespace goat;
using goat::campaign::CampaignConfig;
using goat::campaign::CampaignResult;

namespace {

/** Timed runs per job count; the sample is their median. */
constexpr int kReps = 15;

/**
 * Iterations per kernel campaign: with kReps, long enough that runs of
 * one binary agree on the jobs=1 median within 10% on a shared 4-vCPU
 * host.
 */
constexpr int kIterations = 3000;

/** Table-IV subset: varied projects and detection difficulty. */
const char *kSubset[] = {
    "cockroach_1055", "cockroach_10214", "etcd_7443",
    "kubernetes_30872", "moby_28462",    "grpc_2371",
};

struct JobsSample
{
    int jobs = 0;
    /** Median wall time of the kReps runs. */
    uint64_t wallMicros = 0;
    std::vector<uint64_t> repMicros;
    int executed = 0;
    bool identical = true; // merged bitmaps equal to jobs=1
    /** False when jobs oversubscribes the host (determinism only). */
    bool timed = true;

    double
    itersPerSec() const
    {
        return wallMicros ? 1e6 * static_cast<double>(executed) /
                                static_cast<double>(wallMicros)
                          : 0.0;
    }
};

uint64_t
runSubset(int jobs, int iterations, std::vector<std::string> *bitmaps)
{
    using std::chrono::steady_clock;
    auto &reg = goker::KernelRegistry::instance();
    auto t0 = steady_clock::now();
    for (const char *name : kSubset) {
        const goker::KernelInfo *k = reg.find(name);
        if (!k) {
            std::printf("unknown kernel %s\n", name);
            std::exit(1);
        }
        CampaignConfig cfg;
        cfg.engine.delayBound = 2;
        cfg.engine.seedBase = 0xC0FFEE;
        cfg.engine.maxIterations = iterations;
        cfg.engine.stopOnBug = false;
        cfg.engine.collectCoverage = true;
        cfg.engine.covThreshold = 200.0;
        cfg.engine.staticModel = goker::kernelCuTable(*k);
        cfg.jobs = jobs;
        CampaignResult r = campaign::runCampaign(cfg, k->fn);
        bitmaps->push_back(r.coverage.bitmapStr());
    }
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            steady_clock::now() - t0)
            .count());
}

/** Soak memory row sizes: the retained bytes per iteration are the
 * peak-RSS difference over the 90k iterations between them. */
constexpr int kSoakSmall = 10'000;
constexpr int kSoakLarge = 100'000;

/**
 * Peak RSS in KiB of one cockroach_1055 -cov -predict -keep-going
 * campaign of @p iterations at jobs=2, run in a forked child (-1 on
 * failure). Both sizes fork from the same parent state, so their
 * difference is the campaign's own growth.
 */
long
soakPeakRssKb(int iterations)
{
    const goker::KernelInfo *k =
        goker::KernelRegistry::instance().find("cockroach_1055");
    if (!k)
        return -1;
    std::fflush(stdout);
    pid_t pid = ::fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        CampaignConfig cfg;
        cfg.engine.maxIterations = iterations;
        cfg.engine.stopOnBug = false;
        cfg.engine.collectCoverage = true;
        cfg.engine.covThreshold = 200.0;
        cfg.engine.predict = true;
        cfg.engine.staticModel = goker::kernelCuTable(*k);
        cfg.programName = k->name;
        cfg.jobs = 2;
        CampaignResult r = campaign::runCampaign(cfg, k->fn);
        _exit(static_cast<int>(r.merged.iterations.size()) == iterations
                  ? 0
                  : 1);
    }
    int status = 0;
    struct rusage ru = {};
    if (::wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return -1;
    return ru.ru_maxrss;
}

} // namespace

int
main()
{
    setQuiet(true);
    int iterations = kIterations;
    if (std::getenv("GOAT_SWEEP_MAXITER"))
        iterations = std::min(iterations, bench::sweepMaxIter());
    unsigned cores = std::thread::hardware_concurrency();
    if (cores == 0)
        cores = 1; // hardware_concurrency may be unknowable

    std::printf("=== Campaign scaling: %zu-kernel Table-IV subset, "
                "%d iterations each, stop-on-bug off, median of %d "
                "interleaved runs ===\n"
                "host grants %u core(s); job counts beyond that run "
                "for the determinism check only\n\n",
                std::size(kSubset), iterations, kReps, cores);

    // The soak row first: its children fork from a parent that has not
    // yet grown its heap through the scaling runs.
    const long rss_small = soakPeakRssKb(kSoakSmall);
    const long rss_large = soakPeakRssKb(kSoakLarge);
    if (rss_small <= 0 || rss_large <= 0) {
        std::printf("soak memory row: campaign failed\n");
        return 1;
    }
    const double bytes_per_iter =
        1024.0 * static_cast<double>(rss_large - rss_small) /
        (kSoakLarge - kSoakSmall);
    std::printf("soak (cockroach_1055 -cov -predict -keep-going, "
                "jobs=2): peak RSS %.1f MB at %d, %.1f MB at %d "
                "iterations, %.0f B retained per iteration\n\n",
                rss_small / 1024.0, kSoakSmall, rss_large / 1024.0,
                kSoakLarge, bytes_per_iter);

    std::vector<std::string> base_bitmaps;
    std::vector<JobsSample> samples;
    for (int jobs : {1, 2, 4, 8}) {
        JobsSample s;
        s.jobs = jobs;
        s.timed = static_cast<unsigned>(jobs) <= cores;
        s.executed =
            iterations * static_cast<int>(std::size(kSubset));
        samples.push_back(s);
    }
    for (int rep = -1; rep < kReps; ++rep) { // rep -1: warm-up
        for (JobsSample &s : samples) {
            // A fresh thread per run, as the workers of jobs > 1 are:
            // a long-lived main thread keeps one core placement (and
            // its speed) for many runs in a row on a shared host.
            std::vector<std::string> bitmaps;
            uint64_t us = 0;
            std::thread([&] {
                us = runSubset(s.jobs, iterations, &bitmaps);
            }).join();
            if (rep >= 0)
                s.repMicros.push_back(us);
            if (base_bitmaps.empty())
                base_bitmaps = bitmaps; // jobs=1, first run
            else if (bitmaps != base_bitmaps)
                s.identical = false;
        }
    }
    for (JobsSample &s : samples) {
        std::vector<uint64_t> sorted = s.repMicros;
        std::sort(sorted.begin(), sorted.end());
        s.wallMicros = sorted[sorted.size() / 2];
    }

    uint64_t base = samples[0].wallMicros;
    std::printf("%-6s %12s %12s %10s %10s\n", "jobs", "wall_ms",
                "iters/s", "speedup", "identical");
    for (const JobsSample &s : samples) {
        if (s.timed) {
            std::printf("%-6d %12.1f %12.0f %9.2fx %10s\n", s.jobs,
                        s.wallMicros / 1e3, s.itersPerSec(),
                        s.wallMicros
                            ? static_cast<double>(base) /
                                  static_cast<double>(s.wallMicros)
                            : 0.0,
                        s.identical ? "yes" : "NO");
        } else {
            std::printf("%-6d %12.1f %12s %9s %10s  (determinism "
                        "only: oversubscribed)\n",
                        s.jobs, s.wallMicros / 1e3, "-", "-",
                        s.identical ? "yes" : "NO");
        }
        if (!s.identical) {
            std::printf("determinism violation at jobs=%d\n", s.jobs);
            return 1;
        }
    }

    std::FILE *f = std::fopen("BENCH_campaign.json", "w");
    if (f) {
        std::fprintf(f,
                     "{\"bench\":\"campaign_scaling\","
                     "\"kernels\":%zu,\"iterations\":%d,\"reps\":%d,"
                     "\"host_cores\":%u,\"samples\":[",
                     std::size(kSubset), iterations, kReps, cores);
        for (size_t i = 0; i < samples.size(); ++i) {
            const JobsSample &s = samples[i];
            std::fprintf(
                f, "%s{\"jobs\":%d,\"wall_us\":%llu,\"timed\":%s",
                i ? "," : "", s.jobs,
                static_cast<unsigned long long>(s.wallMicros),
                s.timed ? "true" : "false");
            if (s.timed) {
                std::fprintf(
                    f, ",\"iters_per_sec\":%.1f,\"speedup\":%.3f",
                    s.itersPerSec(),
                    static_cast<double>(base) /
                        static_cast<double>(s.wallMicros ? s.wallMicros
                                                         : 1));
            }
            std::fprintf(f, ",\"runs_us\":[");
            for (size_t r = 0; r < s.repMicros.size(); ++r)
                std::fprintf(f, "%s%llu", r ? "," : "",
                             static_cast<unsigned long long>(
                                 s.repMicros[r]));
            std::fprintf(f, "],\"merged_identical\":%s}",
                         s.identical ? "true" : "false");
        }
        std::fprintf(f,
                     "],\"soak_rss\":{\"kernel\":\"cockroach_1055\","
                     "\"flags\":\"-cov -predict -keep-going\","
                     "\"jobs\":2,\"samples\":["
                     "{\"iterations\":%d,\"peak_rss_kb\":%ld},"
                     "{\"iterations\":%d,\"peak_rss_kb\":%ld}],"
                     "\"bytes_per_iter\":%.1f}}\n",
                     kSoakSmall, rss_small, kSoakLarge, rss_large,
                     bytes_per_iter);
        std::fclose(f);
        std::printf("summary written to BENCH_campaign.json\n");
    }
    return 0;
}
