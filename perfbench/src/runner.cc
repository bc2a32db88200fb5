/**
 * @file
 * The benchmark runner: one workload per process.
 *
 *   perfbench_runner --workload detect|soak|durable --seed N
 *                    --seconds S --trace 0|1 --out DIR
 *                    [--setup-only] [--quick]
 *
 * With --trace 0 it runs the workload's campaigns as a closed loop, one
 * campaign at a time, for S seconds of campaign time and reports the
 * end-to-end metrics. With --trace 1 it runs one jobs=1 campaign per
 * configuration inside a span, replays a deterministic sample of that
 * campaign's iterations through the layers' public calls, each inside a
 * span, and reports the per-layer metrics. Both modes check the outputs
 * (the correctness gate). --setup-only stops right before the first
 * campaign call, so a caller can time process start plus set-up.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and metrics (name -> {value, unit}).
 */

#include <malloc.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/coverage.hh"
#include "analysis/deadlock.hh"
#include "analysis/goroutine_tree.hh"
#include "analysis/happens_before.hh"
#include "analysis/hb_predict.hh"
#include "campaign/campaign.hh"
#include "campaign/checkpoint.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "obs/ledger.hh"
#include "rss.hh"
#include "spans.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using goat::campaign::CampaignConfig;
using goat::campaign::CampaignResult;
using goat::goker::KernelInfo;
using perfbench::nowNs;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

enum class Workload
{
    Detect,
    Soak,
    Durable,
};

struct Options
{
    std::string workload;
    Workload wl = Workload::Detect;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    bool quick = false;
    std::string outDir = ".";
};

/** splitmix64 step: the workload's seeds are all derived through it. */
uint64_t
mix(uint64_t a, uint64_t b)
{
    uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
msOf(uint64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

/** The workload's kernels and their static models (the set-up). */
struct Setup
{
    Workload wl = Workload::Detect;
    std::vector<const KernelInfo *> kernels;
    std::vector<goat::staticmodel::CuTable> cuTables;
};

Setup
buildSetup(Workload wl, SpanRecorder *rec)
{
    Setup s;
    s.wl = wl;
    auto &reg = goat::goker::KernelRegistry::instance();
    if (wl == Workload::Detect) {
        s.kernels = reg.all();
    } else {
        const KernelInfo *k =
            reg.find(wl == Workload::Soak ? "cockroach_1055" : "etcd_7443");
        if (k)
            s.kernels.push_back(k);
    }
    for (const KernelInfo *k : s.kernels) {
        ScopedSpan span(rec, "staticmodel.kernelCuTable");
        s.cuTables.push_back(goat::goker::kernelCuTable(*k));
    }
    return s;
}

/** Per-run scratch files (recipes, ledgers, checkpoints). */
struct Paths
{
    std::string recipe, ledger, checkpoint, rewrite;
};

/**
 * The workload's campaign configuration for kernel @p k. The campaign
 * lengths shrink with --quick, which the benchmark's own tests use.
 */
CampaignConfig
makeConfig(const Setup &s, size_t k, uint64_t seedBase, int jobs,
           bool quick, const Paths &paths)
{
    CampaignConfig c;
    goat::engine::GoatConfig &e = c.engine;
    e.seedBase = seedBase;
    e.staticModel = s.cuTables[k];
    e.covThreshold = 200.0; // as the CLI: coverage never stops a run
    c.programName = s.kernels[k]->name;
    c.jobs = jobs;
    switch (s.wl) {
      case Workload::Detect:
        // -d=2 -predict -race -record -minimize, stop on first bug.
        e.delayBound = 2;
        e.predict = true;
        e.raceDetect = true;
        e.stopOnBug = true;
        e.maxIterations = 10000;
        c.recordPath = paths.recipe;
        c.minimize = true;
        break;
      case Workload::Soak:
        // -cov -predict -keep-going.
        e.collectCoverage = true;
        e.predict = true;
        e.stopOnBug = false;
        e.maxIterations = quick ? 2000 : 100000;
        break;
      case Workload::Durable:
        // -isolate -cov -keep-going -ledger -checkpoint-every=1000.
        e.collectCoverage = true;
        e.stopOnBug = false;
        e.maxIterations = quick ? 2000 : 20000;
        e.ledgerPath = paths.ledger;
        c.isolate = true;
        c.checkpointPath = paths.checkpoint;
        c.checkpointEvery = 1000;
        break;
    }
    return c;
}

/** Seed base of detect campaign (@p round, kernel @p k). */
uint64_t
detectSeed(uint64_t seed, int round, size_t k)
{
    // One seed per (round, kernel): the latency tail is set by the
    // slowest (kernel, seed) pairs, so each round samples them anew.
    return mix(mix(seed, static_cast<uint64_t>(round)), k);
}

/** Seed base of the soak/durable campaign of a run. */
uint64_t
longSeed(uint64_t seed, Workload wl)
{
    return mix(seed, wl == Workload::Soak ? 101 : 202);
}

/** Remove the files a campaign appends to or resumes from. */
void
clearFiles(const Paths &p)
{
    for (const std::string *f : {&p.ledger, &p.checkpoint, &p.recipe})
        std::remove(f->c_str());
    std::remove((p.recipe + ".min").c_str());
}

// ---------------------------------------------------------------------
// Correctness gate

/** Outcome of gating one campaign. */
struct Gate
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string why; ///< First failure, for the log ("" = none).

    void
    fail(uint64_t n, const std::string &reason)
    {
        failed += n;
        if (why.empty())
            why = reason;
    }
};

bool
isLossVerdict(goat::analysis::Verdict v)
{
    return v == goat::analysis::Verdict::Crash ||
           v == goat::analysis::Verdict::Timeout;
}

/** detect: the campaign found its kernel's bug and minimized it. */
void
gateDetect(const CampaignResult &r, const std::string &kernel, Gate &g)
{
    g.attempted += 1;
    const goat::engine::GoatResult &m = r.merged;
    bool bug = m.bugFound &&
               (m.firstBug.buggy() ||
                m.firstBugExec.outcome == goat::runtime::RunOutcome::StepBudget);
    if (!bug)
        g.fail(1, kernel + ": no blocking bug found");
    else if (!r.minimize.reproduced || r.minimizedRecipePath.empty() ||
             !r.recordOk)
        g.fail(1, kernel + ": no minimized recipe");
}

/** What the soak gate needs of one campaign (results are large). */
struct SoakSummary
{
    std::string bitmap;
    int iterations = 0;
    uint64_t losses = 0;
};

SoakSummary
summarizeSoak(const CampaignResult &r)
{
    SoakSummary s;
    s.bitmap = r.coverage.bitmapStr();
    s.iterations = static_cast<int>(r.merged.iterations.size());
    for (const goat::engine::IterationOutcome &io : r.merged.iterations)
        if (isLossVerdict(io.dl.verdict))
            ++s.losses;
    return s;
}

/** soak: no lost iterations, and the merged bitmap is the reference. */
void
gateSoak(const SoakSummary &s, int iterations,
         const std::string &referenceBitmap, Gate &g)
{
    g.attempted += static_cast<uint64_t>(iterations);
    if (s.iterations != iterations)
        g.fail(static_cast<uint64_t>(iterations), "soak: iterations missing");
    else if (s.bitmap != referenceBitmap)
        g.fail(static_cast<uint64_t>(iterations),
               "soak: merged coverage differs from the in-order fold");
    else if (s.losses > 0)
        g.fail(s.losses, "soak: crash or timeout iterations");
}

/**
 * durable: one ledger row per iteration, none a crash or timeout, and
 * the final checkpoint parses and covers the whole campaign.
 */
void
gateDurable(const CampaignResult &r, int iterations, const Paths &p, Gate &g)
{
    g.attempted += static_cast<uint64_t>(iterations);
    std::ifstream in(p.ledger);
    std::string line;
    int rows = 0;
    uint64_t losses = 0;
    while (std::getline(in, line)) {
        ++rows;
        if (line.find("\"verdict\":\"crash\"") != std::string::npos ||
            line.find("\"verdict\":\"timeout\"") != std::string::npos)
            ++losses;
    }
    goat::campaign::CheckpointData ck;
    std::string err;
    bool ckOk = goat::campaign::readCheckpointFile(p.checkpoint, &ck, &err);
    if (rows != iterations || !r.ledgerOk)
        g.fail(static_cast<uint64_t>(iterations),
               "durable: " + std::to_string(rows) + " ledger rows for " +
                   std::to_string(iterations) + " iterations");
    else if (!ckOk || ck.cursor != iterations || !r.checkpointOk)
        g.fail(static_cast<uint64_t>(iterations),
               "durable: final checkpoint unreadable or short: " + err);
    else if (losses + static_cast<uint64_t>(r.crashes + r.timeouts) > 0)
        g.fail(losses + static_cast<uint64_t>(r.crashes + r.timeouts),
               "durable: crash or timeout rows");
}

/**
 * The soak gate's reference: every iteration folded on its own into a
 * copy of the static template, then merged in iteration order.
 */
std::string
referenceBitmap(const CampaignConfig &cfg, const KernelInfo &k)
{
    const goat::analysis::CoverageState tmpl(cfg.engine.staticModel);
    goat::analysis::CoverageState merged(cfg.engine.staticModel);
    for (int i = 1; i <= cfg.engine.maxIterations; ++i) {
        goat::engine::SingleRun sr =
            goat::engine::runCampaignIteration(cfg.engine, k.fn, i, nullptr);
        goat::analysis::CoverageState c(tmpl);
        c.addEct(sr.ect, *sr.tree);
        merged.mergeFrom(c);
    }
    return merged.bitmapStr();
}

// ---------------------------------------------------------------------
// Output

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, const Gate &g, const std::vector<Metric> &ms)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(g.attempted);
    out += ", \"failed\": " + std::to_string(g.failed);
    out += ", \"metrics\": {";
    char buf[512];
    for (size_t i = 0; i < ms.size(); ++i) {
        double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", ms[i].name.c_str(), v,
                      ms[i].unit.c_str());
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/** failed_frac: failed operations as a share of those attempted. */
void
printGate(const Gate &g)
{
    std::printf("# failed_frac=%.6g (%llu of %llu)%s%s\n",
                g.attempted ? static_cast<double>(g.failed) /
                                  static_cast<double>(g.attempted)
                            : 1.0,
                static_cast<unsigned long long>(g.failed),
                static_cast<unsigned long long>(g.attempted),
                g.why.empty() ? "" : " first failure: ", g.why.c_str());
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::printf("# %s\n", title);
    for (const Metric &m : ms)
        std::printf("#   %-36s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

// ---------------------------------------------------------------------
// End-to-end run (--trace 0)

/** Seeds per kernel in a detect pass: 68 x 32 = 2176 campaigns. */
constexpr int kDetectSeeds = 32;

/** The passes whose peak RSS peak_rss_mb takes the median of. */
constexpr size_t kRssPasses = 3;

/** The cores this process may run on. */
std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Pin the calling thread to the one core @p cpu. */
void
pinCore(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    ::sched_setaffinity(0, sizeof set, &set);
}

/**
 * The end-to-end run (--trace 0). Each workload has a fixed set of
 * campaigns: detect every kernel with kDetectSeeds seeds, soak and
 * durable their one campaign. The loop makes passes over the set until
 * the campaign time reaches --seconds.
 *
 * A campaign is deterministic, so every pass repeats the same work (the
 * gate checks that each campaign's iteration count repeats), and each
 * campaign's latency is its fastest pass: a co-tenant of a shared host
 * can only slow a pass down. The rates are those of the fastest passes.
 * Contention differs between cores and lasts for seconds, so each
 * detect pass runs pinned to the next of the cores this process may
 * use. Soak and durable are left to the scheduler: pinned to two cores
 * they spread more from run to run, not less. peak_rss_mb is the
 * median of the peaks of the first kRssPasses passes, a fixed amount of
 * work, because detect's RSS grows with the campaigns run.
 */
int
runEndToEnd(const Options &o, const Paths &paths)
{
    const Setup s = buildSetup(o.wl, nullptr);
    if (s.kernels.empty()) {
        std::fprintf(stderr, "perfbench: workload kernel not registered\n");
        return 2;
    }
    const bool detect = s.wl == Workload::Detect;
    std::vector<CampaignConfig> cfgs;
    std::vector<size_t> kernelOf;
    if (detect) {
        for (int round = 0; round < (o.quick ? 1 : kDetectSeeds); ++round)
            for (size_t k = 0; k < s.kernels.size(); ++k) {
                cfgs.push_back(makeConfig(s, k, detectSeed(o.seed, round, k),
                                          1, o.quick, paths));
                kernelOf.push_back(k);
            }
    } else {
        cfgs.push_back(makeConfig(s, 0, longSeed(o.seed, s.wl), 2, o.quick,
                                  paths));
        kernelOf.push_back(0);
    }
    const size_t n = cfgs.size();
    const std::vector<int> cpus = detect ? allowedCpus() : std::vector<int>{};

    Gate gate;
    std::vector<SoakSummary> soaks;
    std::vector<uint64_t> bestNs(n, UINT64_MAX);
    std::vector<size_t> iters(n, 0);
    std::vector<double> peakMb;
    std::vector<double> firstMs; // every pass of the first campaign
    uint64_t campaignNs = 0;
    uint64_t mismatches = 0;
    int passes = 0;
    auto rss = std::make_unique<perfbench::RssSampler>();
    do {
        if (!cpus.empty())
            pinCore(cpus[static_cast<size_t>(passes) % cpus.size()]);
        // Start every pass from a trimmed heap, as a fresh process would:
        // otherwise the heap an earlier pass kept sets the RSS.
        ::malloc_trim(0);
        if (rss)
            rss->resetWindow();
        for (size_t i = 0; i < n; ++i) {
            const KernelInfo &kern = *s.kernels[kernelOf[i]];
            clearFiles(paths);
            uint64_t t0 = nowNs();
            CampaignResult r = goat::campaign::runCampaign(cfgs[i], kern.fn);
            uint64_t dt = nowNs() - t0;
            campaignNs += dt;
            bestNs[i] = std::min(bestNs[i], dt);
            if (i == 0)
                firstMs.push_back(msOf(dt));
            size_t it = r.merged.iterations.size();
            if (passes > 0 && it != iters[i])
                ++mismatches;
            iters[i] = it;
            if (detect)
                gateDetect(r, kern.name, gate);
            else if (s.wl == Workload::Soak)
                // The soak reference is computed once, after the loop.
                soaks.push_back(summarizeSoak(r));
            else
                gateDurable(r, cfgs[i].engine.maxIterations, paths, gate);
        }
        if (rss) {
            peakMb.push_back(static_cast<double>(rss->windowPeak()) / 1e6);
            if (peakMb.size() == kRssPasses)
                rss.reset(); // not needed any more
        }
        ++passes;
    } while (static_cast<double>(campaignNs) / 1e9 < o.seconds);

    if (s.wl == Workload::Soak) {
        std::string ref = referenceBitmap(cfgs[0], *s.kernels[0]);
        for (const SoakSummary &sum : soaks)
            gateSoak(sum, cfgs[0].engine.maxIterations, ref, gate);
    }
    // A campaign that repeats differently breaks the premise above.
    if (mismatches > 0)
        gate.fail(mismatches, "a campaign's iteration count changed "
                              "between passes");
    clearFiles(paths);

    // iters_per_s is the median campaign's rate: a sum over campaigns
    // would follow the few seeds that give a kernel a long campaign.
    uint64_t sumBest = 0;
    size_t sumIters = 0;
    std::vector<double> lat, iterRate;
    for (size_t i = 0; i < n; ++i) {
        sumBest += bestNs[i];
        sumIters += iters[i];
        lat.push_back(msOf(bestNs[i]));
        iterRate.push_back(static_cast<double>(iters[i]) /
                           (static_cast<double>(bestNs[i]) / 1e9));
    }
    const double bestS = static_cast<double>(sumBest) / 1e9;
    std::printf("# campaigns=%zu passes=%d iterations/pass=%zu "
                "campaign_s=%.3f fastest-pass_s=%.3f campaign_ms "
                "samples=%zu (p50, p90) p99=%.6g\n",
                n, passes, sumIters, static_cast<double>(campaignNs) / 1e9,
                bestS, lat.size(), perfbench::percentile(lat, 0.99));
    std::printf("# first campaign, ms per pass:");
    for (double v : firstMs)
        std::printf(" %.1f", v);
    std::printf("\n");
    std::vector<Metric> ms = {
        {"iters_per_s", perfbench::percentile(iterRate, 0.5), "1/s"},
        {"campaigns_per_s", static_cast<double>(n) / bestS, "1/s"},
        {"campaign_ms_p50", perfbench::percentile(lat, 0.50), "ms"},
        {"campaign_ms_p90", perfbench::percentile(lat, 0.90), "ms"},
        {"peak_rss_mb", perfbench::percentile(peakMb, 0.5), "MB"},
    };
    printGate(gate);
    printTable("end-to-end", ms);
    bool correct = gate.failed == 0 && gate.attempted > 0;
    printResult(correct, gate, ms);
    return correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// Traced run (--trace 1)

/** Progress on stderr, so a slow or failing phase can be located. */
void
note(const char *phase, const std::string &kernel)
{
    std::fprintf(stderr, "perfbench: %s %s\n", phase, kernel.c_str());
}

/** Which layer calls the workload's own campaign makes (its path). */
struct OnPath
{
    bool predict, race, coverage, cumulative;
};

OnPath
onPath(Workload wl)
{
    switch (wl) {
      case Workload::Detect: return {true, true, false, false};
      case Workload::Soak: return {true, false, true, true};
      case Workload::Durable: return {false, false, true, false};
    }
    return {};
}

/** Per-iteration samples the traced replay collects. */
struct LayerSamples
{
    std::vector<double> iterNs, treeNs, foldNs, mergeNs, predictNs, raceNs;
    std::vector<double> nsPerEvent, events, hooks, yields, predictions;
    std::vector<double> minimizeNs, minimizeReplays, confirmNs, confirmReplays;
    std::vector<double> cutableNs;
    double reqsTotal = 0, reqsCovered = 0;
    /** Campaign wall and the part the replayed on-path calls explain. */
    double campaignWallNs = 0, explainedNs = 0;
    size_t campaigns = 0;
    /** rss_bytes_per_iter inputs. */
    double rssGrowth = 0, rssIters = 0;
    /** Traced vs untraced runCampaign walls (tracing overhead). */
    double tracedWallNs = 0, untracedWallNs = 0;
    /** Durability probe. */
    std::vector<double> ckBytes, ckWriteMs, ckShare, supShare, rowNs, rowBytes;
};

/** Distinct predictions by source iteration, with that iteration's recipe. */
using ConfirmGroups =
    std::map<int, std::pair<goat::trace::Recipe,
                            goat::analysis::PredictionReport>>;

/** Time one call, adding a span when @p rec is set. */
template <typename F>
uint64_t
timed(SpanRecorder *rec, const char *name, F &&f)
{
    ScopedSpan span(rec, name);
    uint64_t t0 = nowNs();
    f();
    return nowNs() - t0;
}

/**
 * Replay campaign iterations through the layers' public calls. Every
 * iteration in @p iters is re-executed; those @p sampled selects are
 * timed inside spans and feed @p out. The per-iteration coverage states
 * are merged in iteration order into @p merged (the soak reference).
 * Returns the on-path time of the sampled iterations, scaled to all of
 * the campaign's @p total iterations.
 */
double
replayIterations(const CampaignConfig &cfg, const KernelInfo &k, Workload wl,
                 int total, const std::vector<int> &iters,
                 const std::function<bool(int)> &sampled, SpanRecorder *rec,
                 LayerSamples &out, goat::analysis::CoverageState &merged,
                 std::map<std::string, int> &predKeys,
                 ConfirmGroups &confirmGroups)
{
    using namespace goat;
    const OnPath path = onPath(wl);
    const analysis::CoverageState tmpl(cfg.engine.staticModel);
    analysis::CoverageState cumulative(cfg.engine.staticModel);
    bool raceFound = false;
    double onPathNs = 0;
    size_t nSampled = 0;
    ScopedSpan replaySpan(rec, "bench.replay");

    for (int i : iters) {
        const bool tr = sampled(i);
        SpanRecorder *r = tr ? rec : nullptr;
        engine::SingleRun sr;
        uint64_t iterNs = timed(r, "engine.runCampaignIteration", [&] {
            sr = engine::runCampaignIteration(cfg.engine, k.fn, i, nullptr);
        });
        analysis::PredictionReport preds;
        uint64_t predictNs = 0;
        if (path.predict || tr)
            predictNs = timed(r, "analysis.predictBlockingBugs", [&] {
                preds = analysis::predictBlockingBugs(sr.ect);
            });
        if (path.predict) {
            // The campaign confirms each distinct prediction once, from
            // the first iteration that made it.
            for (analysis::Prediction &p : preds.predictions) {
                if (!predKeys.emplace(p.key(), i).second)
                    continue;
                p.iteration = i;
                auto &grp = confirmGroups[i];
                grp.first = sr.recipe;
                grp.first.kernel = k.name;
                grp.second.predictions.push_back(p);
            }
        }
        uint64_t foldNs = 0, cumNs = 0, mergeNs = 0;
        if (path.coverage || tr) {
            std::unique_ptr<analysis::CoverageState> c;
            foldNs = timed(r, "analysis.coverage_fold", [&] {
                c = std::make_unique<analysis::CoverageState>(tmpl);
                c->addEct(sr.ect, *sr.tree);
            });
            if (path.cumulative)
                cumNs = timed(r, "analysis.coverage_fold_cumulative",
                              [&] { cumulative.addEct(sr.ect, *sr.tree); });
            mergeNs = timed(r, "analysis.coverage_merge",
                            [&] { merged.mergeFrom(*c); });
        }
        if (!tr)
            continue;

        ++nSampled;
        uint64_t treeNs = timed(rec, "analysis.tree_deadlock", [&] {
            analysis::GoroutineTree tree(sr.ect);
            analysis::DeadlockReport dl = analysis::deadlockCheck(tree);
            (void)dl;
        });
        const bool raceBefore = raceFound;
        uint64_t raceNs = timed(rec, "analysis.detectRaces", [&] {
            raceFound |= analysis::detectRaces(sr.ect).any();
        });
        double ev = static_cast<double>(sr.ect.size());
        out.iterNs.push_back(static_cast<double>(iterNs));
        out.treeNs.push_back(static_cast<double>(treeNs));
        out.predictNs.push_back(static_cast<double>(predictNs));
        out.raceNs.push_back(static_cast<double>(raceNs));
        out.foldNs.push_back(static_cast<double>(foldNs));
        out.mergeNs.push_back(static_cast<double>(mergeNs));
        out.events.push_back(ev);
        out.hooks.push_back(static_cast<double>(sr.recipe.hookCalls));
        out.yields.push_back(static_cast<double>(sr.recipe.yields.size()));
        out.predictions.push_back(static_cast<double>(preds.predictions.size()));
        if (ev > 0)
            out.nsPerEvent.push_back(
                (static_cast<double>(iterNs) - static_cast<double>(treeNs)) /
                ev);

        double on = static_cast<double>(iterNs);
        if (path.predict)
            on += static_cast<double>(predictNs);
        // The campaign stops running the race pass once it found one.
        if (path.race && !raceBefore)
            on += static_cast<double>(raceNs);
        if (path.coverage)
            on += static_cast<double>(foldNs + cumNs + mergeNs);
        onPathNs += on;
    }
    return nSampled ? onPathNs * static_cast<double>(total) /
                          static_cast<double>(nSampled)
                    : 0.0;
}

/** Probe the durability layers (ledger, checkpoint, supervisor). */
void
probeDurability(const CampaignConfig &base, const KernelInfo &k,
                const Paths &paths, SpanRecorder *rec, LayerSamples &out,
                Gate &gate)
{
    using namespace goat;
    // D: the configuration with ledger, checkpoint and isolation on.
    // Isolated shards cannot carry -predict or -race, so D drops them.
    CampaignConfig d = base;
    d.jobs = 1;
    d.engine.predict = false;
    d.engine.raceDetect = false;
    d.engine.ledgerPath = paths.ledger;
    d.checkpointPath = paths.checkpoint;
    d.checkpointEvery = 1000;
    d.isolate = true;
    CampaignConfig noCk = d;
    noCk.checkpointPath.clear();
    CampaignConfig noIso = d;
    noIso.isolate = false;

    ScopedSpan probe(rec, "bench.probe");
    CampaignResult last;
    auto wall = [&](const CampaignConfig &c) {
        clearFiles(paths);
        return static_cast<double>(timed(rec, "campaign.runCampaign", [&] {
            last = campaign::runCampaign(c, k.fn);
        }));
    };
    double wNoCk = wall(noCk);
    double wNoIso = wall(noIso);
    double wD = wall(d); // last, so its checkpoint stays on disk

    campaign::CheckpointData ck;
    std::string err;
    bool readOk = false;
    timed(rec, "checkpoint.readCheckpointFile", [&] {
        readOk = campaign::readCheckpointFile(paths.checkpoint, &ck, &err);
    });
    gate.attempted += 1;
    if (!readOk || ck.cursor != last.cutoffIteration)
        gate.fail(1, k.name + ": probe checkpoint unreadable or short: " + err);
    struct stat st{};
    if (::stat(paths.checkpoint.c_str(), &st) == 0)
        out.ckBytes.push_back(static_cast<double>(st.st_size));
    timed(rec, "checkpoint.checkpointToString",
          [&] { (void)campaign::checkpointToString(ck); });
    uint64_t writeNs = timed(rec, "checkpoint.writeCheckpointFile", [&] {
        campaign::writeCheckpointFile(paths.rewrite, ck);
    });
    out.ckWriteMs.push_back(msOf(writeNs));
    std::remove(paths.rewrite.c_str());

    size_t bytes = 0;
    uint64_t rowsNs = timed(rec, "obs.ledgerEntryJson", [&] {
        for (const obs::LedgerEntry &e : ck.rows)
            bytes += obs::ledgerEntryJson(e).size() + 1;
    });
    if (!ck.rows.empty()) {
        double n = static_cast<double>(ck.rows.size());
        out.rowNs.push_back(static_cast<double>(rowsNs) / n);
        out.rowBytes.push_back(static_cast<double>(bytes) / n);
    }
    out.ckShare.push_back(wD > 0 ? 1.0 - wNoCk / wD : 0.0);
    out.supShare.push_back(wD > 0 ? 1.0 - wNoIso / wD : 0.0);
    clearFiles(paths);
}

int
runTraced(const Options &o, const Paths &paths)
{
    using namespace goat;
    const Workload wl = o.wl;
    SpanRecorder recorder;
    SpanRecorder *rec = &recorder;
    perfbench::RssSampler rss;
    LayerSamples ls;
    Gate gate;
    std::vector<SoakSummary> soaks;
    std::string soakReference;

    Setup s;
    {
        ScopedSpan span(rec, "bench.setup");
        s = buildSetup(wl, rec);
        // One kernel gives one sample; rebuild its table for a median.
        for (int rep = 0; s.kernels.size() == 1 && rep < 19; ++rep) {
            ScopedSpan cu(rec, "staticmodel.kernelCuTable");
            (void)goker::kernelCuTable(*s.kernels[0]);
        }
    }
    if (s.kernels.empty()) {
        std::fprintf(stderr, "perfbench: workload kernel not registered\n");
        return 2;
    }

    for (size_t k = 0; k < s.kernels.size(); ++k) {
        const KernelInfo &kern = *s.kernels[k];
        uint64_t seedBase = wl == Workload::Detect ? detectSeed(o.seed, 0, k)
                                                   : longSeed(o.seed, wl);
        CampaignConfig cfg = makeConfig(s, k, seedBase, 1, o.quick, paths);
        const int n = cfg.engine.maxIterations;

        // Untraced jobs=1 runs on both sides of the traced one; the
        // first also measures RSS growth per iteration.
        auto untraced = [&](bool measureRss) {
            clearFiles(paths);
            if (measureRss)
                ::malloc_trim(0);
            uint64_t base = measureRss ? rss.resetWindow() : 0;
            uint64_t t0 = nowNs();
            CampaignResult r = campaign::runCampaign(cfg, kern.fn);
            ls.untracedWallNs += static_cast<double>(nowNs() - t0) / 2.0;
            if (measureRss) {
                uint64_t peak = rss.windowPeak();
                ls.rssGrowth += static_cast<double>(peak > base ? peak - base : 0);
                ls.rssIters += static_cast<double>(r.merged.iterations.size());
            }
            return r;
        };
        auto gateOne = [&](const CampaignResult &r) {
            if (wl == Workload::Detect)
                gateDetect(r, kern.name, gate);
            else if (wl == Workload::Soak)
                soaks.push_back(summarizeSoak(r));
            else
                gateDurable(r, n, paths, gate);
        };
        note("untraced campaign", kern.name);
        gateOne(untraced(true));

        note("traced campaign", kern.name);
        clearFiles(paths);
        CampaignResult traced;
        uint64_t wallNs = timed(rec, "campaign.runCampaign", [&] {
            traced = campaign::runCampaign(cfg, kern.fn);
        });
        gateOne(traced);
        ls.tracedWallNs += static_cast<double>(wallNs);
        gateOne(untraced(false));

        // Replay: detect replays every iteration of its short
        // campaigns; soak re-executes every iteration (its gate needs
        // the full in-order fold) and times every tenth; durable
        // replays every tenth.
        int cutoff = static_cast<int>(traced.merged.iterations.size());
        std::vector<int> iters;
        for (int i = 1; i <= cutoff; ++i)
            if (wl != Workload::Durable || i % 10 == 1)
                iters.push_back(i);
        auto sampled = [wl](int i) {
            return wl == Workload::Detect || i % 10 == 1;
        };
        note("replay", kern.name);
        analysis::CoverageState merged(cfg.engine.staticModel);
        std::map<std::string, int> predKeys;
        ConfirmGroups groups;
        double explained =
            replayIterations(cfg, kern, wl, cutoff, iters, sampled, rec, ls,
                             merged, predKeys, groups);
        if (wl == Workload::Soak)
            soakReference = merged.bitmapStr();
        // -cov is off in detect: its requirement counts come from the
        // replay's fold of the campaign's iterations.
        const analysis::CoverageState &cov =
            wl == Workload::Detect ? merged : traced.coverage;
        ls.reqsTotal += static_cast<double>(cov.totalRequirements());
        ls.reqsCovered += static_cast<double>(cov.coveredCount());

        note("epilogue", kern.name);
        // Campaign epilogue: minimize the first bug's recipe and
        // confirm the distinct predictions.
        const engine::GoatResult &m = traced.merged;
        if (m.bugFound && !m.firstBugRecipe.seededPolicy) {
            engine::MinimizeResult mr;
            uint64_t ns = timed(rec, "engine.minimizeRecipe", [&] {
                mr = engine::minimizeRecipe(kern.fn, m.firstBugRecipe);
            });
            ls.minimizeNs.push_back(static_cast<double>(ns));
            ls.minimizeReplays.push_back(static_cast<double>(mr.replays));
            if (cfg.minimize)
                explained += static_cast<double>(ns);
        }
        double confirmNs = 0, confirmReplays = 0;
        for (auto &[iter, grp] : groups) {
            engine::PredictOutcome po;
            confirmNs += static_cast<double>(
                timed(rec, "engine.confirmPredictions", [&] {
                    po = engine::confirmPredictions(kern.fn, grp.first,
                                                    grp.second);
                }));
            confirmReplays += po.replays;
        }
        if (groups.empty() && m.bugFound && !m.firstBugRecipe.seededPolicy) {
            // No prediction to confirm: time the pass's fixed cost
            // (its index run) on the first bug's schedule instead.
            engine::PredictOutcome po;
            confirmNs += static_cast<double>(
                timed(rec, "engine.confirmPredictions", [&] {
                    po = engine::confirmPredictions(
                        kern.fn, m.firstBugRecipe, analysis::PredictionReport());
                }));
            confirmReplays += po.replays;
        } else if (cfg.engine.predict) {
            explained += confirmNs;
        }
        ls.confirmNs.push_back(confirmNs);
        ls.confirmReplays.push_back(confirmReplays);

        ls.campaignWallNs += static_cast<double>(wallNs);
        ls.explainedNs += explained;
        ls.campaigns += 1;

        // Durability layers: detect probes a fifth of its kernels.
        if (wl != Workload::Detect || k % 5 == 0) {
            CampaignConfig probe = cfg;
            if (wl == Workload::Soak)
                probe.engine.maxIterations = o.quick ? 1000 : 5000;
            note("durability probe", kern.name);
            probeDurability(probe, kern, paths, rec, ls, gate);
        }
    }

    // The traced wall is the time inside top-level spans.
    const std::vector<perfbench::Span> &spans = recorder.spans();
    std::vector<uint64_t> self = perfbench::selfTimes(spans);
    uint64_t tracedWall = 0, layerSelf = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent < 0)
            tracedWall += spans[i].endNs - spans[i].startNs;
        if (std::strncmp(spans[i].name, "bench.", 6) != 0)
            layerSelf += self[i];
    }
    for (const perfbench::Span &sp : spans)
        if (std::strcmp(sp.name, "staticmodel.kernelCuTable") == 0)
            ls.cutableNs.push_back(static_cast<double>(sp.endNs - sp.startNs));

    if (wl == Workload::Soak) {
        // Gate: the jobs=2 campaign's merged bitmap (and the jobs=1
        // ones above) equal the replay's in-order fold.
        uint64_t seedBase = longSeed(o.seed, wl);
        CampaignConfig cfg2 = makeConfig(s, 0, seedBase, 2, o.quick, paths);
        soaks.push_back(
            summarizeSoak(campaign::runCampaign(cfg2, s.kernels[0]->fn)));
        for (const SoakSummary &sum : soaks)
            gateSoak(sum, cfg2.engine.maxIterations, soakReference, gate);
    }
    clearFiles(paths);

    auto p50 = [](const std::vector<double> &v) {
        return perfbench::percentile(v, 0.5);
    };
    double residue = ls.campaignWallNs - ls.explainedNs;
    std::vector<Metric> ms = {
        {"engine.iter_ns_p50", p50(ls.iterNs), "ns"},
        {"engine.iter_ns_p99", perfbench::percentile(ls.iterNs, 0.99), "ns"},
        {"trace.events_per_iter", mean(ls.events), "count"},
        {"perturb.hook_calls_per_iter", mean(ls.hooks), "count"},
        {"perturb.yields_per_iter", mean(ls.yields), "count"},
        {"runtime.ns_per_event", p50(ls.nsPerEvent), "ns"},
        {"analysis.tree_deadlock_ns", p50(ls.treeNs), "ns"},
        {"analysis.coverage_fold_ns", p50(ls.foldNs), "ns"},
        {"analysis.coverage_merge_ns", p50(ls.mergeNs), "ns"},
        {"analysis.reqs_total", ls.reqsTotal, "count"},
        {"analysis.reqs_covered", ls.reqsCovered, "count"},
        {"analysis.predict_ns", p50(ls.predictNs), "ns"},
        {"analysis.predictions_per_iter", mean(ls.predictions), "count"},
        {"analysis.race_ns", p50(ls.raceNs), "ns"},
        {"engine.minimize_ns", p50(ls.minimizeNs), "ns"},
        {"engine.minimize_replays", mean(ls.minimizeReplays), "count"},
        {"engine.confirm_ns", p50(ls.confirmNs), "ns"},
        {"engine.confirm_replays", mean(ls.confirmReplays), "count"},
        {"staticmodel.cutable_ns", p50(ls.cutableNs), "ns"},
        {"campaign.overhead_ns_per_campaign",
         ls.campaigns ? residue / static_cast<double>(ls.campaigns) : 0.0,
         "ns"},
        {"campaign.driver_frac",
         ls.campaignWallNs > 0 ? residue / ls.campaignWallNs : 0.0, "frac"},
        {"campaign.rss_bytes_per_iter",
         ls.rssIters > 0 ? ls.rssGrowth / ls.rssIters : 0.0, "B"},
        {"checkpoint.bytes", mean(ls.ckBytes), "B"},
        {"checkpoint.write_ms", p50(ls.ckWriteMs), "ms"},
        {"checkpoint.share", mean(ls.ckShare), "frac"},
        {"supervisor.share", mean(ls.supShare), "frac"},
        {"ledger.row_ns", mean(ls.rowNs), "ns"},
        {"ledger.bytes_per_row", mean(ls.rowBytes), "B"},
        {"trace.overhead_frac",
         ls.untracedWallNs > 0 ? ls.tracedWallNs / ls.untracedWallNs - 1.0
                               : 0.0,
         "frac"},
        {"trace.span_share",
         tracedWall ? static_cast<double>(layerSelf) /
                          static_cast<double>(tracedWall)
                    : 0.0,
         "frac"},
    };

    // Spans and the layer table go to files when the run ends.
    std::string stem = o.outDir + "/trace-" + o.workload + "-seed" +
                       std::to_string(o.seed);
    std::string table = perfbench::layerTableStr(
        perfbench::layerTable(spans), tracedWall);
    {
        std::ofstream f(stem + ".spans.jsonl");
        f << perfbench::spansJsonl(spans);
        std::ofstream t(stem + ".layers.txt");
        t << table;
    }
    std::printf("# traced wall %.3f ms in %zu spans; layer spans cover "
                "%.1f%% (self time)\n",
                msOf(tracedWall), spans.size(),
                tracedWall ? 100.0 * static_cast<double>(layerSelf) /
                                 static_cast<double>(tracedWall)
                           : 0.0);
    std::printf("# spans: %s.spans.jsonl  table: %s.layers.txt\n",
                stem.c_str(), stem.c_str());
    std::istringstream tl(table);
    for (std::string line; std::getline(tl, line);)
        std::printf("#   %s\n", line.c_str());
    printGate(gate);
    printTable("per-layer", ms);
    bool correct = gate.failed == 0 && gate.attempted > 0 &&
                   perfbench::spansNest(spans);
    printResult(correct, gate, ms);
    return correct ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload detect|soak|durable "
                 "--seed N --seconds S --trace 0|1 --out DIR "
                 "[--setup-only] [--quick]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (a == "--workload" && (v = next()))
            o.workload = v;
        else if (a == "--seed" && (v = next()))
            o.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds" && (v = next()))
            o.seconds = std::atof(v);
        else if (a == "--trace" && (v = next()))
            o.trace = std::strcmp(v, "0") != 0;
        else if (a == "--out" && (v = next()))
            o.outDir = v;
        else if (a == "--setup-only")
            o.setupOnly = true;
        else if (a == "--quick")
            o.quick = true;
        else
            return usage();
    }
    if (o.workload == "detect")
        o.wl = Workload::Detect;
    else if (o.workload == "soak")
        o.wl = Workload::Soak;
    else if (o.workload == "durable")
        o.wl = Workload::Durable;
    else
        return usage();

#ifndef __OPTIMIZE__
    std::fprintf(stderr, "perfbench: refusing to report timings from an "
                         "unoptimized (%s) build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
        std::fprintf(stderr,
                     "perfbench: refusing to report timings from a Debug build\n");
        return 3;
    }

    Paths paths;
    std::string stem = o.outDir + "/" + o.workload;
    paths.recipe = stem + ".recipe";
    paths.ledger = stem + ".ledger.jsonl";
    paths.checkpoint = stem + ".ckpt";
    paths.rewrite = stem + ".ckpt.rewrite";

    if (o.setupOnly) {
        Setup s = buildSetup(o.wl, nullptr);
        return s.kernels.empty() ? 2 : 0;
    }
#ifdef __clang__
    const char *compiler = "clang " __clang_version__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    std::printf("{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"seconds\": %g, \"trace\": %d, \"nproc\": %ld, "
                "\"build_type\": \"%s\", \"compiler\": \"%s\"}}\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, ::sysconf(_SC_NPROCESSORS_ONLN),
                PERFBENCH_BUILD_TYPE, compiler);
    return o.trace ? runTraced(o, paths) : runEndToEnd(o, paths);
}
