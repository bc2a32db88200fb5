/**
 * @file
 * Merge-determinism tests for the parallel campaign runner: the merged
 * coverage bitmap, bug verdict, ledger row count, and per-iteration
 * outcome stream must be identical for -jobs=1 and any higher worker
 * count given the same seed base, and the early-stop broadcast must
 * never change the canonical detection iteration.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/checkpoint.hh"
#include "chan/chan.hh"
#include "goker/registry.hh"
#include "obs/profile.hh"
#include "runtime/api.hh"
#include "trace/ect_ring.hh"

using namespace goat;
using goat::campaign::CampaignConfig;
using goat::campaign::CampaignResult;
using goat::campaign::runCampaign;

namespace {

const goker::KernelInfo &
kernel(const std::string &name)
{
    const goker::KernelInfo *k =
        goker::KernelRegistry::instance().find(name);
    EXPECT_NE(k, nullptr) << "unknown kernel " << name;
    return *k;
}

CampaignConfig
baseConfig(const goker::KernelInfo &k, int jobs)
{
    CampaignConfig cfg;
    cfg.engine.delayBound = 2;
    cfg.engine.seedBase = 7;
    cfg.engine.maxIterations = 40;
    cfg.engine.collectCoverage = true;
    cfg.engine.covThreshold = 200.0; // never stop on coverage
    cfg.engine.staticModel = goker::kernelCuTable(k);
    cfg.jobs = jobs;
    return cfg;
}

size_t
lineCount(const std::string &path)
{
    std::ifstream in(path);
    size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++n;
    return n;
}

/** The merge-visible digest two campaigns must agree on byte-for-byte. */
void
expectIdentical(const CampaignResult &a, const CampaignResult &b)
{
    EXPECT_EQ(a.merged.bugFound, b.merged.bugFound);
    EXPECT_EQ(a.merged.bugIteration, b.merged.bugIteration);
    EXPECT_EQ(a.merged.firstBug.shortStr(), b.merged.firstBug.shortStr());
    EXPECT_EQ(a.merged.report, b.merged.report);
    EXPECT_EQ(a.merged.raceIteration, b.merged.raceIteration);
    EXPECT_EQ(a.merged.iterations.size(), b.merged.iterations.size());
    EXPECT_EQ(a.merged.finalCoverage, b.merged.finalCoverage);
    EXPECT_EQ(a.coverage.bitmapStr(), b.coverage.bitmapStr());
    EXPECT_EQ(a.cutoffIteration, b.cutoffIteration);
    for (size_t i = 0; i < a.merged.iterations.size() &&
                       i < b.merged.iterations.size();
         ++i) {
        const auto &ia = a.merged.iterations[i];
        const auto &ib = b.merged.iterations[i];
        EXPECT_EQ(ia.exec.outcome, ib.exec.outcome) << "iteration " << i;
        EXPECT_EQ(ia.exec.steps, ib.exec.steps) << "iteration " << i;
        EXPECT_EQ(ia.dl.verdict, ib.dl.verdict) << "iteration " << i;
        EXPECT_EQ(ia.coveragePct, ib.coveragePct) << "iteration " << i;
    }
}

} // namespace

// The acceptance contract: same seed -> identical merged coverage
// bitmap and verdicts for jobs=1 vs jobs=4 vs jobs=8, on two kernels.
TEST(Campaign, MergeDeterminismAcrossJobCounts)
{
    for (const char *name : {"cockroach_1055", "moby_28462"}) {
        const goker::KernelInfo &k = kernel(name);
        CampaignResult r1 = runCampaign(baseConfig(k, 1), k.fn);
        CampaignResult r4 = runCampaign(baseConfig(k, 4), k.fn);
        CampaignResult r8 = runCampaign(baseConfig(k, 8), k.fn);
        SCOPED_TRACE(name);
        EXPECT_TRUE(r1.merged.bugFound);
        expectIdentical(r1, r4);
        expectIdentical(r1, r8);
        EXPECT_EQ(r1.jobs, 1);
        EXPECT_EQ(r4.jobs, 4);
        EXPECT_EQ(r8.jobs, 8);
    }
}

// Same contract with the ECT ring squeezed to its 16-row floor: every
// execution wraps and flushes mid-run many times, and the merged
// digest must still be byte-identical to jobs=1 (the ring is a format
// change, not a semantic one).
TEST(Campaign, MergeDeterminismWithTinyEctRing)
{
    size_t prev = trace::defaultEctRingCapacity();
    trace::setDefaultEctRingCapacity(16);
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignResult r1 = runCampaign(baseConfig(k, 1), k.fn);
    CampaignResult r4 = runCampaign(baseConfig(k, 4), k.fn);
    trace::setDefaultEctRingCapacity(prev);
    EXPECT_TRUE(r1.merged.bugFound);
    expectIdentical(r1, r4);
}

// Ledger row count (and file line count) is the same for any worker
// count: campaign ledgers are buffered and written at merge time,
// truncated at the canonical cutoff.
TEST(Campaign, LedgerRowCountMatchesAcrossJobCounts)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    std::string p1 = testing::TempDir() + "campaign_j1.jsonl";
    std::string p4 = testing::TempDir() + "campaign_j4.jsonl";
    std::remove(p1.c_str());
    std::remove(p4.c_str());

    CampaignConfig c1 = baseConfig(k, 1);
    c1.engine.ledgerPath = p1;
    CampaignConfig c4 = baseConfig(k, 4);
    c4.engine.ledgerPath = p4;

    CampaignResult r1 = runCampaign(c1, k.fn);
    CampaignResult r4 = runCampaign(c4, k.fn);

    EXPECT_GT(r1.ledgerRows, 0u);
    EXPECT_EQ(r1.ledgerRows, r4.ledgerRows);
    EXPECT_EQ(lineCount(p1), r1.ledgerRows);
    EXPECT_EQ(lineCount(p4), r4.ledgerRows);
    EXPECT_EQ(r1.ledgerRows, r1.merged.iterations.size());

    // Worker-tagged rows: every campaign row carries "worker" and
    // "wseq", and the single-worker ledger is all worker 0.
    std::ifstream in(p1);
    std::string line;
    while (std::getline(in, line)) {
        EXPECT_NE(line.find("\"worker\":0"), std::string::npos) << line;
        EXPECT_NE(line.find("\"wseq\":"), std::string::npos) << line;
    }
    std::remove(p1.c_str());
    std::remove(p4.c_str());
}

// Early-stop semantics: the merged result stops exactly at the
// canonical first detection; workers past the broadcast watermark may
// execute extra iterations, but those are discarded, never merged.
TEST(Campaign, EarlyStopBroadcastPreservesCanonicalCutoff)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    for (int jobs : {1, 4}) {
        CampaignConfig cfg = baseConfig(k, jobs);
        CampaignResult r = runCampaign(cfg, k.fn);
        SCOPED_TRACE(jobs);
        ASSERT_TRUE(r.merged.bugFound);
        EXPECT_EQ(static_cast<int>(r.merged.iterations.size()),
                  r.merged.bugIteration);
        EXPECT_EQ(r.cutoffIteration, r.merged.bugIteration);
        EXPECT_GE(r.executedIterations,
                  static_cast<int>(r.merged.iterations.size()));
        EXPECT_EQ(r.discardedIterations,
                  r.executedIterations -
                      static_cast<int>(r.merged.iterations.size()));
        EXPECT_LE(r.executedIterations, cfg.engine.maxIterations);
    }
}

// With stop-on-bug off the campaign runs the whole budget and every
// iteration is merged, regardless of worker count.
TEST(Campaign, FixedBudgetExecutesEveryIteration)
{
    const goker::KernelInfo &k = kernel("moby_28462");
    for (int jobs : {1, 4}) {
        CampaignConfig cfg = baseConfig(k, jobs);
        cfg.engine.maxIterations = 12;
        cfg.engine.stopOnBug = false;
        CampaignResult r = runCampaign(cfg, k.fn);
        SCOPED_TRACE(jobs);
        EXPECT_EQ(r.executedIterations, 12);
        EXPECT_EQ(r.discardedIterations, 0);
        EXPECT_EQ(r.merged.iterations.size(), 12u);
        EXPECT_EQ(r.cutoffIteration, 12);
    }
}

// The folded worker metrics account for every executed iteration, and
// the worker count is clamped to the iteration budget.
TEST(Campaign, WorkerMetricsFoldAndJobClamp)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignConfig cfg = baseConfig(k, 64);
    cfg.engine.maxIterations = 6;
    cfg.engine.stopOnBug = false;
    CampaignResult r = runCampaign(cfg, k.fn);
    EXPECT_EQ(r.jobs, 6); // clamped to maxIterations
    auto it = r.workerMetrics.counters.find("engine.iterations");
    ASSERT_NE(it, r.workerMetrics.counters.end());
    EXPECT_EQ(it->second,
              static_cast<uint64_t>(r.executedIterations));
}

namespace {

/**
 * Deterministic profile clock: each thread sees a monotone counter
 * advancing 7ns per read. Durations are same-thread differences, so a
 * scope's duration is 7ns * (nested clock reads + 1) — a pure function
 * of the iteration's code path and sampling phase, independent of
 * which worker runs it or what ran on the thread before.
 */
uint64_t
fakeClock()
{
    thread_local uint64_t t = 0;
    return t += 7;
}

/** RAII install/restore of the fake profile clock. */
struct FakeClockGuard
{
    obs::ProfileClock prev;
    FakeClockGuard() : prev(obs::setProfileClock(&fakeClock)) {}
    ~FakeClockGuard() { obs::setProfileClock(prev); }
};

} // namespace

// The profiler's canonical fold is byte-identical across worker counts
// under a deterministic clock: full snapshots (buckets included) and
// the executed-side fold both match, because per-iteration deltas are
// pure functions of the iteration and the merge folds them in
// canonical order.
TEST(Campaign, ProfileMergeIsByteIdenticalAcrossJobCounts)
{
    FakeClockGuard clock;
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignConfig c1 = baseConfig(k, 1);
    c1.engine.profile = true;
    c1.engine.stopOnBug = false; // fixed budget: executed == merged
    CampaignConfig c4 = baseConfig(k, 4);
    c4.engine.profile = true;
    c4.engine.stopOnBug = false;

    CampaignResult r1 = runCampaign(c1, k.fn);
    CampaignResult r4 = runCampaign(c4, k.fn);

    ASSERT_FALSE(r1.merged.profile.empty());
    EXPECT_GT(r1.merged.profile.stage(obs::Stage::FiberSwitch).total, 0u);
    EXPECT_GT(r1.merged.profile.stage(obs::Stage::TraceAppend).total, 0u);
    EXPECT_EQ(r1.merged.profile.jsonStr(), r4.merged.profile.jsonStr());
    EXPECT_EQ(r1.executedProfile.jsonStr(), r4.executedProfile.jsonStr());
}

// Under the real clock, sum_ns is host noise but the entry counters
// stay deterministic: per-stage total and sampled count match across
// worker counts (the ledger-canonical subset check_ledger.py keeps).
TEST(Campaign, ProfileEntryCountsDeterministicUnderRealClock)
{
    const goker::KernelInfo &k = kernel("moby_28462");
    CampaignConfig c1 = baseConfig(k, 1);
    c1.engine.profile = true;
    c1.engine.stopOnBug = false;
    c1.engine.maxIterations = 15;
    CampaignConfig c4 = c1;
    c4.jobs = 4;

    CampaignResult r1 = runCampaign(c1, k.fn);
    CampaignResult r4 = runCampaign(c4, k.fn);

    for (size_t i = 0; i < obs::kNumStages; ++i) {
        SCOPED_TRACE(obs::stageName(static_cast<obs::Stage>(i)));
        EXPECT_EQ(r1.merged.profile.stages[i].total,
                  r4.merged.profile.stages[i].total);
        EXPECT_EQ(r1.merged.profile.stages[i].count,
                  r4.merged.profile.stages[i].count);
    }
}

// With -profile off no instrumentation site records anything: the
// merged snapshot is empty and ledger rows carry no profile key.
TEST(Campaign, ProfileOffRecordsNothing)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    CampaignConfig cfg = baseConfig(k, 2);
    cfg.engine.maxIterations = 4;
    cfg.engine.stopOnBug = false;
    CampaignResult r = runCampaign(cfg, k.fn);
    EXPECT_TRUE(r.merged.profile.empty());
    EXPECT_TRUE(r.executedProfile.empty());
}

// The coverage-saturation series derives from the canonical merged
// fold, so its JSONL encoding is byte-identical for any worker count,
// monotone in covered, and one sample per merged iteration.
TEST(Campaign, SaturationSeriesIsByteIdenticalAcrossJobCounts)
{
    const goker::KernelInfo &k = kernel("moby_28462");
    CampaignConfig c1 = baseConfig(k, 1);
    c1.engine.stopOnBug = false;
    c1.engine.maxIterations = 20;
    CampaignConfig c4 = c1;
    c4.jobs = 4;

    CampaignResult r1 = runCampaign(c1, k.fn);
    CampaignResult r4 = runCampaign(c4, k.fn);

    ASSERT_EQ(r1.merged.saturation.samples().size(), 20u);
    EXPECT_EQ(r1.merged.saturation.jsonlStr(),
              r4.merged.saturation.jsonlStr());

    uint64_t prev = 0;
    for (const auto &s : r1.merged.saturation.samples()) {
        EXPECT_GE(s.covered, prev);
        EXPECT_LE(s.covered, s.total);
        EXPECT_EQ(s.blocked + s.unblocking + s.nop + s.blocking,
                  s.covered);
        prev = s.covered;
    }
    EXPECT_DOUBLE_EQ(r1.merged.saturation.samples().back().pct(),
                     r1.merged.finalCoverage);
}

// A coverage threshold stops the merged campaign at the same canonical
// iteration for any worker count.
TEST(Campaign, CoverageThresholdStopIsDeterministic)
{
    const goker::KernelInfo &k = kernel("moby_28462");
    std::vector<int> cutoffs;
    for (int jobs : {1, 4}) {
        CampaignConfig cfg = baseConfig(k, jobs);
        cfg.engine.maxIterations = 30;
        cfg.engine.stopOnBug = false;
        cfg.engine.covThreshold = 50.0;
        CampaignResult r = runCampaign(cfg, k.fn);
        cutoffs.push_back(r.cutoffIteration);
        SCOPED_TRACE(jobs);
        EXPECT_GE(r.merged.finalCoverage, 50.0);
    }
    EXPECT_EQ(cutoffs[0], cutoffs[1]);
}

namespace {

/**
 * @p line (one ledger row) without the host- and placement-dependent
 * keys, the canonical view tools/check_ledger.py compares.
 */
std::string
canonicalRow(std::string line)
{
    for (const char *key :
         {"\"wall_us\":", "\"worker\":", "\"wseq\":", "\"metrics\":"}) {
        size_t at = line.find(key);
        if (at == std::string::npos)
            continue;
        size_t end = at + std::strlen(key);
        for (int depth = 0; end < line.size(); ++end) {
            char c = line[end];
            if (c == '{') {
                ++depth;
            } else if (c == '}' && depth > 0) {
                if (--depth == 0) {
                    ++end;
                    break;
                }
            } else if ((c == ',' || c == '}') && depth == 0) {
                break;
            }
        }
        if (end < line.size() && line[end] == ',')
            ++end;
        else if (at > 0 && line[at - 1] == ',')
            --at;
        line.erase(at, end - at);
    }
    return line;
}

/** Canonical rows of the ledger at @p path, in file order. */
std::vector<std::string>
canonicalLedger(const std::string &path)
{
    std::vector<std::string> rows;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            rows.push_back(canonicalRow(line));
    return rows;
}

/** Run @p cfg under a private registry; return campaign.window_peak. */
int64_t
windowPeak(const CampaignConfig &cfg, const std::function<void()> &fn,
           CampaignResult *out)
{
    obs::Registry reg;
    obs::ScopedRegistry scope(reg);
    *out = runCampaign(cfg, fn);
    return reg.gauge("campaign.window_peak").value();
}

} // namespace

// The reorder window bounds the records a campaign holds at once by
// configuration, not by campaign length: at most kWindowPerWorker per
// worker, and exactly one at a time at jobs=1 in-process (the inline
// fold). Supervised shards are held to the same window by credit: one
// shard stalls on its first call while the others run ahead, and they
// may run at most a window past the stalled iteration. Every run
// writes the same canonical ledger.
TEST(CampaignWindow, PeakIsBoundedByTheWindow)
{
    const goker::KernelInfo &k = kernel("cockroach_1055");
    const std::string lock = testing::TempDir() + "window_stall.lock";
    const std::string ledger = testing::TempDir() + "window_peak.jsonl";
    struct Run
    {
        int jobs;
        bool isolate;
    };
    std::vector<std::string> reference;
    for (Run run : {Run{1, false}, Run{4, false}, Run{8, false},
                    Run{1, true}, Run{4, true}}) {
        SCOPED_TRACE(testing::Message() << "jobs=" << run.jobs
                                        << " isolate=" << run.isolate);
        std::remove(ledger.c_str());
        std::remove(lock.c_str());
        CampaignConfig cfg = baseConfig(k, run.jobs);
        cfg.engine.collectCoverage = false;
        cfg.engine.stopOnBug = false;
        cfg.engine.maxIterations = 5000;
        cfg.engine.ledgerPath = ledger;
        cfg.isolate = run.isolate;
        // In each shard process, the first call of the first process
        // to create the lock file sleeps.
        bool first_call = true;
        std::function<void()> stalling = [&k, &lock, &first_call]() {
            if (first_call) {
                first_call = false;
                int fd = ::open(lock.c_str(), O_CREAT | O_EXCL | O_WRONLY,
                                0600);
                if (fd >= 0) {
                    ::close(fd);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(500));
                }
            }
            k.fn();
        };
        CampaignResult r;
        int64_t peak = windowPeak(cfg, run.isolate ? stalling : k.fn, &r);
        EXPECT_EQ(r.merged.iterations.size(), 5000u);
        EXPECT_GE(peak, 1);
        EXPECT_LE(peak, run.jobs == 1 && !run.isolate
                            ? 1
                            : campaign::kWindowPerWorker * run.jobs);
        // The stall held the cursor while three shards ran ahead.
        if (run.isolate && run.jobs > 1) {
            EXPECT_GT(peak, campaign::kWindowPerWorker);
        }
        std::vector<std::string> rows = canonicalLedger(ledger);
        EXPECT_EQ(rows.size(), 5000u);
        if (reference.empty()) {
            reference = rows;
        } else {
            EXPECT_EQ(rows, reference);
        }
    }
    std::remove(ledger.c_str());
    std::remove(lock.c_str());
}

// Stop-on-bug while the window is full: the first program call stalls
// until every other iteration the window admits has started, so the
// other workers fill the window behind it and block on back-pressure.
// The stalled iteration then deadlocks. The campaign must stop there,
// wake the blocked workers, and count the full window as overshoot.
TEST(CampaignWindow, StopOnBugWithFullWindowFinishes)
{
    const int jobs = 8;
    const int width = campaign::kWindowPerWorker * jobs;
    std::atomic<int> calls{0};
    auto program = [&calls, width]() {
        if (calls.fetch_add(1) > 0) {
            yield();
            return;
        }
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (calls.load() < width &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        Chan<int> c;
        c.recv(); // global deadlock
    };
    CampaignConfig cfg;
    cfg.engine.delayBound = 0;
    cfg.engine.maxIterations = 5000;
    cfg.jobs = jobs;
    CampaignResult r;
    int64_t peak = windowPeak(cfg, program, &r);
    ASSERT_TRUE(r.merged.bugFound);
    EXPECT_EQ(r.cutoffIteration, r.merged.bugIteration);
    EXPECT_EQ(static_cast<int>(r.merged.iterations.size()),
              r.merged.bugIteration);
    // The stalled record is the last to publish; under a slow host a
    // record queued behind it may publish after the fold took it.
    EXPECT_GE(peak, width - 1);
    EXPECT_LE(peak, width);
    // Everything the window admitted ran: the bug's iteration, the
    // prefix before it, and the width - 1 records queued behind it.
    EXPECT_EQ(r.discardedIterations, width - 1);
    EXPECT_EQ(r.executedIterations, r.merged.bugIteration + width - 1);
}

// Checkpoints are written by the fold while the workers run, without
// joining them: a jobs=4 campaign checkpointing every 7 iterations,
// with worker threads or with supervised shards, writes the same
// canonical ledger as an uninterrupted jobs=1 run, and its last
// checkpoint covers the whole campaign.
TEST(CampaignWindow, InProcessCheckpointsKeepTheLedgerCanonical)
{
    for (bool isolate : {false, true}) {
        SCOPED_TRACE(testing::Message() << "isolate=" << isolate);
        const goker::KernelInfo &k = kernel("cockroach_7504");
        std::string l1 = testing::TempDir() + "window_ck_j1.jsonl";
        std::string l4 = testing::TempDir() + "window_ck_j4.jsonl";
        std::string ck = testing::TempDir() + "window_ck_j4.ck";
        std::remove(l1.c_str());
        std::remove(l4.c_str());
        std::remove(ck.c_str());

        CampaignConfig c1 = baseConfig(k, 1);
        c1.engine.delayBound = 1;
        c1.engine.stopOnBug = false;
        c1.engine.maxIterations = 300;
        c1.engine.ledgerPath = l1;
        CampaignConfig c4 = c1;
        c4.jobs = 4;
        c4.engine.ledgerPath = l4;
        c4.checkpointPath = ck;
        c4.checkpointEvery = 7;
        c4.isolate = isolate;

        CampaignResult r1 = runCampaign(c1, k.fn);
        CampaignResult r4 = runCampaign(c4, k.fn);
        EXPECT_TRUE(r4.checkpointOk);
        std::vector<std::string> a = canonicalLedger(l1);
        EXPECT_EQ(a.size(), 300u);
        EXPECT_EQ(a, canonicalLedger(l4));
        EXPECT_EQ(r1.coverage.bitmapStr(), r4.coverage.bitmapStr());

        campaign::CheckpointData d;
        std::string err;
        ASSERT_TRUE(campaign::readCheckpointFile(ck, &d, &err)) << err;
        EXPECT_EQ(d.cursor, 300);
        EXPECT_EQ(d.executed, 300);
        EXPECT_EQ(d.rows.size(), 300u);
        std::remove(l1.c_str());
        std::remove(l4.c_str());
        std::remove(ck.c_str());
    }
}

// A coverage-guided jobs=1 campaign steers by the same cumulative
// coverage in a supervised shard as in a worker thread, so both
// transports write the same canonical ledger.
TEST(CampaignWindow, GuidedShardFoldsItsCoverageLikeAWorker)
{
    const goker::KernelInfo &k = kernel("moby_28462");
    std::string lt = testing::TempDir() + "guided_threaded.jsonl";
    std::string li = testing::TempDir() + "guided_isolated.jsonl";
    std::remove(lt.c_str());
    std::remove(li.c_str());

    CampaignConfig ct = baseConfig(k, 1);
    ct.engine.coverageGuided = true;
    ct.engine.stopOnBug = false;
    ct.engine.maxIterations = 60;
    ct.engine.ledgerPath = lt;
    CampaignConfig ci = ct;
    ci.isolate = true;
    ci.engine.ledgerPath = li;

    CampaignResult rt = runCampaign(ct, k.fn);
    CampaignResult ri = runCampaign(ci, k.fn);
    std::vector<std::string> a = canonicalLedger(lt);
    EXPECT_EQ(a.size(), 60u);
    EXPECT_EQ(a, canonicalLedger(li));
    EXPECT_EQ(rt.coverage.bitmapStr(), ri.coverage.bitmapStr());
    std::remove(lt.c_str());
    std::remove(li.c_str());
}
