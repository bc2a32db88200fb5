#include "campaign/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "analysis/goroutine_tree.hh"
#include "analysis/happens_before.hh"
#include "analysis/report.hh"
#include "base/fmt.hh"
#include "base/interrupt.hh"
#include "base/logging.hh"
#include "campaign/checkpoint.hh"
#include "campaign/supervisor.hh"
#include "obs/ledger.hh"
#include "obs/profile.hh"

namespace goat::campaign {

using analysis::CoverageState;
using engine::GoatConfig;
using engine::IterationOutcome;
using engine::SingleRun;
using runtime::RunOutcome;

namespace {

/** Lower @p a to @p v if v is smaller (lock-free broadcast). */
void
atomicMin(std::atomic<int> &a, int v)
{
    int cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

/** Inverse of analysis::verdictName (Pass on an unknown name). */
analysis::Verdict
verdictFromName(const std::string &name)
{
    for (analysis::Verdict v :
         {analysis::Verdict::Pass, analysis::Verdict::PartialDeadlock,
          analysis::Verdict::GlobalDeadlock, analysis::Verdict::Crash,
          analysis::Verdict::Timeout}) {
        if (name == analysis::verdictName(v))
            return v;
    }
    return analysis::Verdict::Pass;
}

/**
 * Inverse of runtime::runOutcomeName, extended with the supervised
 * outcomes ("crashed" → Crash, "timeout" → StepBudget): frozen and
 * shard-digest rows carry names, not enums.
 */
RunOutcome
outcomeFromName(const std::string &name)
{
    for (RunOutcome o : {RunOutcome::Ok, RunOutcome::GlobalDeadlock,
                         RunOutcome::Crash, RunOutcome::StepBudget}) {
        if (name == runtime::runOutcomeName(o))
            return o;
    }
    if (name == "crashed")
        return RunOutcome::Crash;
    if (name == "timeout")
        return RunOutcome::StepBudget;
    return RunOutcome::Ok;
}

/**
 * A supervised shard loss (process crash or watchdog timeout), as
 * opposed to an in-process detection. Loss rows are bug rows but are
 * exempt from -stop-on-bug: the supervisor's whole point is that the
 * campaign continues past them.
 */
bool
supervisedLoss(const obs::LedgerEntry &e)
{
    return e.outcome == "crashed" || e.outcome == "timeout";
}

/** Reconstruct the iteration summary from a frozen or shard row. */
IterationOutcome
ioFromRow(const obs::LedgerEntry &e)
{
    IterationOutcome io;
    io.exec.outcome = outcomeFromName(e.outcome);
    io.exec.steps = e.steps;
    io.dl.verdict = verdictFromName(e.verdict);
    io.coveragePct = e.coveragePct;
    io.wallMicros = e.wallMicros;
    return io;
}

/**
 * The canonical fold's bookkeeping (the heavy material — saturation,
 * iterations, bug state — lives in the GoatResult being built).
 */
struct FoldState
{
    CoverageState merged;
    std::vector<obs::LedgerEntry> rows;
    /** Last canonically merged iteration. */
    int cursor = 0;
    /** Iterations executed across all workers (incl. overshoot). */
    int executed = 0;
    /** A canonical stop condition was hit. */
    bool stopped = false;
    /** Cursor of the last checkpoint written or restored. */
    int lastCkpt = 0;
    int respawns = 0;
    int crashes = 0;
    int timeouts = 0;

    explicit FoldState(const GoatConfig &cfg)
    {
        if (cfg.collectCoverage || cfg.coverageGuided)
            merged = CoverageState(cfg.staticModel);
    }
};

/**
 * Restore the -resume checkpoint into the fold: merged bitmap,
 * saturation series, frozen rows (their iteration summaries re-enter
 * result.iterations), tallies, and bug/race watermarks.
 * @retval false when the resume failed (out.resumeError explains).
 */
bool
restoreCheckpoint(const CampaignConfig &cfg, FoldState &fs,
                  CampaignResult &out)
{
    CheckpointData ck;
    std::string err;
    if (!readCheckpointFile(cfg.resumePath, &ck, &err) ||
        ck.fingerprint != configFingerprint(cfg)) {
        out.resumeOk = false;
        out.resumeError = !err.empty()
                              ? err
                              : "checkpoint fingerprint mismatch: " +
                                    ck.fingerprint + " vs " +
                                    configFingerprint(cfg);
        return false;
    }
    engine::GoatResult &result = out.merged;
    fs.cursor = fs.lastCkpt = ck.cursor;
    fs.executed = ck.executed;
    fs.stopped = ck.stopped;
    fs.respawns = ck.respawns;
    fs.crashes = ck.crashes;
    fs.timeouts = ck.timeouts;
    if (!ck.covBitmap.empty())
        fs.merged.restoreBitmap(ck.covBitmap);
    for (const obs::SaturationSample &s : ck.satSamples)
        result.saturation.appendSample(s);
    fs.rows = ck.rows;
    for (const obs::LedgerEntry &row : fs.rows) {
        result.iterations.push_back(ioFromRow(row));
        if (cfg.progress)
            cfg.progress->noteIteration(
                static_cast<size_t>(verdictFromName(row.verdict)),
                row.bug);
    }
    if (fs.cursor > 0 &&
        (cfg.engine.collectCoverage || cfg.engine.coverageGuided))
        result.finalCoverage = fs.merged.percent();
    if (ck.bugIteration > 0) {
        result.bugFound = true;
        result.bugIteration = ck.bugIteration;
    }
    if (ck.raceIteration > 0)
        result.raceIteration = ck.raceIteration;
    out.resumed = true;
    out.resumeFrom = ck.cursor;
    return true;
}

/** Snapshot the fold into a checkpoint file (atomic tmp+rename). */
void
writeCheckpoint(const CampaignConfig &cfg, FoldState &fs,
                const engine::GoatResult &result, CampaignResult &out)
{
    fs.lastCkpt = fs.cursor;
    CheckpointData d;
    d.fingerprint = configFingerprint(cfg);
    d.cursor = fs.cursor;
    d.executed = fs.executed;
    d.respawns = fs.respawns;
    d.crashes = fs.crashes;
    d.timeouts = fs.timeouts;
    d.bugIteration = result.bugFound ? result.bugIteration : -1;
    d.raceIteration = result.raceIteration;
    d.stopped = fs.stopped;
    if (cfg.engine.collectCoverage || cfg.engine.coverageGuided)
        d.covBitmap = fs.merged.bitmapStr();
    d.satSamples = result.saturation.samples();
    d.rows = fs.rows;
    if (!writeCheckpointFile(cfg.checkpointPath, d)) {
        out.checkpointOk = false;
        warn("cannot write checkpoint file " + cfg.checkpointPath);
    }
}

/**
 * Produce the first-bug report material when no live capture exists
 * (the bug row was restored from a checkpoint or crossed a shard
 * pipe). Normal rows are rehydrated by re-running the iteration —
 * a pure function of (config, index). Supervised crash/timeout rows
 * cannot be re-run in-process; they get a seeded-policy recipe (the
 * replay re-derives the schedule and reproduces the crash/hang) and a
 * synthesized report.
 */
void
materializeFirstBug(const CampaignConfig &cfg,
                    const std::function<void()> &program,
                    const obs::LedgerEntry &row,
                    engine::GoatResult &result)
{
    if (supervisedLoss(row)) {
        trace::Recipe r;
        r.kernel = cfg.programName;
        r.seed = row.seed;
        r.delayBound = row.delayBound;
        r.noiseProb = cfg.engine.noiseProb;
        r.stepBudget = cfg.engine.stepBudget;
        r.iteration = row.iteration;
        r.outcome = row.outcome;
        r.verdict = row.verdict;
        r.seededPolicy = true;
        result.firstBugRecipe = std::move(r);
        result.firstBug.verdict = verdictFromName(row.verdict);
        result.firstBug.panicMsg = row.crashCause;
        result.firstBugExec.outcome = outcomeFromName(row.outcome);
        result.report = strFormat(
            "supervised %s at iteration %d%s%s (seeded-policy recipe; "
            "replay reproduces the failure)\n",
            row.verdict.c_str(), row.iteration,
            row.crashCause.empty() ? "" : ", cause ",
            row.crashCause.c_str());
        return;
    }
    CoverageState scratch(cfg.engine.staticModel);
    SingleRun sr = engine::runCampaignIteration(
        cfg.engine, program, row.iteration, &scratch);
    engine::finalizeRecipe(sr);
    sr.recipe.kernel = cfg.programName;
    result.firstBug = sr.dl;
    result.firstBugExec = sr.exec;
    result.firstBugEct = sr.ect;
    result.firstBugRecipe = sr.recipe;
    result.report =
        analysis::deadlockReportStr(sr.ect, *sr.tree, sr.dl);
}

/**
 * The campaign's epilogue: the last checkpoint, the result tallies,
 * first-bug rehydration, recipe recording and minimization, prediction
 * confirmation (from @p recipes), the lint cross-check, ledger
 * emission, and campaign-level metrics.
 */
void
finalizeCampaign(const CampaignConfig &cfg,
                 const std::function<void()> &program,
                 CampaignResult &out, FoldState &fs,
                 const std::map<int, trace::Recipe> &recipes,
                 std::chrono::steady_clock::time_point campaign_t0)
{
    using std::chrono::steady_clock;
    const GoatConfig &ecfg = cfg.engine;
    engine::GoatResult &result = out.merged;
    std::vector<obs::LedgerEntry> &rows = fs.rows;

    if (!cfg.checkpointPath.empty() && fs.cursor != fs.lastCkpt)
        writeCheckpoint(cfg, fs, result, out);
    out.interrupted = interruptRequested();
    if (out.interrupted)
        out.interruptSig = interruptSignal();
    out.cutoffIteration = fs.cursor;
    out.executedIterations = fs.executed;
    out.discardedIterations =
        fs.executed - static_cast<int>(result.iterations.size());
    out.respawns = fs.respawns;
    out.crashes = fs.crashes;
    out.timeouts = fs.timeouts;
    out.coverage = std::move(fs.merged);

    // Bug/race material restored from a checkpoint has no live capture;
    // it is rehydrated from the pure (config, iteration) function
    // before the stages below use it.
    // Kept rows run 1..cursor, so the bug's row is found by index.
    obs::LedgerEntry *bug_row =
        result.bugFound && result.bugIteration >= 1 &&
                result.bugIteration <= static_cast<int>(rows.size())
            ? &rows[static_cast<size_t>(result.bugIteration) - 1]
            : nullptr;
    if (bug_row && result.report.empty())
        materializeFirstBug(cfg, program, *bug_row, result);
    if (result.raceIteration > 0 && !result.firstRaces.any()) {
        CoverageState scratch(ecfg.staticModel);
        SingleRun sr = engine::runCampaignIteration(
            ecfg, program, result.raceIteration, &scratch);
        result.firstRaces = analysis::detectRaces(sr.ect);
    }

    // Repro-recipe capture: the canonical first bug's decision stream
    // is a pure function of its iteration index, so the recipe bytes
    // are identical for any -jobs value. Minimization replays on this
    // (scheduler-free) thread, after the workers have joined.
    if (result.bugFound && !cfg.recordPath.empty()) {
        out.recordOk =
            trace::writeRecipeFile(result.firstBugRecipe, cfg.recordPath);
        if (out.recordOk)
            out.recipePath = cfg.recordPath;
        else
            warn("cannot write recipe file " + cfg.recordPath);
    }
    if (result.bugFound && cfg.minimize) {
        if (result.firstBugRecipe.seededPolicy) {
            // Minimization replays candidates in-process; a crash
            // recipe would take the campaign down with it.
            warn("skipping -minimize: the first bug is a supervised "
                 "crash/timeout (seeded-policy recipe)");
        } else {
            out.minimize = engine::minimizeRecipe(program,
                                                  result.firstBugRecipe);
            if (!cfg.recordPath.empty() && out.minimize.reproduced) {
                std::string min_path = cfg.recordPath + ".min";
                if (trace::writeRecipeFile(out.minimize.minimized,
                                           min_path)) {
                    out.minimizedRecipePath = min_path;
                } else {
                    out.recordOk = false;
                    warn("cannot write recipe file " + min_path);
                }
            }
        }
    }
    // Prediction confirmation: replay-steered cross-checks run on this
    // (scheduler-free) thread, grouped by the source iteration whose
    // recipe seeds the synthesized schedules. The fold appended
    // predictions in ascending iteration order and kept exactly their
    // sources' recipes, so each group is the next contiguous span.
    if (ecfg.predict) {
        auto &preds = out.predict.report.predictions;
        out.predict.confirmRecipes.assign(preds.size(),
                                          trace::Recipe());
        size_t idx = 0;
        for (const auto &[src, recipe] : recipes) {
            size_t end = idx;
            while (end < preds.size() && preds[end].iteration == src)
                ++end;
            analysis::PredictionReport sub;
            sub.predictions.assign(
                preds.begin() + static_cast<ptrdiff_t>(idx),
                preds.begin() + static_cast<ptrdiff_t>(end));
            trace::Recipe base = recipe;
            base.kernel = cfg.programName;
            engine::PredictOutcome po = engine::confirmPredictions(
                program, base, std::move(sub));
            out.predict.replays += po.replays;
            for (size_t j = 0; j < po.report.predictions.size(); ++j) {
                preds[idx + j] = std::move(po.report.predictions[j]);
                out.predict.confirmRecipes[idx + j] =
                    std::move(po.confirmRecipes[j]);
                // Stamp the source row (rows run 1..cursor when kept).
                if (preds[idx + j].confirmed &&
                    src <= static_cast<int>(rows.size())) {
                    int &conf = rows[static_cast<size_t>(src) - 1]
                                    .predictedConfirmed;
                    conf = conf < 0 ? 1 : conf + 1;
                }
            }
            idx = end;
        }
        out.predict.confirmedCount =
            out.predict.report.confirmedCount();
    }

    // Dynamic cross-check of the lint bridge: mark findings whose site
    // a goroutine of the canonical first bug trace actually reached
    // while parked or panicking. Input (the canonical trace) and the
    // lint report are both worker-count-independent. A supervised
    // crash/timeout bug has no trace to check against.
    if (cfg.lintBridge) {
        out.lint = cfg.lint;
        if (result.bugFound && !result.firstBugRecipe.seededPolicy) {
            out.confirmedWarnings = static_cast<int>(
                staticmodel::confirmFindings(out.lint,
                                             result.firstBugEct));
            if (bug_row)
                bug_row->confirmedWarnings = out.confirmedWarnings;
        }
    }

    // Stamp the repro fields onto the bug's ledger row.
    if (bug_row && (!out.recipePath.empty() || cfg.minimize)) {
        bug_row->recipePath = out.recipePath;
        if (cfg.minimize && out.minimize.reproduced)
            bug_row->minimizedYields =
                static_cast<int>(out.minimize.minimized.yields.size());
    }

    // Campaign ledgers are written at merge time, sorted by global
    // iteration id and truncated at the canonical cutoff, so the row
    // count and per-row seed/verdict content match any worker count.
    if (!ecfg.ledgerPath.empty()) {
        obs::RunLedger ledger(ecfg.ledgerPath);
        out.ledgerOk = ledger.ok();
        for (const obs::LedgerEntry &e : rows)
            ledger.append(e);
        out.ledgerRows = ledger.linesWritten();
    }

    // Campaign bookkeeping in the campaign-level registry.
    obs::Registry &parent = obs::Registry::current();
    parent.counter("engine.campaigns").inc();
    parent.counter("campaign.runs").inc();
    parent.counter("campaign.iterations.executed")
        .inc(static_cast<uint64_t>(out.executedIterations));
    parent.counter("campaign.iterations.discarded")
        .inc(static_cast<uint64_t>(out.discardedIterations));
    parent.gauge("campaign.workers").setMax(out.jobs);
    if (ecfg.predict) {
        parent.counter("campaign.predictions")
            .inc(static_cast<uint64_t>(
                out.predict.report.predictions.size()));
        parent.counter("campaign.predictions.confirmed")
            .inc(static_cast<uint64_t>(out.predict.confirmedCount));
    }
    if (cfg.isolate || out.respawns || out.crashes || out.timeouts) {
        parent.counter("campaign.respawns")
            .inc(static_cast<uint64_t>(out.respawns));
        parent.counter("campaign.crashes")
            .inc(static_cast<uint64_t>(out.crashes));
        parent.counter("campaign.timeouts")
            .inc(static_cast<uint64_t>(out.timeouts));
    }

    out.wallMicros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            steady_clock::now() - campaign_t0)
            .count());

    if (result.bugFound) {
        debugLog(strFormat(
            "campaign: bug found at iteration %d (%s), %d workers, "
            "%d executed / %d discarded",
            result.bugIteration, result.firstBug.shortStr().c_str(),
            out.jobs, out.executedIterations,
            out.discardedIterations));
    }
}

// -------------------------------------------------------------- driver

/**
 * Everything a worker records about one executed iteration: the
 * fold-relevant digest of the run, whose trace is dropped after
 * analysis. A record lives from the end of its iteration to its fold
 * and is freed there, so at most the reorder window's W records exist
 * at once (one at jobs=1 in-process). A shard's record crosses the
 * pipe as a ShardDigest.
 */
struct IterRecord
{
    int iter = 0;
    uint64_t seed = 0;
    /** The slim summary: outcome, steps, verdict and wall time. */
    IterationOutcome io;
    /** dl.buggy() or watchdog; races are folded in canonically. */
    bool coreBug = false;
    /** Executing worker and its per-worker iteration count (ledger). */
    int worker = 0, workerSeq = 0;
    /** This iteration's standalone coverage contribution (with -cov). */
    std::unique_ptr<CoverageState> cov;
    /** Worker-registry delta over this iteration (ledger only). */
    obs::Snapshot metricsDelta;
    /** Stage-profiler delta over this iteration (with profile). */
    std::unique_ptr<obs::ProfileSnapshot> profileDelta;
    /** Predictive-analysis report over the trace (with predict). */
    analysis::PredictionReport predictions;
    /** The schedule recipe confirmation replays start from (predict). */
    trace::Recipe recipe;
    /** The full run when it is its worker's first bug (report). */
    std::unique_ptr<SingleRun> bugRun;
    /** Its worker's first data races (with -race; else empty). */
    analysis::RaceReport races;
    /** The row a shard built, or the supervisor for a lost iteration. */
    std::unique_ptr<obs::LedgerEntry> shardRow;
};

/**
 * One worker, a thread or a shard process: a private metrics registry
 * (installed thread-locally while it runs, so the scheduler and engine
 * bookkeeping of this worker never touch another's instruments) and a
 * private cumulative coverage state (guided-policy food and threshold
 * heuristic).
 */
struct Worker
{
    Worker(const GoatConfig &cfg, int i, bool wantRows)
        : id(i), iterations(registry.counter("engine.iterations")),
          bugs(registry.counter("engine.bugs_found")),
          iterWall(registry.histogram(
              "engine.iter_wall_us",
              {100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000}))
    {
        if (cfg.collectCoverage || cfg.coverageGuided)
            covTemplate = localCov = CoverageState(cfg.staticModel);
        if (wantRows)
            prevSnap = registry.snapshot();
    }

    const int id;
    obs::Registry registry;
    obs::Counter &iterations;
    obs::Counter &bugs;
    obs::Histogram &iterWall;
    /** Registry state after the last iteration (ledger only). */
    obs::Snapshot prevSnap;
    /** Private stage profiler (installed thread-locally when on). */
    obs::Profiler profiler;
    CoverageState localCov;
    /** The static requirement universe, copied per iteration. */
    CoverageState covTemplate;
    /** Iterations executed so far (the ledger's wseq). */
    int seq = 0;
    bool bugSeen = false;
    bool raceSeen = false;
};

/** One reorder-window slot: the record of iteration `iter` (0 = empty). */
struct Slot
{
    std::atomic<int> iter{0};
    IterRecord rec;
};

/**
 * One campaign: the canonical fold and the bounded reorder window that
 * feeds it, a ring of `width` slots indexed by iteration % width that
 * the campaign thread folds in canonical order. Iteration i starts only
 * once i <= cursor + width, so its slot is free when it publishes and
 * at most `width` records exist at once.
 *
 * Threads claim iterations from one counter and wait for the window
 * themselves. The hot path makes no syscall: a publisher wakes the
 * folder only on the iteration the folder declared it sleeps for, and
 * the folder wakes blocked workers once per drained batch. No wake is
 * lost: each side stores its own word (a slot's iteration, the cursor)
 * and then loads the other's declaration (wakeAt, workersWaiting), all
 * seq_cst, while a sleeper declares itself and checks its predicate
 * under the mutex the waker takes to notify. At jobs = 1 the worker
 * folds inline and there is no window.
 *
 * Shards (-isolate) run a static partition in forked processes and
 * hold credit instead: the supervisor grants each shard "start
 * iterations <= cursor + width" over its control pipe, and the
 * campaign thread drops each digest it receives into the same ring.
 */
struct Driver
{
    /** Continue the (possibly restored) fold @p f with @p jobs workers. */
    Driver(const CampaignConfig &c, const std::function<void()> &p,
           CampaignResult &o, FoldState &&f, int jobs)
        : cfg(c), program(p), out(o), fs(std::move(f)),
          wantRows(!c.engine.ledgerPath.empty() ||
                   !c.checkpointPath.empty() || !c.resumePath.empty()),
          next(fs.cursor + 1), stopAt(c.engine.maxIterations),
          width(c.isolate || jobs > 1 ? kWindowPerWorker * jobs : 0),
          slots(width ? new Slot[static_cast<size_t>(width)] : nullptr),
          cursor(fs.cursor), live(jobs)
    {
    }

    Slot &slot(int iter) { return slots[static_cast<size_t>(iter % width)]; }

    bool
    ready(int iter)
    {
        return slot(iter).iter.load(std::memory_order_seq_cst) == iter;
    }

    obs::LedgerEntry rowOf(IterRecord &rec) const;
    void consume(IterRecord &&rec);
    bool runIteration(Worker &w, int iter, IterRecord &rec);
    int claim();
    void publish(IterRecord &&rec);
    bool drain();
    void foldLoop();

    const CampaignConfig &cfg;
    const std::function<void()> &program;
    CampaignResult &out;
    FoldState fs;
    const bool wantRows;
    std::set<std::string> seenPred;
    /** Recipes of the iterations whose predictions survived dedup. */
    std::map<int, trace::Recipe> recipes;
    /**
     * The merge stage is profiled apart from the workers: one scope
     * per canonically folded iteration, so its entry total is as
     * worker-count independent as the rest of the fold.
     */
    obs::Profiler mergeProfiler;

    /** Next iteration to claim (work distribution). */
    std::atomic<int> next;
    /**
     * Early-stop broadcast: lowest iteration known to satisfy a stop
     * condition. Claims beyond it are pointless — the fold will
     * discard them — so workers exit instead. Never below the
     * canonical stop point (broadcast values are upper bounds on it),
     * so every iteration the fold needs is guaranteed to execute.
     */
    std::atomic<int> stopAt;
    /** Window width W (0 = inline fold). */
    const int width;
    std::unique_ptr<Slot[]> slots;
    /** The fold's cursor, published for back-pressure. */
    std::atomic<int> cursor;
    /** Records published and not yet consumed, and their maximum. */
    std::atomic<int> held{0};
    std::atomic<int> heldPeak{0};
    /** Workers still running. */
    std::atomic<int> live;
    /** Iteration whose publish wakes the folder (0 = not sleeping). */
    std::atomic<int> wakeAt{0};
    std::atomic<int> workersWaiting{0};
    std::mutex mu;
    std::condition_variable folderCv;
    std::condition_variable workerCv;
};

/** The ledger row of @p rec, as far as the record alone decides it. */
obs::LedgerEntry
Driver::rowOf(IterRecord &rec) const
{
    obs::LedgerEntry row;
    row.iteration = rec.iter;
    row.seed = rec.seed;
    row.delayBound = cfg.engine.delayBound;
    row.outcome = runtime::runOutcomeName(rec.io.exec.outcome);
    row.verdict = analysis::verdictName(rec.io.dl.verdict);
    row.bug = rec.coreBug;
    row.steps = rec.io.exec.steps;
    row.wallMicros = rec.io.wallMicros;
    row.worker = rec.worker;
    row.workerSeq = rec.workerSeq;
    if (rec.profileDelta) {
        row.hasProfile = true;
        row.profileDelta = *rec.profileDelta;
    }
    row.metricsDelta = std::move(rec.metricsDelta);
    return row;
}

/**
 * Count an executed record and fold it in canonical order, freeing it:
 * OR its coverage contribution into the merged state, sample
 * saturation, build and keep the ledger row when rows are wanted, push
 * the slim summary, note progress, apply the bug and stop rules, and
 * checkpoint on cadence. Overshoot past the canonical cut, or past a
 * hole an interrupted iteration left, is counted and dropped.
 */
void
Driver::consume(IterRecord &&rec)
{
    const GoatConfig &ecfg = cfg.engine;
    engine::GoatResult &result = out.merged;
    ++fs.executed;
    const bool loss = rec.shardRow && supervisedLoss(*rec.shardRow);
    if (loss)
        ++(rec.shardRow->outcome == "timeout" ? fs.timeouts : fs.crashes);
    if (rec.profileDelta)
        out.executedProfile.mergeFrom(*rec.profileDelta);
    if (fs.stopped || rec.iter != fs.cursor + 1)
        return;

    const int i = rec.iter;
    std::unique_ptr<obs::ScopedProfiler> prof_scope;
    if (rec.profileDelta) {
        prof_scope = std::make_unique<obs::ScopedProfiler>(mergeProfiler);
        result.profile.mergeFrom(*rec.profileDelta);
    }
    obs::ProfileScope merge_prof(obs::Stage::Merge);

    // The first record carrying races is the canonical first race: each
    // worker detects only its own first, over increasing indices. A
    // race restored from a checkpoint keeps the slot.
    const bool race = result.raceIteration <= 0 && rec.races.any();
    if (race) {
        result.firstRaces = std::move(rec.races);
        result.raceIteration = i;
    }
    const bool buggy = rec.coreBug || race;
    const bool first_bug = buggy && !result.bugFound;

    // Keep the first instance of each prediction's stable key — the
    // same dedup a sequential pass over the traces would perform.
    const int predicted =
        static_cast<int>(rec.predictions.predictions.size());
    bool kept = false;
    for (analysis::Prediction &p : rec.predictions.predictions) {
        if (!seenPred.insert(p.key()).second)
            continue;
        p.iteration = i;
        out.predict.report.predictions.push_back(std::move(p));
        kept = true;
    }
    if (kept)
        recipes.emplace(i, std::move(rec.recipe));

    obs::LedgerEntry row;
    if (wantRows || (first_bug && !rec.bugRun)) {
        row = rec.shardRow ? std::move(*rec.shardRow) : rowOf(rec);
        row.bug = buggy;
        if (ecfg.predict)
            row.predicted = predicted;
    }

    // The worker thread that executed the canonical first detection
    // necessarily captured it as its own first bug; a shard's bug
    // crossed the pipe as a row and is rehydrated from it.
    if (first_bug) {
        if (rec.bugRun) {
            SingleRun &sr = *rec.bugRun;
            engine::finalizeRecipe(sr);
            sr.recipe.kernel = cfg.programName;
            result.report =
                analysis::deadlockReportStr(sr.ect, *sr.tree, sr.dl);
            result.firstBug = std::move(sr.dl);
            result.firstBugExec = std::move(sr.exec);
            result.firstBugEct = std::move(sr.ect);
            result.firstBugRecipe = std::move(sr.recipe);
        } else {
            materializeFirstBug(cfg, program, row, result);
        }
        result.bugFound = true;
        result.bugIteration = i;
    }

    fs.cursor = i;
    IterationOutcome &io = rec.io;
    if (ecfg.collectCoverage || ecfg.coverageGuided) {
        // A loss has no contribution and inherits the cumulative state,
        // so the covered/req_total series stays monotone.
        if (rec.cov)
            fs.merged.mergeFrom(*rec.cov);
        io.coveragePct = fs.merged.percent();
        result.finalCoverage = io.coveragePct;
        // The saturation sample reads the canonical cumulative fold,
        // so the series is identical for any worker count.
        if (ecfg.collectCoverage)
            result.saturation.sample(i, fs.merged);
        if (cfg.progress)
            cfg.progress->noteCoveragePermille(
                static_cast<uint64_t>(io.coveragePct * 10.0));
    }
    if (cfg.progress)
        cfg.progress->noteIteration(static_cast<size_t>(io.dl.verdict),
                                    buggy);
    if (wantRows) {
        row.coveragePct = io.coveragePct;
        if (ecfg.collectCoverage && io.coveragePct >= 0) {
            row.satCovered =
                static_cast<int64_t>(fs.merged.coveredCount());
            row.satTotal =
                static_cast<int64_t>(fs.merged.totalRequirements());
        }
        if (cfg.lintBridge)
            row.staticWarnings = static_cast<int>(cfg.lint.size());
        fs.rows.push_back(std::move(row));
    }
    // A supervised loss is a bug that never stops the campaign: the
    // supervisor's whole point is that the campaign continues past it.
    if (buggy && ecfg.stopOnBug && !loss)
        fs.stopped = true;
    else if (ecfg.collectCoverage && io.coveragePct >= ecfg.covThreshold)
        fs.stopped = true;
    result.iterations.push_back(std::move(io));

    if (!cfg.checkpointPath.empty() && !fs.stopped &&
        fs.cursor - fs.lastCkpt >= std::max(1, cfg.checkpointEvery))
        writeCheckpoint(cfg, fs, result, out);
}

/**
 * The per-iteration body of every worker, thread or shard: run
 * iteration @p iter, fold its coverage into the worker's own state,
 * broadcast what that proves about the canonical stop, and fill @p rec.
 * @retval false when an interrupt cut the run short (no record).
 */
bool
Driver::runIteration(Worker &w, int iter, IterRecord &rec)
{
    using std::chrono::steady_clock;
    const GoatConfig &ecfg = cfg.engine;

    auto t0 = steady_clock::now();
    SingleRun sr =
        engine::runCampaignIteration(ecfg, program, iter, &w.localCov);
    if (sr.exec.interrupted)
        return false; // cut short mid-run: drop the partial record

    rec.iter = iter;
    rec.seed = engine::campaignIterationSeed(ecfg.seedBase, iter);
    rec.io.exec.outcome = sr.exec.outcome;
    rec.io.exec.steps = sr.exec.steps;
    rec.io.dl.verdict = sr.dl.verdict;
    rec.coreBug =
        sr.dl.buggy() || sr.exec.outcome == RunOutcome::StepBudget;
    rec.worker = w.id;
    rec.workerSeq = ++w.seq;
    w.iterations.inc();

    if (ecfg.predict) {
        rec.predictions = analysis::predictBlockingBugs(sr.ect);
        rec.recipe = sr.recipe;
    }

    if (ecfg.collectCoverage || ecfg.coverageGuided) {
        // Fold the trace once, reusing the run's tree; the worker's
        // cumulative state takes the result by union, which equals
        // folding the trace into it directly.
        rec.cov = std::make_unique<CoverageState>(w.covTemplate);
        rec.cov->addEct(sr.ect, *sr.tree);
        w.localCov.mergeFrom(*rec.cov);
        // The worker's cumulative coverage is a subset of the merged
        // coverage at this iteration, so reaching the threshold
        // locally proves the canonical cutoff is <= iter.
        if (ecfg.collectCoverage && w.localCov.percent() >= ecfg.covThreshold)
            atomicMin(stopAt, iter);
    }

    if (ecfg.raceDetect && !w.raceSeen) {
        rec.races = analysis::detectRaces(sr.ect);
        w.raceSeen = rec.races.any();
    }

    rec.io.wallMicros = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            steady_clock::now() - t0)
            .count());
    w.iterWall.observe(rec.io.wallMicros);

    if (logEnabled(LogLevel::Debug)) {
        debugLog(strFormat(
            "campaign: worker %d iter %d/%d seed=%llu outcome=%s "
            "verdict=%s wall_us=%llu",
            w.id, iter, ecfg.maxIterations,
            static_cast<unsigned long long>(rec.seed),
            runtime::runOutcomeName(rec.io.exec.outcome),
            analysis::verdictName(rec.io.dl.verdict),
            static_cast<unsigned long long>(rec.io.wallMicros)));
    }

    if (wantRows) {
        obs::Snapshot snap = w.registry.snapshot();
        rec.metricsDelta = snap.deltaFrom(w.prevSnap);
        w.prevSnap = std::move(snap);
    }

    // Draining per iteration resets the sampling phase, so the delta
    // (and under a deterministic clock, its histogram) is a pure
    // function of the iteration — the canonical fold can fold deltas
    // in iteration order, worker-count independent.
    if (ecfg.profile)
        rec.profileDelta =
            std::make_unique<obs::ProfileSnapshot>(w.profiler.drain());

    if ((rec.coreBug || rec.races.any()) && !w.bugSeen) {
        w.bugSeen = true;
        rec.bugRun = std::make_unique<SingleRun>(std::move(sr));
        w.bugs.inc();
        // The minimum over all workers' first-bug broadcasts is
        // exactly the canonical first detection (each worker runs
        // increasing indices, so its first bug is its minimum), so
        // the watermark converges to it.
        if (ecfg.stopOnBug)
            atomicMin(stopAt, iter);
    }
    return true;
}

/**
 * Claim the next iteration and wait until the window has room for it.
 * @return the iteration, or 0 when the worker should exit (budget
 * spent, past the stop watermark, or interrupted).
 */
int
Driver::claim()
{
    if (interruptRequested())
        return 0; // drain: stop claiming
    int iter = next.fetch_add(1, std::memory_order_relaxed);
    if (iter > cfg.engine.maxIterations ||
        iter > stopAt.load(std::memory_order_relaxed))
        return 0;
    if (!width || iter <= cursor.load(std::memory_order_acquire) + width)
        return iter;
    std::unique_lock<std::mutex> lk(mu);
    workersWaiting.fetch_add(1, std::memory_order_seq_cst);
    // Timed: an interrupt flag set by a signal handler cannot notify
    // the condition variable. The folder lowers stopAt before it
    // advances the cursor, so an admitted claim sees a fresh watermark.
    while (iter > cursor.load(std::memory_order_seq_cst) + width &&
           iter <= stopAt.load(std::memory_order_relaxed) &&
           !interruptRequested())
        workerCv.wait_for(lk, std::chrono::milliseconds(50));
    workersWaiting.fetch_sub(1, std::memory_order_relaxed);
    return iter <= stopAt.load(std::memory_order_relaxed) &&
                   !interruptRequested()
               ? iter
               : 0;
}

/** Hand a finished record to the fold (inline or via the window). */
void
Driver::publish(IterRecord &&rec)
{
    if (!width) {
        heldPeak.store(1, std::memory_order_relaxed);
        consume(std::move(rec));
        if (fs.stopped)
            atomicMin(stopAt, fs.cursor);
        return;
    }
    const int iter = rec.iter;
    Slot &s = slot(iter);
    s.rec = std::move(rec);
    int now = held.fetch_add(1, std::memory_order_relaxed) + 1;
    int peak = heldPeak.load(std::memory_order_relaxed);
    while (now > peak && !heldPeak.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    s.iter.store(iter, std::memory_order_seq_cst);
    if (wakeAt.load(std::memory_order_seq_cst) == iter) {
        std::lock_guard<std::mutex> lk(mu);
        folderCv.notify_one();
    }
}

/**
 * Fold every ready record at the window's head in canonical order.
 * @retval true when the cursor moved.
 */
bool
Driver::drain()
{
    bool moved = false;
    while (!fs.stopped && ready(fs.cursor + 1)) {
        Slot &s = slot(fs.cursor + 1);
        IterRecord rec = std::move(s.rec);
        s.iter.store(0, std::memory_order_relaxed);
        held.fetch_sub(1, std::memory_order_relaxed);
        consume(std::move(rec));
        if (fs.stopped)
            atomicMin(stopAt, fs.cursor);
        cursor.store(fs.cursor, std::memory_order_seq_cst);
        moved = true;
    }
    return moved;
}

/**
 * The folder (threads at jobs > 1, on the campaign thread): drain the
 * ready prefix, wake blocked workers, and sleep until a batch of half
 * the window is ready (or the head, when the batch already is) or the
 * last worker exits. Returns once the fold stops or every worker has
 * exited and the ready prefix is folded.
 */
void
Driver::foldLoop()
{
    for (;;) {
        const bool last = live.load(std::memory_order_seq_cst) == 0;
        const bool moved = drain();
        if ((moved || fs.stopped) &&
            workersWaiting.load(std::memory_order_seq_cst) > 0) {
            std::lock_guard<std::mutex> lk(mu);
            workerCv.notify_all();
        }
        if (fs.stopped || last)
            return;

        int wake = std::min(fs.cursor + width / 2, cfg.engine.maxIterations);
        if (ready(wake))
            wake = fs.cursor + 1;
        std::unique_lock<std::mutex> lk(mu);
        wakeAt.store(wake, std::memory_order_seq_cst);
        folderCv.wait(lk, [&] {
            return ready(wake) || live.load(std::memory_order_seq_cst) == 0;
        });
        wakeAt.store(0, std::memory_order_relaxed);
    }
}

void
workerLoop(Driver &d, Worker &w)
{
    // Bind this thread's metrics to the worker's private registry for
    // the whole loop (covers the scheduler's per-run flush too).
    obs::ScopedRegistry scope(w.registry);
    std::unique_ptr<obs::ScopedProfiler> prof_scope;
    if (d.cfg.engine.profile)
        prof_scope = std::make_unique<obs::ScopedProfiler>(w.profiler);
    while (int iter = d.claim()) {
        IterRecord rec;
        if (!d.runIteration(w, iter, rec))
            break;
        d.publish(std::move(rec));
    }
}

/** The record a shard digest, or a synthesized loss, stands for. */
IterRecord
recordOf(ShardDigest &&d)
{
    IterRecord rec;
    rec.iter = d.row.iteration;
    rec.io = ioFromRow(d.row);
    rec.coreBug = d.row.bug;
    // The bitmap names every requirement the shard knew, so an empty
    // state restored from it is the shard's contribution.
    if (!d.covBitmap.empty()) {
        rec.cov = std::make_unique<CoverageState>();
        rec.cov->restoreBitmap(d.covBitmap);
    }
    rec.shardRow = std::make_unique<obs::LedgerEntry>(std::move(d.row));
    return rec;
}

} // namespace

/**
 * One driver, two transports: records reach the fold in canonical
 * order — inline at jobs=1 in-process, else through the reorder
 * window, filled by worker threads or by supervised shards — and the
 * fold replays the sequential engine's loop over them: coverage in
 * iteration order, bug and threshold stop semantics, and a cut exactly
 * where -jobs=1 stops.
 */
CampaignResult
runCampaign(const CampaignConfig &cfg,
            const std::function<void()> &program)
{
    auto campaign_t0 = std::chrono::steady_clock::now();
    const GoatConfig &ecfg = cfg.engine;
    CampaignResult out;
    FoldState fs(ecfg);
    out.jobs = std::clamp(cfg.jobs, 1, std::max(1, ecfg.maxIterations));
    if (!cfg.resumePath.empty() && !restoreCheckpoint(cfg, fs, out))
        return out;
    const int jobs = out.jobs;
    Driver d(cfg, program, out, std::move(fs), jobs);
    std::vector<std::unique_ptr<Worker>> workers;
    if (!cfg.isolate)
        for (int i = 0; i < jobs; ++i)
            workers.push_back(
                std::make_unique<Worker>(ecfg, i, d.wantRows));
    const bool run = !d.fs.stopped && d.fs.cursor < ecfg.maxIterations;
    if (run && cfg.isolate) {
        // Each shard process runs the per-iteration body as its one
        // worker; the digests enter the window on this thread.
        ShardHooks hooks;
        std::unique_ptr<Worker> worker; // the shard's, created post-fork
        hooks.run = [&](int shard, int iter, int wseq, ShardDigest *o) {
            if (!worker)
                worker = std::make_unique<Worker>(ecfg, shard, d.wantRows);
            Worker &w = *worker;
            obs::ScopedRegistry scope(w.registry);
            w.seq = wseq - 1;
            IterRecord rec;
            // Past the shard's own watermark the fold needs nothing.
            if (iter > d.stopAt.load(std::memory_order_relaxed) ||
                !d.runIteration(w, iter, rec))
                return false;
            if (rec.cov)
                o->covBitmap = rec.cov->bitmapStr();
            o->row = d.rowOf(rec);
            return true;
        };
        hooks.fold = [&d](ShardDigest &&digest) {
            d.publish(recordOf(std::move(digest)));
            d.drain();
        };
        hooks.credit = [&d] { return d.fs.cursor + d.width; };
        hooks.stopped = [&d] { return d.fs.stopped; };
        d.fs.respawns += superviseCampaign(cfg, d.fs.cursor + 1, hooks);
    } else if (run && jobs == 1) {
        workerLoop(d, *workers[0]);
    } else if (run) {
        std::vector<std::thread> threads;
        for (auto &w : workers)
            threads.emplace_back([&d, &w]() {
                workerLoop(d, *w);
                // The last exit wakes the folder for its final drain.
                std::lock_guard<std::mutex> lk(d.mu);
                if (d.live.fetch_sub(1) == 1)
                    d.folderCv.notify_one();
            });
        d.foldLoop();
        for (auto &t : threads)
            t.join();
    }
    // Overshoot past the cut and records past an interrupted hole
    // still count as executed.
    for (Slot *s = d.slots.get(); s < d.slots.get() + d.width; ++s)
        if (s->iter.load())
            d.consume(std::move(s->rec));
    // The merge stage's scopes (consume installs their profiler only
    // around a fold, so the finalize replays never record into it).
    if (ecfg.profile) {
        obs::ProfileSnapshot merge_delta = d.mergeProfiler.drain();
        out.merged.profile.mergeFrom(merge_delta);
        out.executedProfile.mergeFrom(merge_delta);
    }

    // Fold the private worker registries into one snapshot and absorb
    // them into the campaign-level registry.
    obs::Registry &parent = obs::Registry::current();
    for (const auto &w : workers) {
        obs::Snapshot s = w->registry.snapshot();
        out.workerMetrics.mergeFrom(s);
        parent.absorb(s);
    }
    parent.gauge("campaign.window_peak").setMax(d.heldPeak.load());

    finalizeCampaign(cfg, program, out, d.fs, d.recipes, campaign_t0);
    return out;
}

} // namespace goat::campaign
