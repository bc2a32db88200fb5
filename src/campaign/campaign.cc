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

/** Reconstruct the iteration summary from a frozen/digest row. */
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
 * The canonical fold's bookkeeping, shared by the threaded and
 * isolated drivers (the heavy material — saturation, iterations, bug
 * state — lives in the GoatResult being built).
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
 * One canonical fold step, shared by both drivers: OR iteration @p i's
 * coverage contribution into the merged state (@p orCoverage does the
 * OR; a loss row has none and inherits the cumulative state, so the
 * covered/req_total series stays monotone), sample saturation, stamp
 * and keep the ledger @p row (nullptr: no rows kept), push the slim
 * summary @p io, note progress, and apply the bug and stop rules.
 * A supervised loss (@p loss) is a bug that never stops the campaign.
 */
template <typename OrCoverage>
void
foldStep(const CampaignConfig &cfg, FoldState &fs,
         engine::GoatResult &result, int i, IterationOutcome io,
         bool buggy, bool loss, obs::LedgerEntry *row,
         OrCoverage &&orCoverage)
{
    const GoatConfig &ecfg = cfg.engine;
    fs.cursor = i;
    if (ecfg.collectCoverage || ecfg.coverageGuided) {
        orCoverage(fs.merged);
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
    if (buggy && !result.bugFound) {
        result.bugFound = true;
        result.bugIteration = i;
    }
    if (cfg.progress)
        cfg.progress->noteIteration(static_cast<size_t>(io.dl.verdict),
                                    buggy);
    if (row) {
        row->coveragePct = io.coveragePct;
        if (ecfg.collectCoverage && io.coveragePct >= 0) {
            row->satCovered =
                static_cast<int64_t>(fs.merged.coveredCount());
            row->satTotal =
                static_cast<int64_t>(fs.merged.totalRequirements());
        }
        if (cfg.lintBridge)
            row->staticWarnings = static_cast<int>(cfg.lint.size());
        fs.rows.push_back(std::move(*row));
    }
    if (buggy && ecfg.stopOnBug && !loss)
        fs.stopped = true;
    else if (ecfg.collectCoverage && io.coveragePct >= ecfg.covThreshold)
        fs.stopped = true;
    result.iterations.push_back(std::move(io));
}

/**
 * Restore a parsed checkpoint into the fold: merged bitmap, saturation
 * series, frozen rows (their iteration summaries re-enter
 * result.iterations), tallies, and bug/race watermarks.
 */
void
restoreCheckpoint(const CheckpointData &ck, const CampaignConfig &cfg,
                  FoldState &fs, engine::GoatResult &result,
                  CampaignResult &out)
{
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
 * The epilogue shared by both drivers: the last checkpoint, the
 * result tallies, first-bug rehydration, recipe recording and
 * minimization, prediction confirmation (@p recipes: threaded only),
 * the lint cross-check, ledger emission, and campaign-level metrics.
 */
void
finalizeCampaign(const CampaignConfig &cfg,
                 const std::function<void()> &program,
                 CampaignResult &out, FoldState &fs,
                 const std::map<int, trace::Recipe> *recipes,
                 std::chrono::steady_clock::time_point campaign_t0)
{
    using std::chrono::steady_clock;
    const GoatConfig &ecfg = cfg.engine;
    engine::GoatResult &result = out.merged;
    std::vector<obs::LedgerEntry> &rows = fs.rows;

    if (!cfg.checkpointPath.empty() && fs.cursor != fs.lastCkpt)
        writeCheckpoint(cfg, fs, result, out);
    if (interruptRequested())
        out.interrupted = true;
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

    // Bug/race material with no live capture (restored from a
    // checkpoint, or folded from a shard digest) is rehydrated from the
    // pure (config, iteration) function before the stages below use it.
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
    if (ecfg.predict && recipes) {
        auto &preds = out.predict.report.predictions;
        out.predict.confirmRecipes.assign(preds.size(),
                                          trace::Recipe());
        size_t idx = 0;
        for (const auto &[src, recipe] : *recipes) {
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
    if (ecfg.predict && recipes) {
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

/**
 * The prologue shared by both drivers: clamp the worker count to the
 * budget and restore the -resume checkpoint into the fold.
 * @retval false when the resume failed (out.resumeError explains).
 */
bool
beginCampaign(const CampaignConfig &cfg, FoldState &fs, CampaignResult &out)
{
    out.jobs = std::clamp(cfg.jobs, 1, std::max(1, cfg.engine.maxIterations));
    if (cfg.resumePath.empty())
        return true;
    CheckpointData ck;
    std::string err;
    if (!readCheckpointFile(cfg.resumePath, &ck, &err)) {
        out.resumeOk = false;
        out.resumeError = err;
        return false;
    }
    if (ck.fingerprint != configFingerprint(cfg)) {
        out.resumeOk = false;
        out.resumeError = "checkpoint fingerprint mismatch: " +
                          ck.fingerprint + " vs " + configFingerprint(cfg);
        return false;
    }
    restoreCheckpoint(ck, cfg, fs, out.merged, out);
    return true;
}

// ------------------------------------------------------------ threaded

/**
 * Everything one worker records about one executed iteration: the
 * fold-relevant digest of the run, whose trace is dropped after
 * analysis. A record lives from the end of its iteration to its fold
 * and is freed there, so at most the reorder window's W records exist
 * at once (one at jobs=1).
 */
struct IterRecord
{
    int iter = 0;
    uint64_t seed = 0;
    runtime::ExecResult exec;
    analysis::DeadlockReport dl;
    /** dl.buggy() or watchdog; races are folded in canonically. */
    bool coreBug = false;
    uint64_t wallMicros = 0;
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
};

/**
 * One worker: a private metrics registry (installed thread-locally for
 * the worker's lifetime, so the scheduler and engine bookkeeping of
 * this thread never touch another worker's instruments) and a private
 * cumulative coverage state (guided-policy food and threshold
 * heuristic).
 */
struct Worker
{
    Worker(const GoatConfig &cfg, int i) : id(i)
    {
        if (cfg.collectCoverage || cfg.coverageGuided)
            localCov = CoverageState(cfg.staticModel);
    }

    const int id;
    obs::Registry registry;
    /** Private stage profiler (installed thread-locally when on). */
    obs::Profiler profiler;
    CoverageState localCov;
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
 * One threaded campaign: the canonical fold and, at jobs > 1, the
 * bounded reorder window between the workers and the folder.
 *
 * Workers publish records into a ring of `width` slots indexed by
 * iteration % width, and the campaign thread folds them in canonical
 * order. A worker starts iteration i only once i <= cursor + width, so
 * the slot of i has been consumed by the time i publishes and at most
 * `width` records exist at once. The hot path makes no syscall: a
 * publisher wakes the folder only on the iteration the folder declared
 * it sleeps for, and the folder wakes blocked workers once per drained
 * batch. No wake is lost: each side stores its own word (a slot's
 * iteration, the cursor) and then loads the other's declaration
 * (wakeAt, workersWaiting), all seq_cst, while a sleeper declares
 * itself and checks its predicate under the mutex the waker takes to
 * notify. At jobs = 1 the worker folds inline and there is no window.
 */
struct Threaded
{
    /** Continue the (possibly restored) fold @p f with @p jobs workers. */
    Threaded(const CampaignConfig &c, const std::function<void()> &p,
             CampaignResult &o, FoldState &&f, int jobs)
        : cfg(c), program(p), out(o), fs(std::move(f)),
          wantRows(!c.engine.ledgerPath.empty() ||
                   !c.checkpointPath.empty() || !c.resumePath.empty()),
          next(fs.cursor + 1), stopAt(c.engine.maxIterations),
          width(jobs > 1 ? kWindowPerWorker * jobs : 0),
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

    void consume(IterRecord &&rec);
    int claim();
    void publish(IterRecord &&rec);
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

/**
 * Count an executed record and fold it in canonical order, freeing it.
 * Overshoot past the canonical cut, or past a hole an interrupted
 * iteration left, is counted and dropped.
 */
void
Threaded::consume(IterRecord &&rec)
{
    const GoatConfig &ecfg = cfg.engine;
    engine::GoatResult &result = out.merged;
    ++fs.executed;
    if (rec.profileDelta)
        out.executedProfile.mergeFrom(*rec.profileDelta);
    if (fs.stopped || rec.iter != fs.cursor + 1)
        return;

    const int i = rec.iter;
    std::unique_ptr<obs::ScopedProfiler> prof_scope;
    if (ecfg.profile) {
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

    // The worker that executed the canonical first detection
    // necessarily captured it as its own first bug.
    if (buggy && !result.bugFound && rec.bugRun) {
        SingleRun &sr = *rec.bugRun;
        engine::finalizeRecipe(sr);
        sr.recipe.kernel = cfg.programName;
        result.report =
            analysis::deadlockReportStr(sr.ect, *sr.tree, sr.dl);
        result.firstBug = std::move(sr.dl);
        result.firstBugExec = std::move(sr.exec);
        result.firstBugEct = std::move(sr.ect);
        result.firstBugRecipe = std::move(sr.recipe);
    }

    obs::LedgerEntry row;
    if (wantRows) {
        row.iteration = i;
        row.seed = rec.seed;
        row.delayBound = ecfg.delayBound;
        row.outcome = runtime::runOutcomeName(rec.exec.outcome);
        row.verdict = analysis::verdictName(rec.dl.verdict);
        row.bug = buggy;
        row.steps = rec.exec.steps;
        row.wallMicros = rec.wallMicros;
        row.worker = rec.worker;
        row.workerSeq = rec.workerSeq;
        if (ecfg.profile) {
            row.hasProfile = true;
            row.profileDelta = *rec.profileDelta;
        }
        if (ecfg.predict)
            row.predicted = predicted;
        row.metricsDelta = std::move(rec.metricsDelta);
    }

    IterationOutcome io;
    io.exec.outcome = rec.exec.outcome;
    io.exec.steps = rec.exec.steps;
    io.dl.verdict = rec.dl.verdict;
    io.wallMicros = rec.wallMicros;
    foldStep(cfg, fs, result, i, std::move(io), buggy, false,
             wantRows ? &row : nullptr, [&](CoverageState &merged) {
                 if (rec.cov)
                     merged.mergeFrom(*rec.cov);
             });

    if (!cfg.checkpointPath.empty() && !fs.stopped &&
        fs.cursor - fs.lastCkpt >= std::max(1, cfg.checkpointEvery))
        writeCheckpoint(cfg, fs, result, out);
}

/**
 * Claim the next iteration and wait until the window has room for it.
 * @return the iteration, or 0 when the worker should exit (budget
 * spent, past the stop watermark, or interrupted).
 */
int
Threaded::claim()
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
Threaded::publish(IterRecord &&rec)
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
 * The folder (jobs > 1, on the campaign thread): drain every ready
 * record in canonical order, wake blocked workers, and sleep until a
 * batch of half the window is ready (or the head, when the batch
 * already is) or the last worker exits. Returns once the fold stops
 * or every worker has exited and the ready prefix is folded.
 */
void
Threaded::foldLoop()
{
    for (;;) {
        const bool last = live.load(std::memory_order_seq_cst) == 0;
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
workerLoop(Threaded &tc, Worker &w)
{
    using std::chrono::steady_clock;

    const GoatConfig &cfg = tc.cfg.engine;
    const bool measure_cov = cfg.collectCoverage || cfg.coverageGuided;

    // Template for the per-iteration coverage states: the static
    // requirement universe, built once and copied per iteration.
    const CoverageState covTemplate =
        measure_cov ? CoverageState(cfg.staticModel) : CoverageState();

    // Bind this thread's metrics to the worker's private registry for
    // the whole loop (covers the scheduler's per-run flush too).
    obs::ScopedRegistry scope(w.registry);
    std::unique_ptr<obs::ScopedProfiler> prof_scope;
    if (cfg.profile)
        prof_scope = std::make_unique<obs::ScopedProfiler>(w.profiler);
    obs::Counter &iterations_total =
        w.registry.counter("engine.iterations");
    obs::Counter &bugs_total = w.registry.counter("engine.bugs_found");
    obs::Histogram &iter_wall = w.registry.histogram(
        "engine.iter_wall_us",
        {100, 1'000, 10'000, 100'000, 1'000'000, 10'000'000});
    obs::Snapshot prev_snap;
    if (tc.wantRows)
        prev_snap = w.registry.snapshot();

    while (int iter = tc.claim()) {
        auto t0 = steady_clock::now();
        SingleRun sr = engine::runCampaignIteration(cfg, tc.program,
                                                    iter, &w.localCov);
        if (sr.exec.interrupted)
            break; // cut short mid-run: drop the partial record

        IterRecord rec;
        rec.iter = iter;
        rec.seed = engine::campaignIterationSeed(cfg.seedBase, iter);
        rec.exec = sr.exec;
        rec.dl = sr.dl;
        rec.coreBug = sr.dl.buggy() ||
                      sr.exec.outcome == RunOutcome::StepBudget;
        rec.worker = w.id;
        rec.workerSeq = ++w.seq;
        iterations_total.inc();

        if (cfg.predict) {
            rec.predictions = analysis::predictBlockingBugs(sr.ect);
            rec.recipe = sr.recipe;
        }

        if (measure_cov) {
            // Fold the trace once, reusing the run's tree; the
            // worker's cumulative state takes the result by union,
            // which equals folding the trace into it directly.
            rec.cov = std::make_unique<CoverageState>(covTemplate);
            rec.cov->addEct(sr.ect, *sr.tree);
            w.localCov.mergeFrom(*rec.cov);
            // The worker's cumulative coverage is a subset of the
            // merged coverage at this iteration, so reaching the
            // threshold locally proves the canonical cutoff is <= iter.
            if (cfg.collectCoverage &&
                w.localCov.percent() >= cfg.covThreshold)
                atomicMin(tc.stopAt, iter);
        }

        if (cfg.raceDetect && !w.raceSeen) {
            rec.races = analysis::detectRaces(sr.ect);
            w.raceSeen = rec.races.any();
        }

        rec.wallMicros = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                steady_clock::now() - t0)
                .count());
        iter_wall.observe(rec.wallMicros);

        if (logEnabled(LogLevel::Debug)) {
            debugLog(strFormat(
                "campaign: worker %d iter %d/%d seed=%llu outcome=%s "
                "verdict=%s wall_us=%llu",
                w.id, iter, cfg.maxIterations,
                static_cast<unsigned long long>(rec.seed),
                runtime::runOutcomeName(rec.exec.outcome),
                analysis::verdictName(rec.dl.verdict),
                static_cast<unsigned long long>(rec.wallMicros)));
        }

        if (tc.wantRows) {
            obs::Snapshot snap = w.registry.snapshot();
            rec.metricsDelta = snap.deltaFrom(prev_snap);
            prev_snap = std::move(snap);
        }

        // Draining per iteration resets the sampling phase, so the
        // delta (and under a deterministic clock, its histogram) is a
        // pure function of the iteration — the canonical fold can
        // fold deltas in iteration order, worker-count independent.
        if (cfg.profile)
            rec.profileDelta =
                std::make_unique<obs::ProfileSnapshot>(w.profiler.drain());

        if ((rec.coreBug || rec.races.any()) && !w.bugSeen) {
            w.bugSeen = true;
            rec.bugRun = std::make_unique<SingleRun>(std::move(sr));
            bugs_total.inc();
            // The minimum over all workers' first-bug broadcasts is
            // exactly the canonical first detection (each worker
            // claims increasing indices, so its first bug is its
            // minimum), so the watermark converges to it.
            if (cfg.stopOnBug)
                atomicMin(tc.stopAt, iter);
        }

        tc.publish(std::move(rec));
    }
}

/**
 * In-process driver: worker threads folding while they run. Records
 * reach the fold in canonical order — inline at jobs=1, through the
 * reorder window at jobs>1 — and the fold replays the sequential
 * engine's loop over them: coverage in iteration order, bug and
 * threshold stop semantics, and a cut exactly where -jobs=1 stops.
 */
CampaignResult
runThreadedCampaign(const CampaignConfig &cfg,
                    const std::function<void()> &program)
{
    auto campaign_t0 = std::chrono::steady_clock::now();
    const GoatConfig &ecfg = cfg.engine;
    CampaignResult out;
    FoldState fs(ecfg);
    if (!beginCampaign(cfg, fs, out))
        return out;
    const int jobs = out.jobs;
    Threaded tc(cfg, program, out, std::move(fs), jobs);
    std::vector<std::unique_ptr<Worker>> workers;
    for (int i = 0; i < jobs; ++i)
        workers.push_back(std::make_unique<Worker>(ecfg, i));
    if (!tc.fs.stopped && tc.fs.cursor < ecfg.maxIterations) {
        if (jobs == 1) {
            workerLoop(tc, *workers[0]);
        } else {
            std::vector<std::thread> threads;
            for (auto &w : workers)
                threads.emplace_back([&tc, &w]() {
                    workerLoop(tc, *w);
                    // The last exit wakes the folder for its final
                    // drain.
                    std::lock_guard<std::mutex> lk(tc.mu);
                    if (tc.live.fetch_sub(1) == 1)
                        tc.folderCv.notify_one();
                });
            tc.foldLoop();
            for (auto &t : threads)
                t.join();
            // Overshoot past the cut and records past an interrupted
            // hole still count as executed.
            for (Slot *s = tc.slots.get(); s < tc.slots.get() + tc.width; ++s)
                if (s->iter.load())
                    tc.consume(std::move(s->rec));
        }
    }
    // The merge stage's scopes (consume installs their profiler only
    // around a fold, so the finalize replays never record into it).
    if (ecfg.profile) {
        obs::ProfileSnapshot merge_delta = tc.mergeProfiler.drain();
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
    parent.gauge("campaign.window_peak").setMax(tc.heldPeak.load());

    finalizeCampaign(cfg, program, out, tc.fs, &tc.recipes, campaign_t0);
    return out;
}

// ------------------------------------------------------------ isolated

/**
 * Isolated driver (-isolate): shards in forked children under the
 * supervisor; the parent folds shard digests in canonical iteration
 * order, so crashes and timeouts become classified ledger rows instead
 * of a dead campaign.
 */
CampaignResult
runIsolatedCampaign(const CampaignConfig &cfg,
                    const std::function<void()> &program)
{
    auto campaign_t0 = std::chrono::steady_clock::now();
    const GoatConfig &ecfg = cfg.engine;
    CampaignResult out;
    engine::GoatResult &result = out.merged;
    FoldState fs(ecfg);
    if (!beginCampaign(cfg, fs, out))
        return out;

    // Digests arrive in shard-completion order; buffer and fold the
    // contiguous iteration prefix so every canonical consumer
    // (coverage, saturation, stop semantics) sees sequential order.
    std::map<int, ShardDigest> pending;

    auto onEvent = [&](ShardEvent &&ev) {
        pending.emplace(ev.iteration, std::move(ev.digest));
        for (auto it = pending.find(fs.cursor + 1);
             !fs.stopped && it != pending.end();
             it = pending.find(fs.cursor + 1)) {
            ShardDigest d = std::move(it->second);
            pending.erase(it);
            obs::LedgerEntry &row = d.row;
            foldStep(cfg, fs, result, row.iteration, ioFromRow(row),
                     row.bug, supervisedLoss(row), &row,
                     [&](CoverageState &merged) {
                         if (!d.covBitmap.empty())
                             merged.restoreBitmap(d.covBitmap);
                     });
        }
        if (!cfg.checkpointPath.empty() &&
            (fs.cursor - fs.lastCkpt >= std::max(1, cfg.checkpointEvery) ||
             fs.stopped))
            writeCheckpoint(cfg, fs, result, out);
    };

    SuperviseOutcome so;
    if (!fs.stopped && fs.cursor < ecfg.maxIterations)
        so = superviseCampaign(cfg, program, fs.cursor + 1, onEvent,
                               [&] { return fs.stopped; });
    fs.executed += so.executed;
    fs.respawns += so.respawns;
    fs.crashes += so.crashes;
    fs.timeouts += so.timeouts;

    out.interrupted = so.interrupted;
    finalizeCampaign(cfg, program, out, fs, nullptr, campaign_t0);
    return out;
}

} // namespace

CampaignResult
runCampaign(const CampaignConfig &cfg,
            const std::function<void()> &program)
{
    if (cfg.isolate)
        return runIsolatedCampaign(cfg, program);
    return runThreadedCampaign(cfg, program);
}

} // namespace goat::campaign
