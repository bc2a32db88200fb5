/**
 * @file
 * The shard transport of the campaign driver (-isolate): run the
 * iterations in forked child processes under a parent supervisor, so
 * an iteration that segfaults, aborts, runs away on memory, or
 * livelocks takes down only its shard — the supervisor classifies the
 * loss, records it as a crash/timeout ledger row with a replayable
 * seeded-policy recipe, respawns the shard, and the campaign
 * continues. Each shard runs the driver's per-iteration body; each
 * digest enters the driver's reorder window and fold (campaign.cc).
 *
 * Topology: jobs shards; shard c owns the iterations with
 * (i - start) % jobs == c, a static partition the parent can account
 * for alone when a shard dies.
 *
 * Wire protocol (child → parent, one pipe per shard): length-prefixed
 * frames — a 4-byte little-endian payload length, then the payload,
 * whose first byte is the frame type:
 *
 *   'B' <iter>     about to run iteration <iter> (arms the watchdog)
 *   'R' <digest>   iteration finished; serialized ShardDigest
 *   'D'            shard done (graceful exit follows)
 *
 * Parent → child is a control pipe. 'C' and a 4-byte little-endian
 * iteration is credit: the shard may start iterations up to it, and
 * waits (unarmed) before the 'B' of any later one, so the window's
 * W = kWindowPerWorker × jobs bounds shards as it bounds threads. Any
 * other byte means "stop after the current iteration" (the early-stop
 * broadcast and the SIGINT/SIGTERM drain); EOF means the parent is
 * gone, and a shard dies with its supervisor.
 *
 * Failure handling:
 *  - abnormal child exit → classifyExitStatus() names the cause
 *    ("sigsegv", "sigabrt", "oom", "exit_N", …); the in-flight
 *    iteration (known from its 'B' frame) becomes a crash row;
 *  - -iter-timeout=N → a shard past its per-iteration deadline is
 *    SIGKILLed and the iteration becomes a timeout row;
 *  - -mem-limit=M → the child runs under RLIMIT_AS with a
 *    std::set_new_handler that exits 77, classified "oom";
 *  - each loss respawns the shard (fresh fork continuing at the next
 *    owed iteration, with the current credit) with exponential
 *    backoff, up to -max-respawns; an exhausted budget degrades
 *    gracefully — the shard's remaining iterations are recorded as
 *    "respawn_budget" crashes as the window reaches them, and the
 *    campaign completes with what it has.
 */

#ifndef GOAT_CAMPAIGN_SUPERVISOR_HH
#define GOAT_CAMPAIGN_SUPERVISOR_HH

#include <functional>
#include <string>

#include "campaign/campaign.hh"
#include "obs/ledger.hh"

namespace goat::campaign {

/**
 * Classify a waitpid() status: "" for a clean exit 0, otherwise the
 * crash-cause token recorded on the ledger row ("sigsegv", "sigabrt",
 * "sigbus", "sigill", "sigfpe", "sigkill", "sigterm", "signal_N",
 * "oom" for exit 77, "exit_N" for other nonzero exits).
 */
std::string classifyExitStatus(int wait_status);

/**
 * One iteration's result as shipped over the shard pipe: the ledger
 * row (metrics rendered to JSON) plus the iteration's private
 * coverage bitmap, which the parent folds into the canonical merged
 * state (the shard cannot know cumulative canonical coverage).
 */
struct ShardDigest
{
    obs::LedgerEntry row;
    std::string covBitmap;
};

std::string digestToString(const ShardDigest &d);
bool digestFromString(const std::string &text, ShardDigest *out);

/**
 * The campaign's side of the shard transport (campaign.cc): the
 * per-iteration body a shard runs, and the window its records enter.
 */
struct ShardHooks
{
    /**
     * In the shard, post-fork: run iteration @p iter as shard @p shard's
     * @p wseq-th iteration and fill @p out. False means the shard stops
     * instead (an interrupt, or the fold cannot need the iteration).
     */
    std::function<bool(int shard, int iter, int wseq, ShardDigest *out)>
        run;
    /** In the parent: fold one digest, a result or a synthesized loss. */
    std::function<void(ShardDigest &&)> fold;
    /** The highest iteration a shard may start: cursor + W. */
    std::function<int()> credit;
    /** The fold reached its canonical stop: drain the shards. */
    std::function<bool()> stopped;
};

/**
 * Fork cfg.jobs shards (at most one per iteration left) covering
 * iterations startIteration..engine.maxIterations, grant them credit
 * as the fold advances, and pump their pipes until every shard is done
 * or drained. Must be called from a thread that may fork (the campaign
 * thread; no live Scheduler) and that outlives the shards.
 * @return the respawns performed.
 */
int superviseCampaign(const CampaignConfig &cfg, int startIteration,
                      const ShardHooks &hooks);

} // namespace goat::campaign

#endif // GOAT_CAMPAIGN_SUPERVISOR_HH
