/**
 * @file
 * Happens-before analysis over ECTs: the one forward vector-clock pass
 * that both the offline data-race detector (the GoAT-CPP counterpart
 * of the paper artifact's `-race` flag, Go's dynamic race detector)
 * and the predictive tier (hb_predict.hh, `-predict`) run, each with
 * its own edge set.
 *
 * A vector clock is maintained per goroutine and advanced across the
 * trace's synchronization edges:
 *
 *  - goroutine creation: the child starts with the parent's clock;
 *  - wake-ups: a GoUnblock(waker → target) joins the waker's clock
 *    into the target (this exactly covers rendezvous channels, lock
 *    hand-offs, WaitGroup releases, cond signals — every park/unpark);
 *  - buffered channels: each delivered value carries the sender's
 *    clock FIFO; the receiver joins it (covers transfers that park
 *    nobody);
 *  - channel close: receivers observing the close join the closer;
 *  - mutex / rwmutex: a lock joins the previous unlock of the same
 *    object (covers uncontended critical-section ordering);
 *  - WaitGroup: a wait joins every earlier Done of the group.
 *
 * The *observed* edge set keeps all of them (the order that actually
 * happened); the *must* edge set keeps only the edges every feasible
 * schedule respects and drops mutex unlock→lock and mutex/WaitGroup
 * hand-off wake-ups (docs/ANALYSIS.md §2–§3).
 *
 * Two VarRead/VarWrite accesses to the same variable race iff they
 * come from different goroutines, at least one is a write, and their
 * observed clocks are incomparable.
 */

#ifndef GOAT_ANALYSIS_HAPPENS_BEFORE_HH
#define GOAT_ANALYSIS_HAPPENS_BEFORE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/ect.hh"

namespace goat::analysis {

/**
 * Dense vector clock: one component per gid. The scheduler numbers
 * goroutines densely (1..n; gid 0 is the scheduler context), so a
 * clock is a short array. A component of 0 means "never ticked".
 */
class VectorClock
{
  public:
    /** Advance this goroutine's own component. */
    void
    tick(uint32_t gid)
    {
        if (gid >= clock_.size())
            clock_.resize(gid + 1);
        ++clock_[gid];
    }

    /** Component-wise maximum with @p other. */
    void join(const VectorClock &other);

    /**
     * True when this clock happens-before-or-equals @p other
     * (component-wise ≤).
     */
    bool le(const VectorClock &other) const;

    /** True when neither clock orders the other. */
    static bool
    concurrent(const VectorClock &a, const VectorClock &b)
    {
        return !a.le(b) && !b.le(a);
    }

    /** "{g0:2,g1:4,g3:5}": nonzero components in gid order. */
    std::string str() const;

  private:
    std::vector<uint64_t> clock_;
};

/** Edge set of a happens-before pass. */
enum class HbEdges : uint8_t
{
    Observed, ///< Every edge the schedule established (-race).
    Must,     ///< Only the edges every feasible schedule respects.
};

/** One arm of a select statement, as its SelectCase announced it. */
struct SelectArm
{
    int64_t chan = -1;
    bool send = false;
};

/**
 * The forward happens-before pass shared by detectRaces() and
 * predictBlockingBugs(). It owns the per-goroutine clocks and all edge
 * state (channel FIFO queues, close clocks, select contexts, release
 * clocks, the last park of every goroutine).
 */
class HbPass
{
  public:
    explicit HbPass(HbEdges edges) : edges_(edges) {}

    /**
     * Visit every event of @p ect in trace order. @p visit(ev, pre)
     * receives the acting goroutine's clock after its tick and before
     * the joins @p ev itself causes.
     */
    template <typename Visit>
    void
    run(const trace::Ect &ect, Visit &&visit)
    {
        for (const trace::Event &ev : ect.events()) {
            visit(ev, static_cast<const VectorClock &>(tick(ev)));
            join(ev);
        }
    }

    /**
     * The arm whose transfer the poll phase of a select performed, for
     * the SelectEnd being visited; null for the default and park
     * paths (a park is covered by its GoUnblock).
     */
    const SelectArm *polledArm(const trace::Event &select_end) const;

  private:
    /** Per-goroutine state, indexed by gid. */
    struct GoState
    {
        VectorClock vc;
        /** Type of the goroutine's most recent GoBlock* event. */
        trace::EventType lastBlock = trace::EventType::NumEventTypes;
        /** Between SelectBegin and SelectEnd. */
        bool inSelect = false;
        std::vector<SelectArm> arms;
    };

    VectorClock &tick(const trace::Event &ev);
    void join(const trace::Event &ev);

    HbEdges edges_;
    std::vector<GoState> go_;
    std::unordered_map<int64_t, std::deque<VectorClock>> chanQueue_;
    std::unordered_map<int64_t, VectorClock> closeVc_;
    /** Unlocks (observed edges only) and WaitGroup Dones per object. */
    std::unordered_map<int64_t, VectorClock> release_;
};

/**
 * One detected race: an unordered conflicting access pair.
 */
struct Race
{
    uint64_t varId = 0;
    uint32_t gidA = 0, gidB = 0;
    SourceLoc locA, locB;
    bool writeA = false, writeB = false;

    std::string str() const;
};

/**
 * Result of the offline race detection pass.
 */
struct RaceReport
{
    /** Distinct races (deduplicated by variable + location pair). */
    std::vector<Race> races;

    bool any() const { return !races.empty(); }

    std::string str() const;
};

/**
 * Run happens-before race detection over a trace.
 */
RaceReport detectRaces(const trace::Ect &ect);

} // namespace goat::analysis

#endif // GOAT_ANALYSIS_HAPPENS_BEFORE_HH
