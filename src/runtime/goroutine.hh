/**
 * @file
 * Goroutine representation: an application-level thread of execution
 * multiplexed by the cooperative Scheduler onto the host thread.
 */

#ifndef GOAT_RUNTIME_GOROUTINE_HH
#define GOAT_RUNTIME_GOROUTINE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "base/source_loc.hh"
#include "runtime/context.hh"

namespace goat::runtime {

/** Lifecycle states of a goroutine. */
enum class GoStatus : uint8_t
{
    New,        ///< Created, never dispatched.
    Runnable,   ///< In the run queue.
    Running,    ///< Currently executing.
    Blocked,    ///< Parked on a primitive (see BlockReason).
    Dead,       ///< Finished (reached end state or panicked).
};

/** Why a goroutine is parked. */
enum class BlockReason : uint8_t
{
    None,
    Send,       ///< Channel send with no ready receiver / full buffer.
    Recv,       ///< Channel receive with no ready sender / empty buffer.
    Select,     ///< Select with no ready case and no default.
    Mutex,      ///< Mutex (or rwmutex writer) lock.
    RWMutex,    ///< RWMutex reader lock.
    WaitGroup,  ///< WaitGroup wait.
    Cond,       ///< Conditional-variable wait.
    Sleep,      ///< Virtual-clock sleep / timer.
};

const char *goStatusName(GoStatus s);
const char *blockReasonName(BlockReason r);

class Scheduler;

/**
 * One goroutine: body closure, fiber context + stack, scheduling state,
 * and creation metadata used by the offline goroutine-tree analysis.
 */
class Goroutine
{
  public:
    Goroutine(uint32_t id, uint32_t parent_id, std::function<void()> fn,
              SourceLoc creation_loc, bool system, std::string name)
        : id_(id), parentId_(parent_id), fn_(std::move(fn)),
          creationLoc_(creation_loc), system_(system), name_(std::move(name))
    {}

    uint32_t id() const { return id_; }
    uint32_t parentId() const { return parentId_; }
    const SourceLoc &creationLoc() const { return creationLoc_; }

    /** True for runtime-internal goroutines (watchdog, tracer). */
    bool system() const { return system_; }

    const std::string &name() const { return name_; }

    /** Run the body closure (called once, from the fiber trampoline). */
    void runBody() { fn_(); }

    /** Drop the body closure (frees captured state once dead). */
    void dropBody() { fn_ = nullptr; }

    // Scheduling state, managed by the Scheduler and the primitives.
    GoStatus status = GoStatus::New;
    BlockReason blockReason = BlockReason::None;
    uint64_t blockObj = 0;   ///< Object id the goroutine is parked on.
    SourceLoc blockLoc;      ///< CU where the goroutine parked.
    bool started = false;    ///< Dispatched at least once.
    bool panicked = false;   ///< Terminated by a Go panic.

    // Fiber machinery (owned by the Scheduler).
    FiberContext ctx;
    FiberStack stack;

    /**
     * Intrusive link for GoroutineQueue (sync-primitive wait queues).
     * A goroutine parks on at most one primitive at a time, so a single
     * link suffices — as in the Go runtime.
     */
    Goroutine *waitNext = nullptr;

  private:
    uint32_t id_;
    uint32_t parentId_;
    std::function<void()> fn_;
    SourceLoc creationLoc_;
    bool system_;
    std::string name_;
};

/**
 * Intrusive FIFO wait queue for sync primitives (Mutex, RWMutex,
 * WaitGroup, Cond, Once), threaded through Goroutine::waitNext.
 * Allocation-free: parking and waking touch only the goroutine records
 * themselves. Drop-in for the deque<Goroutine*> surface the primitives
 * use: push_back / front / pop_front / empty.
 */
class GoroutineQueue
{
  public:
    bool empty() const { return head_ == nullptr; }

    Goroutine *front() const { return head_; }

    void
    push_back(Goroutine *g)
    {
        g->waitNext = nullptr;
        if (tail_)
            tail_->waitNext = g;
        else
            head_ = g;
        tail_ = g;
    }

    void
    pop_front()
    {
        Goroutine *g = head_;
        head_ = g->waitNext;
        if (!head_)
            tail_ = nullptr;
        g->waitNext = nullptr;
    }

  private:
    Goroutine *head_ = nullptr;
    Goroutine *tail_ = nullptr;
};

} // namespace goat::runtime

#endif // GOAT_RUNTIME_GOROUTINE_HH
