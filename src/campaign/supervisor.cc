#include "campaign/supervisor.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#include "base/fmt.hh"
#include "base/interrupt.hh"
#include "base/logging.hh"
#include "campaign/checkpoint.hh"
#include "goat/engine.hh"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif

namespace goat::campaign {

namespace {

/** Shard exit code meaning "allocation limit hit" (see mem limit). */
constexpr int kOomExitCode = 77;

/** Frames larger than this mean a corrupt stream, not a real digest. */
constexpr uint32_t kMaxFrameLen = 64u << 20;

using std::chrono::steady_clock;

// ---------------------------------------------------------------- wire

/** write() the whole buffer, riding out EINTR/short writes. */
bool
writeAll(int fd, const void *data, size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/** Store @p v little-endian at @p p (4 bytes). */
void
putLe32(char *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

uint32_t
getLe32(const char *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    return v;
}

/** Send one frame: 4-byte LE payload length, then type + body. */
bool
sendFrame(int fd, char type, const std::string &body)
{
    char hdr[5];
    putLe32(hdr, static_cast<uint32_t>(body.size() + 1));
    hdr[4] = type;
    return writeAll(fd, hdr, 5) &&
           (body.empty() || writeAll(fd, body.data(), body.size()));
}

struct Frame
{
    char type = 0;
    std::string body;
};

/**
 * Pop every complete frame off the front of @p buf.
 * @retval false on a corrupt stream (absurd length); buf is cleared.
 */
bool
parseFrames(std::string &buf, std::vector<Frame> *out)
{
    for (;;) {
        if (buf.size() < 4)
            return true;
        uint32_t len = getLe32(buf.data());
        if (len == 0 || len > kMaxFrameLen) {
            buf.clear();
            return false;
        }
        if (buf.size() < 4 + static_cast<size_t>(len))
            return true;
        Frame f;
        f.type = buf[4];
        f.body.assign(buf, 5, len - 1);
        out->push_back(std::move(f));
        buf.erase(0, 4 + static_cast<size_t>(len));
    }
}

// --------------------------------------------------------------- child

/**
 * Take the parent's control messages until the shard's @p credit
 * admits iteration @p iter: 'C' + a 4-byte LE iteration raises the
 * credit, any other byte is the stop byte. Each message is one atomic
 * pipe write, so reads of whole multiples of 5 bytes never split one.
 * While the window is full the shard waits here, never watchdog-armed.
 * @retval false on stop, EOF (the parent is gone) or an interrupt.
 */
bool
awaitCredit(int ctl, int &credit, int iter)
{
    for (;;) {
        char msg[5 * 64];
        ssize_t n;
        while ((n = ::read(ctl, msg, sizeof msg)) > 0)
            for (ssize_t at = 0; at < n; at += 5) {
                if (msg[at] != 'C' || n - at < 5)
                    return false;
                credit = static_cast<int>(getLe32(msg + at + 1));
            }
        if (n == 0 || (errno != EAGAIN && errno != EINTR) ||
            interruptRequested())
            return false;
        if (iter <= credit)
            return true;
        struct pollfd p = {ctl, POLLIN, 0};
        ::poll(&p, 1, 50);
    }
}

#ifdef __SANITIZE_ADDRESS__
/**
 * AddressSanitizer's death path under -mem-limit: its shadow
 * reservation already exceeds any RLIMIT_AS ceiling, so the runtime
 * dies on its next mapping rather than failing an operator new. A
 * death while no mapping fits is that breach.
 */
void
oomOnSanitizerDeath()
{
    void *p = ::mmap(nullptr, 1 << 16, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        _exit(kOomExitCode);
    ::munmap(p, 1 << 16);
}
#endif

/**
 * The shard body: run the owed iterations ((i - start) % jobs == id)
 * within the granted credit, and ship one 'R' digest per iteration,
 * bracketed by 'B' announcements (the parent's watchdog anchor). Runs
 * post-fork; exits, never returns.
 */
[[noreturn]] void
runShardChild(const CampaignConfig &cfg, const ShardHooks &hooks,
              int shard_id, int start_iter, int stride, int start_wseq,
              int credit, pid_t parent, int wr, int ctl)
{
#ifdef __linux__
    // A shard never outlives its supervisor, even a SIGKILLed one.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent)
        _exit(0);
#endif
    // The parent's pending SIGINT (if any) predates the fork; children
    // get their own flag, set fresh if the process group is signalled.
    clearInterrupt();
    ::signal(SIGPIPE, SIG_IGN);
    // A crash is classified by the signal that ends the shard, so a
    // sanitizer's fatal-signal handler must not turn it into exit 1.
    ::signal(SIGSEGV, SIG_DFL);
    ::signal(SIGBUS, SIG_DFL);
    int fl = ::fcntl(ctl, F_GETFL, 0);
    ::fcntl(ctl, F_SETFL, fl | O_NONBLOCK);

    if (cfg.memLimitMB > 0) {
        struct rlimit rl;
        rl.rlim_cur = rl.rlim_max =
            static_cast<rlim_t>(cfg.memLimitMB) << 20;
        ::setrlimit(RLIMIT_AS, &rl);
        // operator new failing under the limit exits with the OOM
        // marker instead of throwing into arbitrary kernel code.
        std::set_new_handler([] { _exit(kOomExitCode); });
#ifdef __SANITIZE_ADDRESS__
        __sanitizer_set_death_callback(oomOnSanitizerDeath);
#endif
    }

    int wseq = start_wseq;
    for (int iter = start_iter; iter <= cfg.engine.maxIterations;
         iter += stride) {
        if (!awaitCredit(ctl, credit, iter))
            break;
        if (!sendFrame(wr, 'B', strFormat("%d", iter)))
            break;
        ShardDigest d;
        if (!hooks.run(shard_id, iter, wseq++, &d) ||
            !sendFrame(wr, 'R', digestToString(d)))
            break;
    }
    sendFrame(wr, 'D', "");
    _exit(0);
}

// -------------------------------------------------------------- parent

/** Parent-side state of one shard. */
struct ShardProc
{
    int id = 0;
    pid_t pid = -1;
    /** Digest pipe, read end (O_NONBLOCK) / control pipe, write end. */
    int rd = -1;
    int wr = -1;
    /** Partial-frame accumulation buffer. */
    std::string buf;
    /** Iteration announced by the last 'B' frame (0 = none). */
    int inFlight = 0;
    /** Watchdog armed for inFlight. */
    bool armed = false;
    steady_clock::time_point deadline{};
    /** The watchdog killed this incarnation. */
    bool timedOut = false;
    /** Next iteration this shard owes. */
    int nextIter = 0;
    int stride = 1;
    /** wseq the next iteration gets (survives respawns: the ledger
     * validator holds per-worker wseq to be monotone). */
    int nextWseq = 1;
    /** The highest iteration this shard may start (last grant). */
    int credit = 0;
    int respawnsUsed = 0;
    /** Out of respawns: the owed iterations become losses. */
    bool exhausted = false;
    bool done = false;
    /** read() hit EOF on the digest pipe. */
    bool rdEof = false;
};

void
closeShardFds(ShardProc &sp)
{
    for (int *fd : {&sp.rd, &sp.wr}) {
        if (*fd >= 0)
            ::close(*fd);
        *fd = -1;
    }
}

/**
 * Fork one shard continuing at sp.nextIter/sp.nextWseq. The child
 * closes every other shard's pipe ends so each pipe's EOF tracks its
 * own shard's lifetime.
 */
bool
spawnShard(const CampaignConfig &cfg, const ShardHooks &hooks,
           std::vector<ShardProc> &shards, ShardProc &sp)
{
    sp.credit = hooks.credit();
    const pid_t parent = ::getpid();
    int data[2];
    int ctl[2];
    if (::pipe(data) != 0)
        return false;
    if (::pipe(ctl) != 0) {
        ::close(data[0]);
        ::close(data[1]);
        return false;
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {data[0], data[1], ctl[0], ctl[1]})
            ::close(fd);
        return false;
    }
    if (pid == 0) {
        ::close(data[0]);
        ::close(ctl[1]);
        for (ShardProc &other : shards)
            if (other.id != sp.id)
                closeShardFds(other);
        runShardChild(cfg, hooks, sp.id, sp.nextIter, sp.stride,
                      sp.nextWseq, sp.credit, parent, data[1], ctl[0]);
        // not reached
    }
    ::close(data[1]);
    ::close(ctl[0]);
    sp.pid = pid;
    sp.rd = data[0];
    sp.wr = ctl[1];
    int fl = ::fcntl(sp.rd, F_GETFL, 0);
    ::fcntl(sp.rd, F_SETFL, fl | O_NONBLOCK);
    sp.buf.clear();
    sp.inFlight = 0;
    sp.armed = false;
    sp.timedOut = false;
    sp.rdEof = false;
    return true;
}

} // namespace

std::string
classifyExitStatus(int wait_status)
{
    if (WIFSIGNALED(wait_status)) {
        switch (WTERMSIG(wait_status)) {
        case SIGSEGV:
            return "sigsegv";
        case SIGABRT:
            return "sigabrt";
        case SIGBUS:
            return "sigbus";
        case SIGILL:
            return "sigill";
        case SIGFPE:
            return "sigfpe";
        case SIGKILL:
            return "sigkill";
        case SIGTERM:
            return "sigterm";
        default:
            return strFormat("signal_%d", WTERMSIG(wait_status));
        }
    }
    if (WIFEXITED(wait_status)) {
        int code = WEXITSTATUS(wait_status);
        if (code == 0)
            return "";
        if (code == kOomExitCode)
            return "oom";
        return strFormat("exit_%d", code);
    }
    return "unknown";
}

std::string
digestToString(const ShardDigest &d)
{
    std::ostringstream os;
    serializeRow(os, d.row);
    if (!d.covBitmap.empty()) {
        os << "cov_begin\n" << d.covBitmap;
        if (d.covBitmap.back() != '\n')
            os << '\n';
        os << "cov_end\n";
    }
    return os.str();
}

bool
digestFromString(const std::string &text, ShardDigest *out)
{
    *out = ShardDigest{};
    std::vector<std::string> lines = splitLines(text);
    size_t i = 0;
    if (!parseRowLines(lines, &i, &out->row))
        return false;
    if (i < lines.size() && lines[i] == "cov_begin") {
        ++i;
        while (i < lines.size() && lines[i] != "cov_end") {
            out->covBitmap += lines[i];
            out->covBitmap += '\n';
            ++i;
        }
        if (i >= lines.size())
            return false;
    }
    return true;
}

int
superviseCampaign(const CampaignConfig &cfg, int startIteration,
                  const ShardHooks &hooks)
{
    const engine::GoatConfig &ecfg = cfg.engine;
    int respawns = 0;

    // A shard dying mid-write must not take the supervisor with it.
    using SigHandler = void (*)(int);
    SigHandler old_pipe = ::signal(SIGPIPE, SIG_IGN);

    const int jobs = std::clamp(
        cfg.jobs, 1, std::max(1, ecfg.maxIterations - startIteration + 1));
    std::vector<ShardProc> shards(static_cast<size_t>(jobs));
    for (int c = 0; c < jobs; ++c) {
        ShardProc &sp = shards[static_cast<size_t>(c)];
        sp.id = c;
        sp.stride = jobs;
        sp.nextIter = startIteration + c;
        if (!spawnShard(cfg, hooks, shards, sp)) {
            warn("cannot fork campaign shard");
            sp.done = true;
        }
    }

    bool draining = false;
    auto broadcastStop = [&] {
        if (draining)
            return;
        draining = true;
        char stop = 's';
        for (ShardProc &sp : shards)
            if (!sp.done && sp.wr >= 0)
                writeAll(sp.wr, &stop, 1);
    };

    // Fold the synthesized row of a crashed/timed-out iteration.
    auto emitLoss = [&](ShardProc &sp, int iter, bool timeout,
                        const std::string &cause) {
        ShardDigest d;
        obs::LedgerEntry &e = d.row;
        e.iteration = iter;
        e.seed = engine::campaignIterationSeed(ecfg.seedBase, iter);
        e.delayBound = ecfg.delayBound;
        e.outcome = timeout ? "timeout" : "crashed";
        e.verdict = timeout ? "timeout" : "crash";
        e.bug = true;
        e.worker = sp.id;
        e.workerSeq = sp.nextWseq;
        if (!timeout)
            e.crashCause = cause;
        e.respawns = sp.respawnsUsed;
        sp.nextIter = iter + sp.stride;
        ++sp.nextWseq;
        hooks.fold(std::move(d));
    };

    // An exhausted shard's owed iterations become losses as the window
    // makes room for them.
    auto oweLosses = [&](ShardProc &sp) {
        while (!draining && !hooks.stopped() &&
               sp.nextIter <= std::min(ecfg.maxIterations, hooks.credit()))
            emitLoss(sp, sp.nextIter, false, "respawn_budget");
        if (draining || hooks.stopped() || sp.nextIter > ecfg.maxIterations)
            sp.done = true;
    };

    // A shard about to run its last granted iteration gets the window's
    // current edge, so only a full window makes it wait.
    auto grant = [&](ShardProc &sp) {
        const int credit = hooks.credit();
        if (credit <= sp.credit || sp.nextIter + sp.stride <= sp.credit)
            return;
        char msg[5] = {'C'};
        putLe32(msg + 1, static_cast<uint32_t>(credit));
        if (writeAll(sp.wr, msg, sizeof msg))
            sp.credit = credit;
    };

    auto handleFrame = [&](ShardProc &sp, const Frame &f) {
        switch (f.type) {
        case 'B': {
            sp.inFlight = std::atoi(f.body.c_str());
            if (cfg.iterTimeoutSecs > 0) {
                sp.armed = true;
                sp.deadline = steady_clock::now() +
                              std::chrono::seconds(cfg.iterTimeoutSecs);
            }
            break;
        }
        case 'R': {
            ShardDigest d;
            if (!digestFromString(f.body, &d)) {
                warn(strFormat("shard %d sent a malformed digest",
                               sp.id));
                break;
            }
            sp.nextIter = d.row.iteration + sp.stride;
            sp.nextWseq = d.row.workerSeq + 1;
            hooks.fold(std::move(d));
            [[fallthrough]];
        }
        case 'D':
            sp.inFlight = 0;
            sp.armed = false;
            break;
        default:
            warn(strFormat("shard %d sent unknown frame type %d",
                           sp.id, f.type));
        }
    };

    auto pumpShard = [&](ShardProc &sp) {
        if (sp.rd < 0 || sp.rdEof)
            return;
        char buf[1 << 16];
        ssize_t n;
        while ((n = ::read(sp.rd, buf, sizeof buf)) != 0) {
            if (n > 0)
                sp.buf.append(buf, static_cast<size_t>(n));
            else if (errno != EINTR)
                break; // EAGAIN or an error: parsed below
        }
        sp.rdEof = n == 0;
        std::vector<Frame> frames;
        if (!parseFrames(sp.buf, &frames))
            warn(strFormat("shard %d digest stream corrupt", sp.id));
        for (const Frame &f : frames)
            handleFrame(sp, f);
    };

    while (std::any_of(shards.begin(), shards.end(),
                       [](const ShardProc &sp) { return !sp.done; })) {
        if (hooks.stopped() || interruptRequested())
            broadcastStop();
        for (ShardProc &sp : shards)
            if (sp.exhausted && !sp.done)
                oweLosses(sp);
        for (ShardProc &sp : shards)
            if (!sp.done && !draining && sp.wr >= 0)
                grant(sp);

        // Poll timeout: the nearest watchdog deadline, else a coarse
        // tick (also the reap/interrupt poll cadence).
        int64_t timeout_ms = 200;
        auto now = steady_clock::now();
        for (const ShardProc &sp : shards)
            if (!sp.done && sp.armed)
                timeout_ms = std::clamp<int64_t>(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        sp.deadline - now)
                        .count(),
                    0, timeout_ms);

        // A closed pipe polls as -1, which poll(2) skips; with none
        // left it just sleeps out the tick.
        std::vector<struct pollfd> pfds;
        for (const ShardProc &sp : shards)
            pfds.push_back({sp.rdEof ? -1 : sp.rd, POLLIN, 0});
        if (::poll(pfds.data(), pfds.size(), static_cast<int>(timeout_ms)) > 0)
            for (size_t i = 0; i < pfds.size(); ++i)
                if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
                    pumpShard(shards[i]);

        // Watchdogs: a shard past its per-iteration deadline is gone
        // as far as the campaign is concerned — SIGKILL it and let the
        // reap sweep below classify the loss.
        now = steady_clock::now();
        for (ShardProc &sp : shards) {
            if (!sp.done && sp.armed && sp.pid >= 0 && now >= sp.deadline) {
                sp.timedOut = true;
                sp.armed = false;
                ::kill(sp.pid, SIGKILL);
            }
        }

        // Reap sweep.
        for (ShardProc &sp : shards) {
            if (sp.done || sp.pid < 0)
                continue;
            int st = 0;
            pid_t r = ::waitpid(sp.pid, &st, WNOHANG);
            if (r != sp.pid)
                continue;
            sp.pid = -1;
            // Everything the child managed to write is still in the
            // pipe; a final 'R' there resolves the "in-flight"
            // iteration as a result, not a loss.
            pumpShard(sp);
            closeShardFds(sp);

            std::string cause = classifyExitStatus(st);
            const bool clean_finish = cause.empty() && sp.inFlight == 0;
            if (clean_finish) {
                sp.done = true;
                continue;
            }
            if (cause.empty())
                cause = "early_exit";

            if (sp.inFlight > 0) {
                emitLoss(sp, sp.inFlight, sp.timedOut,
                         sp.timedOut ? "watchdog" : cause);
                sp.inFlight = 0;
            }

            if (draining || sp.nextIter > ecfg.maxIterations) {
                sp.done = true;
                continue;
            }

            // Respawn (bounded): the shard continues at the next owed
            // iteration with a fresh process.
            ++sp.respawnsUsed;
            ++respawns;
            if (cfg.progress)
                cfg.progress->respawns.fetch_add(
                    1, std::memory_order_relaxed);
            if (sp.respawnsUsed > cfg.maxRespawns) {
                warn(strFormat(
                    "shard %d exhausted its respawn budget (%d); "
                    "recording its remaining iterations as crashes",
                    sp.id, cfg.maxRespawns));
                sp.exhausted = true;
                oweLosses(sp);
                continue;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(
                50LL << std::min(sp.respawnsUsed - 1, 5)));
            if (logEnabled(LogLevel::Debug))
                debugLog(strFormat(
                    "supervisor: respawning shard %d at iteration %d "
                    "(respawn %d, cause %s)",
                    sp.id, sp.nextIter, sp.respawnsUsed,
                    cause.c_str()));
            if (!spawnShard(cfg, hooks, shards, sp)) {
                warn("cannot respawn campaign shard");
                sp.exhausted = true;
                oweLosses(sp);
            }
        }
    }

    for (ShardProc &sp : shards)
        closeShardFds(sp);
    ::signal(SIGPIPE, old_pipe);
    return respawns;
}

} // namespace goat::campaign
