/**
 * @file
 * Small programs for the race tests and the happens-before
 * golden (tests/golden/hb_goker.txt). The golden records source
 * locations inside this file, so edit it only together with the golden.
 */

#ifndef GOAT_TESTS_RACE_PROGRAMS_HH
#define GOAT_TESTS_RACE_PROGRAMS_HH

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "chan/chan.hh"
#include "runtime/api.hh"
#include "sync/sharedvar.hh"
#include "sync/sync.hh"

namespace goat::test::race {

/** Two goroutines each write once, unsynchronized. */
inline void
writeWrite()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    go([v] { v->store(1); });
    go([v] { v->store(2); });
    for (int i = 0; i < 4; ++i)
        yield();
}

/** One unsynchronized write against one read. */
inline void
readWrite()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    go([v] { v->store(1); });
    go([v] { (void)v->load(); });
    for (int i = 0; i < 4; ++i)
        yield();
}

/** Two unsynchronized reads: not a race. */
inline void
readRead()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    go([v] { (void)v->load(); });
    go([v] { (void)v->load(); });
    for (int i = 0; i < 4; ++i)
        yield();
}

/** Every access from one goroutine. */
inline void
sameGoroutine()
{
    gosync::SharedVar<int> v(0);
    v.store(1);
    (void)v.load();
    v.store(2);
}

/** Read-modify-writes inside one mutex. */
inline void
mutexProtected()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    auto m = std::make_shared<gosync::Mutex>();
    for (int i = 0; i < 2; ++i) {
        go([v, m] {
            m->lock();
            v->store(v->load() + 1);
            m->unlock();
        });
    }
    for (int i = 0; i < 6; ++i)
        yield();
}

/** A write before the spawn of the reading goroutine. */
inline void
goCreateOrders()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    v->store(1); // before spawn: ordered
    go([v] { (void)v->load(); });
    yield();
}

/** A write published through a rendezvous send. */
inline void
rendezvousOrders()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    auto c = std::make_shared<Chan<int>>(0);
    go([v, c] {
        v->store(42);
        c->send(1);
    });
    c->recv();
    (void)v->load(); // ordered after the send's write
    yield();
}

/** A write published through a buffered deposit nobody waits for. */
inline void
bufferedOrders()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    auto c = std::make_shared<Chan<int>>(4);
    go([v, c] {
        v->store(7);
        c->send(1); // pure deposit: nobody parked
    });
    yield();
    c->recv();
    (void)v->load();
    yield();
}

/**
 * A write published through a close; the receiver drains the closed
 * channel. Returns whether the drain saw a value.
 */
inline bool
closeOrders()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    auto c = std::make_shared<Chan<int>>(0);
    go([v, c] {
        v->store(3);
        c->close();
    });
    yield();
    auto [val, ok] = c->recvOk();
    (void)val;
    (void)v->load();
    yield();
    return ok;
}

/** A worker's write published through WaitGroup Done → Wait. */
inline void
waitGroupOrders()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    auto wg = std::make_shared<gosync::WaitGroup>();
    wg->add(2);
    for (int i = 0; i < 2; ++i) {
        go([v, wg, i] {
            if (i == 0)
                v->store(5);
            wg->done();
        });
    }
    wg->wait();
    (void)v->load();
    yield();
}

/** The lost-update pattern: two unsynchronized read-modify-writes. */
inline void
racyIncrement()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    go([v] { v->update([](int x) { return x + 1; }); });
    go([v] { v->update([](int x) { return x + 1; }); });
    for (int i = 0; i < 4; ++i)
        yield();
}

/** Four goroutines write from one line: one location pair. */
inline void
sameLineWriters()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    for (int i = 0; i < 4; ++i)
        go([v] { v->store(1); }); // all from the same line
    for (int i = 0; i < 6; ++i)
        yield();
}

/**
 * Two goroutines write three times each from two lines, yielding in
 * between, so the trace meets the location pair in both orders.
 */
inline void
interleavedWriters()
{
    auto v = std::make_shared<gosync::SharedVar<int>>(0);
    go([v] {
        for (int i = 0; i < 3; ++i) {
            v->store(1);
            yield();
        }
    });
    go([v] {
        for (int i = 0; i < 3; ++i) {
            v->store(2);
            yield();
        }
    });
    for (int i = 0; i < 8; ++i)
        yield();
}

/**
 * A send and a close on one buffered channel, each under one mutex
 * and guarded by a flag: no run panics, but only the mutex orders
 * them, so the must relation leaves them unordered.
 */
inline void
lockedSendAndClose()
{
    auto c = std::make_shared<Chan<int>>(1);
    auto m = std::make_shared<gosync::Mutex>();
    auto closed = std::make_shared<bool>(false);
    go([c, m, closed] {
        m->lock();
        if (!*closed)
            c->send(1);
        m->unlock();
    });
    go([c, m, closed] {
        m->lock();
        *closed = true;
        c->close();
        m->unlock();
    });
    for (int i = 0; i < 6; ++i)
        yield();
}

/** Every program above, by name, in golden order. */
inline std::vector<std::pair<const char *, std::function<void()>>>
allPrograms()
{
    return {
        {"write_write", writeWrite},
        {"read_write", readWrite},
        {"read_read", readRead},
        {"same_goroutine", sameGoroutine},
        {"mutex_protected", mutexProtected},
        {"go_create_orders", goCreateOrders},
        {"rendezvous_orders", rendezvousOrders},
        {"buffered_orders", bufferedOrders},
        {"close_orders", [] { (void)closeOrders(); }},
        {"wait_group_orders", waitGroupOrders},
        {"racy_increment", racyIncrement},
        {"same_line_writers", sameLineWriters},
        {"interleaved_writers", interleavedWriters},
        {"locked_send_and_close", lockedSendAndClose},
    };
}

} // namespace goat::test::race

#endif // GOAT_TESTS_RACE_PROGRAMS_HH
