/**
 * @file
 * Unit tests for the coverage-requirement engine: per-kind requirement
 * templates, covered/uncovered classification for every Req1–Req5
 * behaviour, select-case discovery, NB-select handling, per-node
 * instantiation with cross-run merging, and the coverage-percentage
 * dynamics (growth and drop-on-discovery).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "analysis/coverage.hh"
#include "analysis/goroutine_tree.hh"
#include "base/fmt.hh"
#include "chan/chan.hh"
#include "chan/select.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "obs/metrics.hh"
#include "staticmodel/scanner.hh"
#include "sync/sync.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::analysis;
using namespace goat::staticmodel;
using goat::test::runProgram;

namespace {

/** Shorthand: run a program and fold the trace into a fresh state. */
CoverageState
coverOne(std::function<void()> fn, uint64_t seed = 1)
{
    CoverageState cov;
    auto rr = runProgram(std::move(fn), seed);
    cov.addEct(rr.ect);
    return cov;
}

/**
 * The golden fold of one GoBench kernel: seed 1, -d=2, 50 iterations,
 * each folded into a copy of the static template and merged in order.
 * Appends each iteration's standalone state to @p per_iter when given.
 */
CoverageState
foldKernel(const goker::KernelInfo &k,
           std::vector<CoverageState> *per_iter = nullptr)
{
    engine::GoatConfig cfg;
    cfg.seedBase = 1;
    cfg.delayBound = 2;
    cfg.staticModel = goker::kernelCuTable(k);
    const CoverageState tmpl(cfg.staticModel);
    CoverageState merged(cfg.staticModel);
    for (int i = 1; i <= 50; ++i) {
        engine::SingleRun sr =
            engine::runCampaignIteration(cfg, k.fn, i, nullptr);
        CoverageState c(tmpl);
        c.addEct(sr.ect, *sr.tree);
        merged.mergeFrom(c);
        if (per_iter)
            per_iter->push_back(std::move(c));
    }
    return merged;
}

/** Every edge rendering of a folded state, as the golden file holds. */
std::string
dumpState(const std::string &name, const CoverageState &cov)
{
    std::string out = "== " + name + "\n";
    out += strFormat(
        "types blocked=%zu unblocking=%zu nop=%zu blocking=%zu\n",
        cov.coveredCountOfType(ReqType::Blocked),
        cov.coveredCountOfType(ReqType::Unblocking),
        cov.coveredCountOfType(ReqType::Nop),
        cov.coveredCountOfType(ReqType::Blocking));
    out += "-- bitmap\n" + cov.bitmapStr();
    out += "-- table\n" + cov.tableStr();
    out += "-- uncovered\n";
    for (const std::string &k : cov.uncovered())
        out += k + "\n";
    return out;
}

std::string
readGolden(const char *path)
{
    std::string s;
    if (FILE *f = std::fopen(path, "rb")) {
        char buf[65536];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            s.append(buf, n);
        std::fclose(f);
    }
    return s;
}

} // namespace

TEST(CoverageKeys, KeySyntax)
{
    Cu cu(SourceLoc("k.cc", 12), CuKind::Send);
    EXPECT_EQ(CoverageState::key(cu, ReqType::Blocked), "k.cc:12 send blocked");
    Cu sel(SourceLoc("k.cc", 30), CuKind::Select);
    EXPECT_EQ(CoverageState::key(sel, ReqType::Nop, 2),
              "k.cc:30 select/case2 nop");
}

TEST(Coverage, StaticModelSeedsRequirements)
{
    CuTable t;
    t.add(Cu(SourceLoc("p.cc", 1), CuKind::Send));
    t.add(Cu(SourceLoc("p.cc", 2), CuKind::Lock));
    t.add(Cu(SourceLoc("p.cc", 3), CuKind::Go));
    CoverageState cov(t);
    // send: 3 reqs, lock: 2 reqs, go: 1 req.
    EXPECT_EQ(cov.totalRequirements(), 6u);
    EXPECT_EQ(cov.coveredCount(), 0u);
    EXPECT_EQ(cov.percent(), 0.0);
}

TEST(Coverage, EmptyUniverseIsFullyCovered)
{
    CoverageState cov;
    EXPECT_EQ(cov.percent(), 100.0);
}

TEST(Coverage, SendRecvBehaviours)
{
    auto cov = coverOne([] {
        Chan<int> c(1);
        c.send(1); // buffered: NOP
        go([c]() mutable {
            c.send(2); // buffer full: blocked
        });
        yield();
        c.recv(); // frees the slot: unblocking
    });
    bool nop = false, blocked = false, unblocking = false;
    for (const auto &k : cov.uncovered())
        (void)k;
    // Scan covered keys via isCovered on the table CUs.
    for (const auto &cu : cov.cus()) {
        if (cu.kind == CuKind::Send) {
            nop |= cov.isCovered(CoverageState::key(cu, ReqType::Nop));
            blocked |=
                cov.isCovered(CoverageState::key(cu, ReqType::Blocked));
        }
        if (cu.kind == CuKind::Recv) {
            unblocking |=
                cov.isCovered(CoverageState::key(cu, ReqType::Unblocking));
        }
    }
    EXPECT_TRUE(nop);
    EXPECT_TRUE(blocked);
    EXPECT_TRUE(unblocking);
}

TEST(Coverage, BlockedCoveredEvenWhenGoroutineLeaks)
{
    // The paper's Table III: the leak run covers "send-blocked" even
    // though the sender never completes.
    auto cov = coverOne([] {
        Chan<int> c;
        go([c]() mutable { c.send(1); }); // leaks parked
        yield();
    });
    bool send_blocked = false;
    for (const auto &cu : cov.cus())
        if (cu.kind == CuKind::Send)
            send_blocked |=
                cov.isCovered(CoverageState::key(cu, ReqType::Blocked));
    EXPECT_TRUE(send_blocked);
}

TEST(Coverage, LockBlockedAndBlocking)
{
    auto cov = coverOne([] {
        gosync::Mutex m;
        m.lock();
        go([&] {
            m.lock(); // blocked; marks main's acquisition as blocking
            m.unlock();
        });
        yield();
        m.unlock();
        yield();
    });
    bool blocked = false, blocking = false;
    for (const auto &cu : cov.cus()) {
        if (cu.kind != CuKind::Lock)
            continue;
        blocked |= cov.isCovered(CoverageState::key(cu, ReqType::Blocked));
        blocking |=
            cov.isCovered(CoverageState::key(cu, ReqType::Blocking));
    }
    EXPECT_TRUE(blocked);
    EXPECT_TRUE(blocking);
}

TEST(Coverage, UnlockUnblockingAndNop)
{
    auto cov = coverOne([] {
        gosync::Mutex m;
        m.lock();
        m.unlock(); // NOP: nobody waiting
        m.lock();
        go([&] {
            m.lock();
            m.unlock();
        });
        yield();
        m.unlock(); // unblocking: wakes the child
        yield();
        yield();
    });
    int unlock_covered = 0;
    for (const auto &cu : cov.cus()) {
        if (cu.kind != CuKind::Unlock)
            continue;
        if (cov.isCovered(CoverageState::key(cu, ReqType::Nop)))
            ++unlock_covered;
        if (cov.isCovered(CoverageState::key(cu, ReqType::Unblocking)))
            ++unlock_covered;
    }
    EXPECT_GE(unlock_covered, 2);
}

TEST(Coverage, CloseSignalBroadcastDone)
{
    auto cov = coverOne([] {
        Chan<int> c;
        go([c]() mutable { c.recvOk(); });
        yield();
        c.close(); // unblocking close

        gosync::WaitGroup wg;
        wg.add(1);
        go([&] { wg.wait(); });
        yield();
        wg.done(); // unblocking done
        yield();

        gosync::Mutex m;
        gosync::Cond cv(m);
        cv.signal(); // NOP signal
        go([&] {
            m.lock();
            cv.wait();
            m.unlock();
        });
        yield();
        m.lock();
        cv.broadcast(); // unblocking broadcast
        m.unlock();
        yield();
    });
    bool close_unb = false, done_unb = false, sig_nop = false,
         bcast_unb = false;
    for (const auto &cu : cov.cus()) {
        auto key_u = CoverageState::key(cu, ReqType::Unblocking);
        auto key_n = CoverageState::key(cu, ReqType::Nop);
        if (cu.kind == CuKind::Close)
            close_unb |= cov.isCovered(key_u);
        if (cu.kind == CuKind::Done)
            done_unb |= cov.isCovered(key_u);
        if (cu.kind == CuKind::Signal)
            sig_nop |= cov.isCovered(key_n);
        if (cu.kind == CuKind::Broadcast)
            bcast_unb |= cov.isCovered(key_u);
    }
    EXPECT_TRUE(close_unb);
    EXPECT_TRUE(done_unb);
    EXPECT_TRUE(sig_nop);
    EXPECT_TRUE(bcast_unb);
}

TEST(Coverage, GoCuCoveredOnSpawn)
{
    auto cov = coverOne([] {
        go([] {});
        yield();
    });
    bool go_nop = false;
    for (const auto &cu : cov.cus())
        if (cu.kind == CuKind::Go)
            go_nop |= cov.isCovered(CoverageState::key(cu, ReqType::Nop));
    EXPECT_TRUE(go_nop);
}

TEST(Coverage, SelectCaseDiscoveryCreatesTriples)
{
    auto cov = coverOne([] {
        Chan<int> a, b;
        go([a]() mutable { a.send(1); });
        yield();
        Select().onRecv<int>(a, {}).onRecv<int>(b, {}).run();
        yield();
    });
    // The select CU must have case0/case1 requirement triples, and the
    // chosen ready case (case0, which woke the parked sender) must be
    // covered as unblocking.
    const std::vector<Cu> cus = cov.cus();
    const Cu *sel = nullptr;
    for (const auto &cu : cus)
        if (cu.kind == CuKind::Select)
            sel = &cu;
    ASSERT_NE(sel, nullptr);
    EXPECT_TRUE(
        cov.isRequired(CoverageState::key(*sel, ReqType::Blocked, 0)));
    EXPECT_TRUE(
        cov.isRequired(CoverageState::key(*sel, ReqType::Blocked, 1)));
    EXPECT_TRUE(
        cov.isCovered(CoverageState::key(*sel, ReqType::Unblocking, 0)));
}

TEST(Coverage, BlockedSelectCoversAllCases)
{
    auto cov = coverOne([] {
        Chan<int> a, b;
        go([a]() mutable {
            yield();
            a.send(1);
        });
        Select().onRecv<int>(a, {}).onRecv<int>(b, {}).run();
        yield();
    });
    const std::vector<Cu> cus = cov.cus();
    const Cu *sel = nullptr;
    for (const auto &cu : cus)
        if (cu.kind == CuKind::Select)
            sel = &cu;
    ASSERT_NE(sel, nullptr);
    EXPECT_TRUE(
        cov.isCovered(CoverageState::key(*sel, ReqType::Blocked, 0)));
    EXPECT_TRUE(
        cov.isCovered(CoverageState::key(*sel, ReqType::Blocked, 1)));
}

TEST(Coverage, NonBlockingSelectUsesReq4)
{
    auto cov = coverOne([] {
        Chan<int> a;
        Select().onRecv<int>(a, {}).onDefault().run(); // default: NOP
    });
    const std::vector<Cu> cus = cov.cus();
    const Cu *sel = nullptr;
    for (const auto &cu : cus)
        if (cu.kind == CuKind::Select)
            sel = &cu;
    ASSERT_NE(sel, nullptr);
    EXPECT_TRUE(cov.isCovered(CoverageState::key(*sel, ReqType::Nop)));
    EXPECT_TRUE(
        cov.isRequired(CoverageState::key(*sel, ReqType::Unblocking)));
    // Default-carrying selects get no per-case triples (Req2 applies
    // only to selects without default).
    EXPECT_FALSE(
        cov.isRequired(CoverageState::key(*sel, ReqType::Blocked, 0)));
}

TEST(Coverage, PercentGrowsAcrossRuns)
{
    CoverageState cov;
    auto prog = [](uint64_t variant) {
        return [variant] {
            Chan<int> c(1);
            if (variant == 0) {
                c.send(1); // NOP only
            } else {
                go([c]() mutable { c.send(2); });
                yield();
                c.recv();
                yield();
            }
        };
    };
    auto r1 = runProgram(prog(0), 1);
    cov.addEct(r1.ect);
    double p1 = cov.percent();
    auto r2 = runProgram(prog(1), 2);
    cov.addEct(r2.ect);
    // Run 2 adds behaviours; the covered count must grow.
    EXPECT_GT(cov.coveredCount(), 0u);
    EXPECT_GT(cov.totalRequirements(), 3u);
    (void)p1;
}

TEST(Coverage, DiscoveringNewGoroutineCanDropPercent)
{
    // Run 1 covers its whole (tiny) requirement universe: only go CUs.
    // Run 2 discovers a new goroutine node whose send instantiates six
    // new requirements with only two covered — coverage drops (the
    // paper's fig. 6b D1 drop).
    CoverageState cov;
    auto r1 = runProgram([] {
        go([] {});
        yield();
    });
    cov.addEct(r1.ect);
    double p1 = cov.percent();
    EXPECT_EQ(p1, 100.0);

    auto r2 = runProgram([] {
        go([] {});
        yield();
        Chan<int> d;
        go([d]() mutable { d.send(9); }); // parks: 1 of 3 behaviours
        yield();
    });
    cov.addEct(r2.ect);
    double p2 = cov.percent();
    EXPECT_LT(p2, p1);
}

TEST(Coverage, NodeLevelInstancesUseEquivalenceKeys)
{
    // Two workers from the same go statement map to one node: the
    // node-level requirement set must not double.
    CoverageState cov;
    auto rr = runProgram([] {
        Chan<int> c(4);
        for (int i = 0; i < 2; ++i) {
            go([c]() mutable { c.send(1); });
        }
        for (int i = 0; i < 3; ++i)
            yield();
    });
    cov.addEct(rr.ect);
    size_t total_two_workers = cov.totalRequirements();

    CoverageState cov2;
    auto rr2 = runProgram([] {
        Chan<int> c(4);
        for (int i = 0; i < 1; ++i) {
            go([c]() mutable { c.send(1); });
        }
        for (int i = 0; i < 2; ++i)
            yield();
    });
    cov2.addEct(rr2.ect);
    // Same requirement universe whether the loop spawns 1 or 2 workers
    // (equivalent goroutines share one global-tree node).
    EXPECT_EQ(total_two_workers, cov2.totalRequirements());
}

TEST(Coverage, TableStrListsRequirements)
{
    auto cov = coverOne([] {
        Chan<int> c(1);
        c.send(1);
        c.recv();
    });
    std::string table = cov.tableStr();
    EXPECT_NE(table.find("send"), std::string::npos);
    EXPECT_NE(table.find("nop"), std::string::npos);
    EXPECT_NE(table.find("yes"), std::string::npos);
    EXPECT_NE(table.find("no"), std::string::npos);
}

TEST(Coverage, RangeTreatedAsReceive)
{
    auto cov = coverOne([] {
        Chan<int> c(4);
        go([c]() mutable {
            c.send(1);
            c.close();
        });
        c.range([](int) {});
        yield();
    });
    // The range loop's receives produce ChRecv events; the CU resolves
    // (dynamically) to a recv-shaped requirement set that gets covered.
    bool any_recv_covered = false;
    for (const auto &cu : cov.cus()) {
        if (cu.kind == CuKind::Recv || cu.kind == CuKind::Range) {
            any_recv_covered |=
                cov.isCovered(CoverageState::key(cu, ReqType::Blocked)) ||
                cov.isCovered(CoverageState::key(cu, ReqType::Unblocking)) ||
                cov.isCovered(CoverageState::key(cu, ReqType::Nop));
        }
    }
    EXPECT_TRUE(any_recv_covered);
}

// ---------------------------------------------------------------------
// Differential checks against a golden fold of every GoBench kernel,
// recorded with the string-set implementation the id/bitset one
// replaced: the edges (bitmap, table, uncovered list, per-type counts)
// must stay byte-identical.
// ---------------------------------------------------------------------

TEST(CoverageGolden, GokerFoldMatchesGolden)
{
    std::string golden =
        readGolden(GOAT_SOURCE_DIR "/tests/golden/coverage_goker.txt");
    ASSERT_FALSE(golden.empty());
    std::string got;
    for (const goker::KernelInfo *k : goker::KernelRegistry::instance().all())
        got += dumpState(k->name, foldKernel(*k));
    // Compare per kernel first so a failure names the kernel.
    size_t pos = 0;
    while (pos < got.size()) {
        size_t next = got.find("\n== ", pos);
        next = next == std::string::npos ? got.size() : next + 1;
        ASSERT_EQ(golden.compare(pos, next - pos, got, pos, next - pos), 0)
            << got.substr(pos, got.find('\n', pos) - pos);
        pos = next;
    }
    EXPECT_EQ(got.size(), golden.size());
}

TEST(CoverageGolden, MergeOrderAndRestoreRoundTrip)
{
    std::mt19937 rng(7);
    for (const goker::KernelInfo *k : goker::KernelRegistry::instance().all()) {
        std::vector<CoverageState> parts;
        const CoverageState inOrder = foldKernel(*k, &parts);
        const std::string bitmap = inOrder.bitmapStr();

        // Merging is a union: any order gives the same bitmap.
        std::shuffle(parts.begin(), parts.end(), rng);
        CoverageState shuffled(goker::kernelCuTable(*k));
        for (const CoverageState &c : parts)
            shuffled.mergeFrom(c);
        EXPECT_EQ(shuffled.bitmapStr(), bitmap) << k->name;
        EXPECT_EQ(shuffled.tableStr(), inOrder.tableStr()) << k->name;

        // The string edge round-trips, counts included.
        CoverageState restored;
        ASSERT_TRUE(restored.restoreBitmap(bitmap)) << k->name;
        EXPECT_EQ(restored.bitmapStr(), bitmap) << k->name;
        for (ReqType t : {ReqType::Blocked, ReqType::Unblocking,
                          ReqType::Nop, ReqType::Blocking})
            EXPECT_EQ(restored.coveredCountOfType(t),
                      inOrder.coveredCountOfType(t))
                << k->name;
    }
}

TEST(CoverageGolden, ConcurrentFoldsMatchSingleThread)
{
    // Four threads fold different kernels at once through the shared
    // requirement table; each must match its own single-thread fold.
    // The threads run first, so they intern the kernels' requirements
    // concurrently.
    auto all = goker::KernelRegistry::instance().all();
    const size_t n = std::min<size_t>(8, all.size());
    std::vector<std::string> got(n);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            // A private metrics registry per thread, as campaign
            // workers install.
            obs::Registry reg;
            obs::ScopedRegistry scope(reg);
            for (size_t i = t; i < n; i += 4)
                got[i] = dumpState(all[i]->name, foldKernel(*all[i]));
        });
    }
    for (auto &th : threads)
        th.join();
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(got[i], dumpState(all[i]->name, foldKernel(*all[i])))
            << all[i]->name;
}
