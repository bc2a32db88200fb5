/**
 * @file
 * Unit tests for the happens-before engine and data-race detection:
 * vector-clock algebra, the synchronization edges (go, unblock,
 * buffered channels, close, mutex, waitgroup), true races on
 * unsynchronized SharedVar accesses, and no false positives on
 * properly synchronized programs.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/happens_before.hh"
#include "analysis/hb_predict.hh"
#include "base/fmt.hh"
#include "goat/engine.hh"
#include "goker/registry.hh"
#include "race_programs.hh"
#include "test_util.hh"

using namespace goat;
using namespace goat::analysis;
using goat::test::runProgram;
namespace race = goat::test::race;

TEST(VectorClock, BasicOrdering)
{
    VectorClock a, b;
    a.tick(1);
    EXPECT_FALSE(a.le(b));
    EXPECT_TRUE(b.le(a)); // empty ≤ anything
    b.join(a);
    EXPECT_TRUE(a.le(b));
    b.tick(2);
    EXPECT_TRUE(a.le(b));
    EXPECT_FALSE(b.le(a));
}

TEST(VectorClock, ConcurrencyDetection)
{
    VectorClock a, b;
    a.tick(1);
    b.tick(2);
    EXPECT_TRUE(VectorClock::concurrent(a, b));
    a.join(b);
    EXPECT_FALSE(VectorClock::concurrent(a, b)); // b ≤ a now
}

TEST(VectorClock, DenseRenderingSkipsGapsAndGrowsOnJoin)
{
    VectorClock a;
    a.tick(0);
    a.tick(0);
    a.tick(3);
    a.tick(1); // g2 never ticks: a gap
    EXPECT_EQ(a.str(), "{g0:2,g1:1,g3:1}");

    VectorClock b;
    b.tick(1);
    b.tick(1);
    EXPECT_EQ(b.str(), "{g1:2}");
    EXPECT_TRUE(VectorClock::concurrent(a, b));

    b.join(a); // the shorter clock grows to g3
    EXPECT_EQ(b.str(), "{g0:2,g1:2,g3:1}");
    EXPECT_TRUE(a.le(b));
    EXPECT_FALSE(b.le(a));
    EXPECT_FALSE(VectorClock::concurrent(a, b));

    a.tick(5);
    EXPECT_EQ(a.str(), "{g0:2,g1:1,g3:1,g5:1}");
    EXPECT_TRUE(VectorClock::concurrent(a, b));
    EXPECT_EQ(VectorClock().str(), "{}");
}

TEST(Race, UnsynchronizedWriteWriteDetected)
{
    auto rr = runProgram(race::writeWrite);
    RaceReport report = detectRaces(rr.ect);
    ASSERT_TRUE(report.any());
    EXPECT_TRUE(report.races[0].writeA || report.races[0].writeB);
}

TEST(Race, UnsynchronizedReadWriteDetected)
{
    auto rr = runProgram(race::readWrite);
    EXPECT_TRUE(detectRaces(rr.ect).any());
}

TEST(Race, ReadReadIsNotARace)
{
    auto rr = runProgram(race::readRead);
    EXPECT_FALSE(detectRaces(rr.ect).any());
}

TEST(Race, SameGoroutineIsNotARace)
{
    auto rr = runProgram(race::sameGoroutine);
    EXPECT_FALSE(detectRaces(rr.ect).any());
}

TEST(Race, MutexProtectionOrdersAccesses)
{
    auto rr = runProgram(race::mutexProtected);
    EXPECT_FALSE(detectRaces(rr.ect).any())
        << detectRaces(rr.ect).str();
}

TEST(Race, GoCreateOrdersParentWritesBeforeChild)
{
    auto rr = runProgram(race::goCreateOrders);
    EXPECT_FALSE(detectRaces(rr.ect).any());
}

TEST(Race, RendezvousChannelOrdersAccesses)
{
    auto rr = runProgram(race::rendezvousOrders);
    EXPECT_FALSE(detectRaces(rr.ect).any())
        << detectRaces(rr.ect).str();
}

TEST(Race, BufferedChannelCarriesHappensBefore)
{
    auto rr = runProgram(race::bufferedOrders);
    EXPECT_FALSE(detectRaces(rr.ect).any())
        << detectRaces(rr.ect).str();
}

TEST(Race, CloseOrdersWritesBeforeDrainingReceiver)
{
    bool drained_value = true;
    auto rr = runProgram([&] { drained_value = race::closeOrders(); });
    EXPECT_FALSE(drained_value);
    EXPECT_FALSE(detectRaces(rr.ect).any());
}

TEST(Race, WaitGroupOrdersWorkerWritesBeforeWait)
{
    auto rr = runProgram(race::waitGroupOrders);
    EXPECT_FALSE(detectRaces(rr.ect).any())
        << detectRaces(rr.ect).str();
}

TEST(Race, RacyIncrementDetectedAcrossSeeds)
{
    // The classic lost-update pattern: two unsynchronized
    // read-modify-writes. Racy under every schedule.
    int detected = 0;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        auto rr = runProgram(race::racyIncrement, seed);
        if (detectRaces(rr.ect).any())
            ++detected;
    }
    EXPECT_EQ(detected, 5);
}

TEST(Race, EngineRaceDetectIntegration)
{
    engine::GoatConfig cfg;
    cfg.raceDetect = true;
    cfg.maxIterations = 5;
    engine::GoatEngine eng(cfg);
    auto result = eng.run(race::writeWrite);
    EXPECT_GT(result.raceIteration, 0);
    EXPECT_TRUE(result.firstRaces.any());
    EXPECT_TRUE(result.bugFound);
}

TEST(Race, ReportRendering)
{
    auto rr = runProgram(race::writeWrite);
    RaceReport report = detectRaces(rr.ect);
    ASSERT_TRUE(report.any());
    std::string s = report.str();
    EXPECT_NE(s.find("DATA RACE"), std::string::npos);
    EXPECT_NE(s.find("write"), std::string::npos);
}

TEST(Race, ReportsALocationPairOnceInEitherOrder)
{
    // The two writers interleave, so the trace meets the pair as
    // (line A, line B) and as (line B, line A): one race.
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        RaceReport report =
            detectRaces(runProgram(race::interleavedWriters, seed).ect);
        EXPECT_EQ(report.races.size(), 1u)
            << "seed " << seed << "\n" << report.str();
    }
}

TEST(Race, DeduplicatesIdenticalLocationPairs)
{
    auto rr = runProgram(race::sameLineWriters);
    RaceReport report = detectRaces(rr.ect);
    ASSERT_TRUE(report.any());
    // 4 goroutines → 6 racy pairs, but one location pair.
    EXPECT_EQ(report.races.size(), 1u);
}

namespace {

std::string
readFile(const std::string &path)
{
    std::string s;
    if (FILE *f = std::fopen(path.c_str(), "rb")) {
        char buf[65536];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            s.append(buf, n);
        std::fclose(f);
    }
    return s;
}

/**
 * The happens-before golden: the -predict findings of every GoKer
 * kernel over a 20-iteration -d=2 campaign, and the race reports and
 * -predict findings of the programs in race_programs.hh over seeds
 * 1..10. Both analyses' clocks show through: predictions carry
 * must-clock strings, race pairs exist only where the observed clocks
 * leave accesses unordered.
 */
std::string
hbGolden()
{
    std::string out;
    for (const goker::KernelInfo *k :
         goker::KernelRegistry::instance().all()) {
        out += "== predict " + k->name + "\n";
        engine::GoatConfig cfg;
        cfg.seedBase = 1;
        cfg.delayBound = 2;
        for (int i = 1; i <= 20; ++i) {
            engine::SingleRun sr =
                engine::runCampaignIteration(cfg, k->fn, i, nullptr);
            PredictionReport r = predictBlockingBugs(sr.ect);
            if (r.any())
                out += strFormat("iter %d ", i) + r.jsonDocStr(k->name) +
                       "\n";
        }
    }
    for (const auto &[name, fn] : race::allPrograms()) {
        out += std::string("== race ") + name + "\n";
        for (uint64_t seed = 1; seed <= 10; ++seed) {
            const trace::Ect ect = runProgram(fn, seed).ect;
            out += strFormat("-- seed %lu\n",
                             static_cast<unsigned long>(seed)) +
                   detectRaces(ect).str();
            PredictionReport r = predictBlockingBugs(ect);
            if (r.any())
                out += r.jsonDocStr(name) + "\n";
        }
    }
    return out;
}

} // namespace

TEST(HbGolden, PredictionsAndRacesMatchGolden)
{
    const std::string path = GOAT_SOURCE_DIR "/tests/golden/hb_goker.txt";
    const std::string golden = readFile(path);
    const std::string got = hbGolden();
    if (got != golden) {
        // Leave the fresh rendering beside the test binary for a diff.
        if (FILE *f = std::fopen("hb_goker.txt.actual", "wb")) {
            std::fwrite(got.data(), 1, got.size(), f);
            std::fclose(f);
        }
    }
    ASSERT_FALSE(golden.empty()) << path;
    // Compare per section first so a failure names the kernel or
    // program.
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
