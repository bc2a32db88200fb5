/**
 * @file
 * Tests of the benchmark's span recorder: spans nest, and the self
 * times of a span and everything under it add up to no more than the
 * span's own duration.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "spans.hh"

namespace {

using perfbench::layerTable;
using perfbench::ScopedSpan;
using perfbench::selfTimes;
using perfbench::Span;
using perfbench::SpanRecorder;
using perfbench::spansNest;

void
spin(uint64_t ns)
{
    uint64_t end = perfbench::nowNs() + ns;
    while (perfbench::nowNs() < end) {
    }
}

/** Sum of the self times of span @p i and all its descendants. */
uint64_t
subtreeSelf(const std::vector<Span> &spans,
            const std::vector<uint64_t> &self, size_t i)
{
    uint64_t sum = self[i];
    for (size_t k = 0; k < spans.size(); ++k)
        if (spans[k].parent == static_cast<int>(i))
            sum += subtreeSelf(spans, self, k);
    return sum;
}

TEST(Spans, RecordedSpansNestUnderTheOpenSpan)
{
    SpanRecorder rec;
    {
        ScopedSpan outer(&rec, "outer");
        {
            ScopedSpan a(&rec, "a");
        }
        ScopedSpan b(&rec, "b");
        ScopedSpan leaf(&rec, "leaf");
    }
    const std::vector<Span> &s = rec.spans();
    ASSERT_EQ(s.size(), 4u);
    EXPECT_EQ(s[0].parent, -1);
    EXPECT_EQ(s[1].parent, 0);
    EXPECT_EQ(s[2].parent, 0);
    EXPECT_EQ(s[3].parent, 2);
    EXPECT_TRUE(spansNest(s));
}

TEST(Spans, SelfTimesAddUpToNoMoreThanTheParent)
{
    SpanRecorder rec;
    {
        ScopedSpan outer(&rec, "outer");
        spin(20'000);
        {
            ScopedSpan a(&rec, "a");
            spin(50'000);
        }
        ScopedSpan b(&rec, "b");
        spin(10'000);
        ScopedSpan leaf(&rec, "leaf");
        spin(30'000);
    }
    const std::vector<Span> &s = rec.spans();
    ASSERT_TRUE(spansNest(s));
    std::vector<uint64_t> self = selfTimes(s);
    for (size_t i = 0; i < s.size(); ++i) {
        uint64_t dur = s[i].endNs - s[i].startNs;
        EXPECT_LE(self[i], dur) << s[i].name;
        EXPECT_LE(subtreeSelf(s, self, i), dur) << s[i].name;
    }
    // Sequential children: the parent's self time is exactly what
    // they leave uncovered.
    uint64_t outerDur = s[0].endNs - s[0].startNs;
    uint64_t kids = (s[1].endNs - s[1].startNs) + (s[2].endNs - s[2].startNs);
    EXPECT_EQ(self[0], outerDur - kids);
    EXPECT_GE(self[1], 50'000u);
}

TEST(Spans, OverlappingChildrenAreCountedOnce)
{
    std::vector<Span> s(3);
    s[0] = {"p", 0, 100, -1};
    s[1] = {"c", 10, 60, 0};
    s[2] = {"c", 40, 80, 0};
    std::vector<uint64_t> self = selfTimes(s);
    EXPECT_EQ(self[0], 30u); // 100 - |[10, 80)|
    EXPECT_EQ(self[1], 50u);
    EXPECT_EQ(self[2], 40u);
}

TEST(Spans, ChildOutsideItsParentDoesNotNest)
{
    std::vector<Span> s(2);
    s[0] = {"p", 10, 50, -1};
    s[1] = {"c", 40, 60, 0};
    EXPECT_FALSE(spansNest(s));
}

TEST(Spans, ClosingOutOfOrderThrows)
{
    SpanRecorder rec;
    int a = rec.begin("a");
    rec.begin("b");
    EXPECT_THROW(rec.end(a), std::logic_error);
}

TEST(Spans, LayerTableAggregatesByName)
{
    std::vector<Span> s(4);
    s[0] = {"bench.replay", 0, 1000, -1};
    s[1] = {"engine.iter", 0, 100, 0};
    s[2] = {"engine.iter", 100, 400, 0};
    s[3] = {"analysis.fold", 400, 500, 0};
    auto rows = layerTable(s);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].name, "bench.replay"); // largest self time first
    EXPECT_EQ(rows[0].selfNs, 500u);
    EXPECT_EQ(rows[1].name, "engine.iter");
    EXPECT_EQ(rows[1].count, 2u);
    EXPECT_EQ(rows[1].totalNs, 400u);
    EXPECT_DOUBLE_EQ(rows[1].p50Ns, 200.0);
}

TEST(Spans, PercentileInterpolates)
{
    EXPECT_DOUBLE_EQ(perfbench::percentile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(perfbench::percentile({3, 1, 2}, 0.5), 2.0);
    EXPECT_DOUBLE_EQ(perfbench::percentile({0, 10}, 0.99), 9.9);
}

} // namespace
