#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

int
SpanRecorder::begin(const char *name)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error(
            std::string("span closed out of order: ") +
            spans_.at(static_cast<size_t>(id)).name);
    spans_[static_cast<size_t>(id)].endNs = nowNs();
    open_.pop_back();
}

std::vector<uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<size_t>> kids(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            kids[static_cast<size_t>(spans[i].parent)].push_back(i);

    std::vector<uint64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        uint64_t dur = p.endNs > p.startNs ? p.endNs - p.startNs : 0;
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<uint64_t, uint64_t>> iv;
        for (size_t k : kids[i]) {
            uint64_t a = std::max(spans[k].startNs, p.startNs);
            uint64_t b = std::min(spans[k].endNs, p.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, curA = 0, curB = 0;
        bool have = false;
        for (const auto &[a, b] : iv) {
            if (!have || a > curB) {
                if (have)
                    covered += curB - curA;
                curA = a;
                curB = b;
                have = true;
            } else {
                curB = std::max(curB, b);
            }
        }
        if (have)
            covered += curB - curA;
        self[i] = dur - std::min(dur, covered);
    }
    return self;
}

bool
spansNest(const std::vector<Span> &spans)
{
    for (const Span &s : spans) {
        if (s.endNs < s.startNs)
            return false;
        if (s.parent < 0)
            continue;
        const Span &p = spans.at(static_cast<size_t>(s.parent));
        if (s.startNs < p.startNs || s.endNs > p.endNs)
            return false;
    }
    return true;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

std::vector<LayerRow>
layerTable(const std::vector<Span> &spans)
{
    std::vector<uint64_t> self = selfTimes(spans);
    std::map<std::string, std::vector<size_t>> byName;
    for (size_t i = 0; i < spans.size(); ++i)
        byName[spans[i].name].push_back(i);

    std::vector<LayerRow> rows;
    for (const auto &[name, idx] : byName) {
        LayerRow r;
        r.name = name;
        r.count = idx.size();
        std::vector<double> durs;
        for (size_t i : idx) {
            uint64_t d = spans[i].endNs - spans[i].startNs;
            r.totalNs += d;
            r.selfNs += self[i];
            durs.push_back(static_cast<double>(d));
        }
        r.p50Ns = percentile(durs, 0.50);
        r.p99Ns = percentile(std::move(durs), 0.99);
        rows.push_back(std::move(r));
    }
    std::sort(rows.begin(), rows.end(),
              [](const LayerRow &a, const LayerRow &b) {
                  return a.selfNs > b.selfNs ||
                         (a.selfNs == b.selfNs && a.name < b.name);
              });
    return rows;
}

std::string
layerTableStr(const std::vector<LayerRow> &rows, uint64_t wallNs)
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%-36s %9s %12s %12s %7s %12s %12s\n",
                  "span", "count", "total_ms", "self_ms", "self%",
                  "p50_ns", "p99_ns");
    out += buf;
    for (const LayerRow &r : rows) {
        double share = wallNs ? 100.0 * static_cast<double>(r.selfNs) /
                                    static_cast<double>(wallNs)
                              : 0.0;
        std::snprintf(buf, sizeof buf,
                      "%-36s %9zu %12.3f %12.3f %6.2f%% %12.0f %12.0f\n",
                      r.name.c_str(), r.count,
                      static_cast<double>(r.totalNs) / 1e6,
                      static_cast<double>(r.selfNs) / 1e6, share, r.p50Ns,
                      r.p99Ns);
        out += buf;
    }
    return out;
}

std::string
spansJsonl(const std::vector<Span> &spans)
{
    std::string out;
    char buf[96];
    for (const Span &s : spans) {
        out += std::string("{\"name\":\"") + s.name + "\"";
        std::snprintf(buf, sizeof buf,
                      ",\"start_ns\":%llu,\"end_ns\":%llu,\"parent\":%d}\n",
                      static_cast<unsigned long long>(s.startNs),
                      static_cast<unsigned long long>(s.endNs), s.parent);
        out += buf;
    }
    return out;
}

} // namespace perfbench
