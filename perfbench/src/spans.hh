/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into a layer of the program, recorded from the
 * benchmark's own code around that call: name, start, end and the span
 * that was open when it began (its parent). Spans stay in memory until
 * the run ends and are then written out in one piece, so recording
 * costs two clock reads and one vector append.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span. Times are steady-clock nanoseconds. */
struct Span
{
    /** Static-lifetime name (a string literal). */
    const char *name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    /** Index of the enclosing span in the recorder (-1 = top level). */
    int parent = -1;
};

/** Nanoseconds on the steady clock. */
uint64_t nowNs();

/**
 * Records spans in memory. Single-threaded: spans opened on the
 * calling thread nest strictly (end() closes the innermost open span).
 */
class SpanRecorder
{
  public:
    /** Open a span under the innermost open one; returns its index. */
    int begin(const char *name);
    /** Close span @p id, which must be the innermost open span. */
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Opens a span on construction and closes it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name)
        : rec_(rec), id_(rec ? rec->begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder *rec_;
    int id_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * its direct children cover (overlapping children counted once).
 */
std::vector<uint64_t> selfTimes(const std::vector<Span> &spans);

/** True when every child lies inside its parent's interval. */
bool spansNest(const std::vector<Span> &spans);

/** Per-name aggregate of the spans (the traced run's layer table). */
struct LayerRow
{
    std::string name;
    size_t count = 0;
    uint64_t totalNs = 0;
    uint64_t selfNs = 0;
    double p50Ns = 0;
    double p99Ns = 0;
};

/** Rows sorted by self time, largest first. */
std::vector<LayerRow> layerTable(const std::vector<Span> &spans);

/** Percentile @p q in [0,1] of @p v by linear interpolation (0 if empty). */
double percentile(std::vector<double> v, double q);

/** Render the layer table as aligned text, with shares of @p wallNs. */
std::string layerTableStr(const std::vector<LayerRow> &rows, uint64_t wallNs);

/** One JSON object per line: name, start_ns, end_ns, parent. */
std::string spansJsonl(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
