/**
 * @file
 * Resident-set sampling for the benchmark process and its children.
 *
 * The campaign's -isolate shards are forked children, so the process's
 * own peak RSS misses them. A sampler thread adds the VmRSS of this
 * process and the private resident pages of every direct child every
 * few milliseconds and keeps the maximum. A forked shard's pages that
 * are still shared copy-on-write with this process count once, here.
 */

#ifndef PERFBENCH_RSS_HH
#define PERFBENCH_RSS_HH

#include <atomic>
#include <cstdint>
#include <thread>

namespace perfbench {

/** VmRSS of this process plus its children's private pages, in bytes. */
uint64_t treeRssBytes();

/**
 * Samples treeRssBytes() on a background thread and keeps the largest
 * value seen since the last resetWindow().
 */
class RssSampler
{
  public:
    RssSampler();
    ~RssSampler();
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Start a new window; returns the tree RSS at its start. */
    uint64_t resetWindow();
    /** Largest tree RSS seen in the current window (sampled now too). */
    uint64_t windowPeak();

  private:
    void sample();

    std::atomic<uint64_t> window_{0};
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace perfbench

#endif // PERFBENCH_RSS_HH
