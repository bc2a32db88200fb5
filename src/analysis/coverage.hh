/**
 * @file
 * Concurrency coverage requirements and measurement (paper §III-C,
 * Table I):
 *
 *  - Req1 Send/Recv: {blocked, unblocking, NOP} per channel send or
 *    receive CU;
 *  - Req2 Select-Case: {blocked, unblocking, NOP} per runtime-
 *    discovered case of each default-less select CU;
 *  - Req3 Lock: {blocked, blocking} per lock CU;
 *  - Req4 Unblocking: {unblocking, NOP} per close / unlock / signal /
 *    broadcast / waitgroup-done CU and per non-blocking (default-
 *    carrying) select CU;
 *  - Req5 Go: {NOP} per goroutine-creation CU.
 *
 * Requirement instances exist at two granularities: program level (one
 * instance per CU, created from the static model), and goroutine-node
 * level (instances materialize when a node of the *global* goroutine
 * tree first executes the CU). Node identity across executions uses
 * the paper's equivalence: equal parents and equal creation CU, which
 * the GoroutineNode::key string encodes. Because select cases and
 * goroutine nodes are discovered at run time, the requirement universe
 * grows during testing — coverage percentage can therefore drop when
 * an execution uncovers new behaviour (the paper's fig. 6b, D1).
 *
 * Every requirement key is interned once per process to a dense id; a
 * CoverageState is a bitset over ids. Key strings exist only at the
 * edges (bitmapStr, restoreBitmap, tableStr, uncovered, isCovered,
 * isRequired, uncoveredAtLoc), which order by key, so no id reaches an
 * output.
 */

#ifndef GOAT_ANALYSIS_COVERAGE_HH
#define GOAT_ANALYSIS_COVERAGE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "staticmodel/cutable.hh"
#include "trace/ect.hh"

namespace goat::analysis {

class GoroutineTree;

/** Behaviour classes a requirement can demand (Table I columns). */
enum class ReqType : uint8_t
{
    Blocked,    ///< The operation parked its goroutine.
    Unblocking, ///< The operation made ≥1 parked goroutine runnable.
    Nop,        ///< Neither blocked nor unblocking.
    Blocking,   ///< Lock-specific: held while another goroutine waited.
};

const char *reqTypeName(ReqType t);

/**
 * The requirement types Table I demands of every CU of @p kind, bit
 * `1 << ReqType` each; 0 for select (cases are discovered at run
 * time), wait and add.
 */
unsigned reqTemplate(staticmodel::CuKind kind);

/**
 * Cumulative coverage state across testing iterations.
 *
 * Construct with the static model (scanner output) so uncovered static
 * requirements are visible from iteration zero; CUs observed only
 * dynamically are added on the fly. A copy costs a few words.
 */
class CoverageState
{
  public:
    explicit CoverageState(const staticmodel::CuTable &statics = {});

    /** Fold one execution's trace into the coverage state. */
    void addEct(const trace::Ect &ect);

    /**
     * Like addEct(ect), but reusing a goroutine tree the caller already
     * built for the same trace (the engine builds one per run).
     */
    void addEct(const trace::Ect &ect, const GoroutineTree &tree);

    /**
     * Union @p other into this state (the campaign merge step): a
     * word-wise OR, so merging is commutative and associative — folding
     * per-iteration states in any grouping yields the same final
     * state, which is what makes merged campaign coverage independent
     * of the worker count.
     */
    void mergeFrom(const CoverageState &other);

    /**
     * Canonical byte-exact serialization of the coverage bitmap: one
     * "0|1 <requirement key>" line per known requirement, sorted by
     * key. Equal strings ⇔ identical requirement universe and covered
     * set (campaign determinism tests compare these).
     */
    std::string bitmapStr() const;

    /**
     * Union a bitmapStr() serialization into this state (checkpoint
     * restore; supervised-shard digest fold). Returns false on a
     * malformed line; the lines before it are folded.
     */
    bool restoreBitmap(const std::string &bitmap);

    /** Number of requirement instances known so far. */
    size_t totalRequirements() const { return required_.count(~0ull); }

    /** Number of requirement instances covered so far. */
    size_t coveredCount() const { return covered_.count(~0ull); }

    /**
     * Covered requirement instances demanding behaviour @p t, both
     * granularities. Drives the per-class series of the coverage-
     * saturation timeline (obs/saturation.hh); a popcount over the
     * state's few covered words, no scan of keys.
     */
    size_t coveredCountOfType(ReqType t) const;

    /** Coverage percentage in [0, 100]; 100 for an empty universe. */
    double percent() const;

    /** All uncovered requirement keys (sorted). */
    std::vector<std::string> uncovered() const;

    /** True when the given requirement key is covered. */
    bool isCovered(const std::string &key) const;

    /** True when the given requirement key exists. */
    bool isRequired(const std::string &key) const;

    /**
     * Requirement key syntax (program level):
     *   "<file>:<line> <kind>[/case<i>] <type>"
     * Node-level instances are prefixed "<nodeKey>|".
     */
    static std::string key(const staticmodel::Cu &cu, ReqType type,
                           int case_idx = -1);

    /**
     * Number of program-level requirements at a source location that
     * are still uncovered (drives coverage-guided perturbation).
     */
    size_t uncoveredAtLoc(const SourceLoc &loc) const;

    /** The CUs carrying requirements, sorted by (file, line, kind). */
    std::vector<staticmodel::Cu> cus() const;

    /**
     * Printable per-CU coverage table in the style of the paper's
     * Table III (program-level requirements and their status).
     */
    std::string tableStr() const;

  private:
    /**
     * A set of ids stored as the word window [lo_, lo_ + w_.size()) of
     * the process-wide id space; a kernel's ids are interned close
     * together, so the window stays small in a many-kernel process.
     */
    class Bits
    {
      public:
        bool test(uint32_t i) const { return (word(i >> 6) >> (i & 63)) & 1; }

        /** The four bits of group @p g: ids 4g .. 4g+3. */
        unsigned
        nibble(uint32_t g) const
        {
            return static_cast<unsigned>(word(g >> 4) >> (g & 15) * 4) & 15;
        }

        /** OR @p mask in at bit @p i (within one word). */
        void set(uint32_t i, unsigned mask = 1);
        void orFrom(const Bits &o);
        /** Members among the bits set in every word of @p lanes. */
        size_t count(uint64_t lanes) const;
        template <class F> void forEach(F &&f) const;

      private:
        uint64_t
        word(uint32_t w) const
        {
            return w >= lo_ && w - lo_ < w_.size() ? w_[w - lo_] : 0;
        }

        uint32_t lo_ = 0;
        std::vector<uint64_t> w_;
    };

    /** A resolved CU and its interned program-level group. */
    struct CuRef
    {
        uint32_t group;
        staticmodel::Cu cu;
    };

    CuRef resolveCu(const SourceLoc &loc, staticmodel::CuKind fallback);
    /** Cover at program level and at goroutine node @p node (~0u: none). */
    void cover(const CuRef &cu, ReqType type, int case_idx, uint32_t node);
    void mark(uint32_t group, ReqType t); ///< Require and cover.
    /** Required ids (or the uncovered ones) in key order; the caller
     *  holds the requirement table's lock. */
    std::vector<uint32_t> sortedIds(bool uncovered_only) const;

    /** Requirement ids: group * 4 + ReqType. */
    Bits required_;
    Bits covered_;
};

} // namespace goat::analysis

#endif // GOAT_ANALYSIS_COVERAGE_HH
