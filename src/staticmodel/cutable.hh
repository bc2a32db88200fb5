/**
 * @file
 * The CU table: GoAT's static model M — the set of concurrency usage
 * points of a program, keyed by (file basename, line).
 */

#ifndef GOAT_STATICMODEL_CUTABLE_HH
#define GOAT_STATICMODEL_CUTABLE_HH

#include <string>
#include <vector>

#include "staticmodel/cu.hh"

namespace goat::staticmodel {

/**
 * Ordered, de-duplicated collection of concurrency usages.
 */
class CuTable
{
  public:
    /** Insert a CU (ignored when already present). */
    void add(const Cu &cu);

    /** Merge another table into this one. */
    void merge(const CuTable &other);

    /**
     * Find the CU at a source location (file basename + line).
     *
     * @retval nullptr when the location carries no known CU.
     * @note A line may carry several CUs of different kinds (e.g.
     *       `go([&]{ c.send(1); })`); this returns the first.
     */
    const Cu *find(const SourceLoc &loc) const;

    /**
     * Every CU at a source location, in kind order — the multi-CU
     * companion to find() for lines like `go([&]{ c.send(1); })`.
     */
    std::vector<const Cu *> findAll(const SourceLoc &loc) const;

    /** All CUs, sorted by (file, line, kind). */
    const std::vector<Cu> &all() const { return cus_; }

    size_t size() const { return cus_.size(); }
    bool empty() const { return cus_.empty(); }

    /** Printable rendering (one CU per line), as the paper's tables. */
    std::string str() const;

  private:
    std::vector<Cu> cus_;
};

} // namespace goat::staticmodel

#endif // GOAT_STATICMODEL_CUTABLE_HH
