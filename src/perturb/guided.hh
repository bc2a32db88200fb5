/**
 * @file
 * Coverage-guided schedule perturbation — the extension the paper's
 * §VI sketches as future work: instead of yielding uniformly at
 * random, "take control of the scheduler and guide testing towards
 * untested interleavings".
 *
 * The policy consults the cumulative CoverageState: a concurrency
 * usage that still has uncovered requirements is a *hot* point (a
 * yield there plausibly flips blocked/unblocking/NOP behaviour that
 * has never been observed), so the perturber yields there with high
 * probability; fully covered CUs are *cold* and rarely worth a yield.
 * The yield budget D still bounds total perturbation per execution.
 */

#ifndef GOAT_PERTURB_GUIDED_HH
#define GOAT_PERTURB_GUIDED_HH

#include <set>
#include <string>
#include <vector>

#include "analysis/coverage.hh"
#include "base/rng.hh"
#include "perturb/perturb.hh"
#include "runtime/scheduler.hh"
#include "staticmodel/cu.hh"

namespace goat::perturb {

/**
 * Coverage-guided bounded yield policy, one instance per execution;
 * the referenced CoverageState persists across iterations.
 */
class GuidedPerturber
{
  public:
    /**
     * @param cov Cumulative coverage state (not owned; must outlive
     *            the perturber). May be null when the policy runs on
     *            priority sites alone (see setPrioritySites()).
     * @param bound Maximum injected yields per execution.
     * @param seed Seed for the yield decisions.
     * @param hot_prob Yield probability at CUs with uncovered
     *                 requirements.
     * @param cold_prob Yield probability at fully covered CUs.
     */
    GuidedPerturber(const analysis::CoverageState *cov, int bound,
                    uint64_t seed, double hot_prob = 0.6,
                    double cold_prob = 0.05)
        : cov_(cov), bound_(bound), hotProb_(hot_prob),
          coldProb_(cold_prob), rng_(seed ^ 0x67756964ull)
    {}

    /**
     * Seed statically flagged CU sites (from the lint pass) that the
     * policy should treat as maximally interesting: yields there fire
     * with @p priority_prob regardless of coverage state. Unlike the
     * coverage feedback this input is fixed across iterations, so a
     * priority-only policy stays a pure function of the seed.
     */
    void
    setPrioritySites(const std::vector<SourceLoc> &sites,
                     double priority_prob = 0.9)
    {
        priorityProb_ = priority_prob;
        for (const auto &loc : sites)
            priority_.insert(loc.str());
    }

    /**
     * Without a coverage state (a priority-only policy), judge the
     * other sites by the static model @p statics (not owned): a site
     * is hot when the model demands requirements there — exactly what
     * a never-folded CoverageState(*statics) reports — so the policy
     * stays a pure function of the seed.
     */
    void
    setStaticModel(const staticmodel::CuTable *statics)
    {
        statics_ = statics;
    }

    /** The goat.handler() decision. */
    bool
    shouldYield(staticmodel::CuKind kind, const SourceLoc &loc)
    {
        if (used_ >= bound_) {
            detail::tally(&runtime::SchedTallies::perturbSkipped);
            return false;
        }
        double prob;
        if (!priority_.empty() && priority_.count(loc.str())) {
            detail::tally(&runtime::SchedTallies::guidedHot);
            prob = priorityProb_;
        } else {
            bool hot = cov_ ? cov_->uncoveredAtLoc(loc) > 0
                            : staticallyHot(loc);
            detail::tally(hot ? &runtime::SchedTallies::guidedHot
                              : &runtime::SchedTallies::guidedCold);
            prob = hot ? hotProb_ : coldProb_;
        }
        if (!rng_.chance(prob)) {
            detail::tally(&runtime::SchedTallies::perturbSkipped);
            return false;
        }
        ++used_;
        detail::tally(&runtime::SchedTallies::perturbInjected);
        return true;
    }

    /** Install this policy on a scheduler configuration. */
    runtime::PerturbHook
    hook()
    {
        return [this](staticmodel::CuKind k, const SourceLoc &l) {
            return shouldYield(k, l);
        };
    }

    int used() const { return used_; }

  private:
    bool
    staticallyHot(const SourceLoc &loc) const
    {
        if (statics_)
            for (const staticmodel::Cu &cu : statics_->all())
                if (cu.loc == loc && analysis::reqTemplate(cu.kind))
                    return true;
        return false;
    }

    const analysis::CoverageState *cov_; ///< May be null: priority-only.
    const staticmodel::CuTable *statics_ = nullptr;
    int bound_;
    double hotProb_;
    double coldProb_;
    double priorityProb_ = 0.9;
    std::set<std::string> priority_; ///< "file:line" lint sites.
    int used_ = 0;
    Rng rng_;
};

} // namespace goat::perturb

#endif // GOAT_PERTURB_GUIDED_HH
