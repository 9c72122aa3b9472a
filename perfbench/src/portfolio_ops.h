/**
 * @file
 * Portfolio traffic shared by the workloads: the prepared champion
 * portfolio, the answers dispatch queries got, and the check that
 * replays them against an in-process Dispatcher on the final portfolio.
 */

#ifndef PERFBENCH_PORTFOLIO_OPS_H
#define PERFBENCH_PORTFOLIO_OPS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/shared_cache.h"
#include "common.h"
#include "portfolio/portfolio.h"

namespace perfbench {

/** What one dispatch query was answered. */
struct DispatchAnswer
{
    bool ok = false;
    std::string policy; ///< "exact", "priced" (nearest size), "foreign"
    uint64_t configFingerprint = 0;
    uint64_t pricedBits = 0;
    int64_t startNs = 0;
};

/** Portfolio traffic measured alongside other work. */
struct PortfolioPass
{
    std::vector<DispatchAnswer> answers; ///< index-aligned with dispatches
    Samples dispatchMs;
    Samples tuneMs;
    /** Completion time of each benchmark's last portfolio write. */
    std::map<std::string, int64_t> lastWriteEndNs;
};

/** Tune every benchmark on every prepared machine into @p portfolio
 * (seeds from @p rng), sharing @p l2 when given. */
void preparePortfolio(petabricks::portfolio::ChampionPortfolio &portfolio,
                      SeedRng &rng,
                      petabricks::cache::SharedEvaluationCache *l2);

/** Dispatcher::dispatch for @p op, as the daemon's handler calls it. */
DispatchAnswer
dispatchInProcess(const PortfolioOp &op,
                  const petabricks::portfolio::ChampionPortfolio &portfolio);

/** PortfolioTuner::tune for @p op into @p portfolio, sharing @p l2. */
void tuneInProcess(const PortfolioOp &op,
                   petabricks::portfolio::ChampionPortfolio &portfolio,
                   petabricks::cache::SharedEvaluationCache *l2);

/**
 * The dispatch check. Queries on prepared machines never see a write,
 * so each must match an in-process Dispatcher on @p finalPortfolio;
 * a foreign-fallback query is checked when it started after the last
 * write of its benchmark. Returns the number of answers checked.
 */
int64_t checkDispatches(const std::vector<PortfolioOp> &dispatches,
                        const PortfolioPass &pass,
                        const petabricks::portfolio::ChampionPortfolio
                            &finalPortfolio,
                        Report &report);

/** portfolio.{exact,nearest,foreign}_ratio: the share of dispatches
 * each policy answered ("priced" is the nearest-size policy). */
void reportPolicyShares(const PortfolioPass &pass, Report &report);

} // namespace perfbench

#endif // PERFBENCH_PORTFOLIO_OPS_H
