#include "portfolio_ops.h"

#include <bit>

#include "benchmarks/registry.h"
#include "portfolio/dispatcher.h"
#include "tuner/portfolio_tuner.h"

namespace perfbench {

using namespace petabricks;

void
preparePortfolio(portfolio::ChampionPortfolio &portfolio, SeedRng &rng,
                 cache::SharedEvaluationCache *l2)
{
    tuner::PortfolioTuner tuner(portfolio, l2);
    for (const std::string &name : benchmarkNames()) {
        apps::BenchmarkPtr benchmark = apps::findBenchmark(name);
        for (const std::string &machine : preparedMachines()) {
            tuner::PortfolioTunerOptions options;
            options.tuner.seed = rng.tunerSeed();
            tuner.tune(*benchmark, sim::MachineProfile::byName(machine),
                       options);
        }
    }
}

DispatchAnswer
dispatchInProcess(const PortfolioOp &op,
                  const portfolio::ChampionPortfolio &portfolio)
{
    apps::BenchmarkPtr benchmark = apps::findBenchmark(op.benchmark);
    portfolio::Dispatcher dispatcher(portfolio);
    portfolio::DispatchDecision decision = dispatcher.dispatch(
        *benchmark, op.n, sim::MachineProfile::byName(op.machine));
    DispatchAnswer answer;
    answer.ok = true;
    answer.policy = decision.policy;
    answer.configFingerprint = decision.champion.configFingerprint;
    answer.pricedBits = std::bit_cast<uint64_t>(decision.pricedSeconds);
    return answer;
}

void
tuneInProcess(const PortfolioOp &op, portfolio::ChampionPortfolio &portfolio,
              cache::SharedEvaluationCache *l2)
{
    apps::BenchmarkPtr benchmark = apps::findBenchmark(op.benchmark);
    tuner::PortfolioTunerOptions options;
    options.tuner.seed = op.seed;
    tuner::PortfolioTuner(portfolio, l2)
        .tune(*benchmark, sim::MachineProfile::byName(op.machine), options);
}

int64_t
checkDispatches(const std::vector<PortfolioOp> &dispatches,
                const PortfolioPass &pass,
                const portfolio::ChampionPortfolio &finalPortfolio,
                Report &report)
{
    int64_t checked = 0;
    for (size_t i = 0; i < dispatches.size(); ++i) {
        const PortfolioOp &op = dispatches[i];
        const DispatchAnswer &got = pass.answers[i];
        if (!got.ok)
            continue; // counted as a failed operation already
        bool prepared = false;
        for (const std::string &machine : preparedMachines())
            prepared |= machine == op.machine;
        auto write = pass.lastWriteEndNs.find(op.benchmark);
        if (!prepared && write != pass.lastWriteEndNs.end() &&
            got.startNs < write->second)
            continue; // a write may have landed after this answer
        ++checked;
        DispatchAnswer want = dispatchInProcess(op, finalPortfolio);
        if (got.policy != want.policy ||
            got.configFingerprint != want.configFingerprint ||
            got.pricedBits != want.pricedBits)
            report.mismatch("dispatch of " + op.benchmark + " n=" +
                            std::to_string(op.n) + " on " + op.machine +
                            " answered " + got.policy +
                            ", in-process Dispatcher says " + want.policy);
    }
    return checked;
}

void
reportPolicyShares(const PortfolioPass &pass, Report &report)
{
    std::map<std::string, double> answers;
    double answered = 0;
    for (const DispatchAnswer &answer : pass.answers)
        if (answer.ok) {
            answers[answer.policy] += 1;
            answered += 1;
        }
    auto share = [&](const char *policy) {
        return answered > 0 ? answers[policy] / answered : 0.0;
    };
    report.set("portfolio.exact_ratio", share("exact"), "ratio");
    report.set("portfolio.nearest_ratio", share("priced"), "ratio");
    report.set("portfolio.foreign_ratio", share("foreign"), "ratio");
}

} // namespace perfbench
