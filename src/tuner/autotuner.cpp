#include "tuner/autotuner.hpp"

#include <cmath>

#include "telemetry/telemetry.hpp"

namespace antarex::tuner {

namespace {

/// Phase change: the relative deviation from the learned mean that raises
/// suspicion, and the consecutive suspicious reports that confirm it.
constexpr double kPhaseThreshold = 0.5;
constexpr int kPhaseConfirm = 2;

}  // namespace

Autotuner::Autotuner(DesignSpace space, std::unique_ptr<Strategy> strategy,
                     AutotunerConfig config, u64 seed)
    : space_(std::move(space)),
      strategy_(std::move(strategy)),
      config_(std::move(config)),
      rng_(seed) {
  ANTAREX_REQUIRE(space_.knob_count() > 0, "Autotuner: empty design space");
  ANTAREX_REQUIRE(strategy_ != nullptr, "Autotuner: null strategy");
  ANTAREX_REQUIRE(!config_.objective.empty(), "Autotuner: objective unnamed");
}

const Configuration& Autotuner::next_configuration() {
  // Calling next twice without a report keeps the same decision: the decide
  // step is driven by new knowledge, and there is none yet.
  if (!awaiting_report_) {
    TELEMETRY_SPAN("tuner.decide");
    current_ = strategy_->next(space_, knowledge_, config_.objective,
                               config_.minimize, rng_);
    ANTAREX_CHECK(space_.valid(current_), "Autotuner: strategy produced an "
                                          "invalid configuration");
    awaiting_report_ = true;
    poison_epoch_at_decide_ = telemetry::poison_epoch();
  }
  return current_;
}

void Autotuner::report(const std::map<std::string, double>& metrics) {
  TELEMETRY_SPAN("tuner.report");
  ANTAREX_REQUIRE(awaiting_report_,
                  "Autotuner: report() without a preceding next_configuration()");
  awaiting_report_ = false;
  if (measurement_poisoned()) {
    discard_one();
    return;
  }
  observe_one(current_, metrics);
}

std::vector<Configuration> Autotuner::next_batch(std::size_t k) {
  ANTAREX_REQUIRE(k >= 1, "Autotuner: next_batch needs k >= 1");
  ANTAREX_REQUIRE(!awaiting_report_ && pending_batch_.empty(),
                  "Autotuner: next_batch() while a report is outstanding");
  TELEMETRY_SPAN("tuner.decide");
  pending_batch_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    Configuration c = strategy_->next(space_, knowledge_, config_.objective,
                                      config_.minimize, rng_);
    ANTAREX_CHECK(space_.valid(c), "Autotuner: strategy produced an "
                                   "invalid configuration");
    pending_batch_.push_back(std::move(c));
  }
  poison_epoch_at_decide_ = telemetry::poison_epoch();
  return pending_batch_;
}

void Autotuner::report_batch(
    const std::vector<std::map<std::string, double>>& metrics) {
  TELEMETRY_SPAN("tuner.report");
  ANTAREX_REQUIRE(!pending_batch_.empty(),
                  "Autotuner: report_batch() without a preceding next_batch()");
  ANTAREX_REQUIRE(metrics.size() == pending_batch_.size(),
                  "Autotuner: report_batch() size does not match next_batch()");
  if (measurement_poisoned()) {
    // A glitch anywhere in the batch window taints the whole batch — the
    // measurements ran concurrently, so there is no telling which were hit.
    for (std::size_t i = 0; i < metrics.size(); ++i) discard_one();
  } else {
    for (std::size_t i = 0; i < metrics.size(); ++i)
      observe_one(pending_batch_[i], metrics[i]);
  }
  pending_batch_.clear();
}

bool Autotuner::measurement_poisoned() const {
  return telemetry::poison_epoch() != poison_epoch_at_decide_;
}

void Autotuner::discard_one() {
  ++samples_discarded_;
  TELEMETRY_COUNT("tuner.samples_discarded", 1);
}

void Autotuner::observe_one(const Configuration& config,
                            const std::map<std::string, double>& metrics) {
  auto it = metrics.find(config_.objective);
  ANTAREX_REQUIRE(it != metrics.end(),
                  "Autotuner: metrics missing objective '" + config_.objective + "'");
  const double y = it->second;
  TELEMETRY_COUNT("tuner.iterations", 1);
  TELEMETRY_GAUGE("tuner.objective", y);

  // Phase-change detection against learned knowledge.
  const auto learned = knowledge_.mean(config, config_.objective);
  if (learned) TELEMETRY_COUNT("tuner.kb_hits", 1);
  if (learned && knowledge_.samples(config) >= config_.min_samples_for_phase) {
    const double denom = std::max(1e-12, std::fabs(*learned));
    if (std::fabs(y - *learned) / denom > kPhaseThreshold) {
      if (++phase_suspicion_ >= kPhaseConfirm) {
        knowledge_.clear();
        strategy_->reset();
        ++phase_changes_;
        phase_suspicion_ = 0;
        TELEMETRY_COUNT("tuner.phase_changes", 1);
      }
    } else {
      phase_suspicion_ = 0;
    }
  }

  Measurement m;
  m.config = config;
  m.metrics = metrics;
  knowledge_.observe(m);
  strategy_->observe(space_, config, y);

  ++iterations_;
}

std::optional<Configuration> Autotuner::best() const {
  return knowledge_.best(config_.objective, config_.minimize, config_.goals);
}

void Autotuner::seed_knowledge(const std::string& exported_text) {
  Knowledge incoming;
  incoming.import_text(exported_text);
  for (const Configuration& c : incoming.configs())
    ANTAREX_REQUIRE(space_.valid(c),
                    "Autotuner::seed_knowledge: imported configuration does "
                    "not fit this design space");
  knowledge_.import_text(exported_text);
}

}  // namespace antarex::tuner
