#include "service/resilience.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/check.h"
#include "common/log.h"
#include "service/chaos.h"

namespace saffire {

namespace {

// SplitMix64 — the same mixer common/rng.h seeds with; good enough to turn
// (seed, campaign, experiment, attempt) into an unbiased jitter stream.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t HashExperiment(std::uint64_t seed, std::size_t campaign_index,
                             std::int64_t experiment_index) {
  std::uint64_t h = Mix64(seed ^ 0x7265736955ULL);
  h = Mix64(h ^ static_cast<std::uint64_t>(campaign_index));
  h = Mix64(h ^ static_cast<std::uint64_t>(experiment_index));
  return h;
}

}  // namespace

std::string ToString(OnFailure policy) {
  switch (policy) {
    case OnFailure::kQuarantine:
      return "quarantine";
    case OnFailure::kAbort:
      return "abort";
  }
  SAFFIRE_ASSERT_MSG(false, "policy " << static_cast<int>(policy));
}

OnFailure ParseOnFailure(const std::string& name) {
  if (name == "quarantine") return OnFailure::kQuarantine;
  if (name == "abort") return OnFailure::kAbort;
  SAFFIRE_CHECK_MSG(false, "unknown failure policy '"
                               << name << "' (expected quarantine|abort)");
}

void ResilienceOptions::Validate() const {
  SAFFIRE_CHECK_MSG(max_retries >= 0, "max_retries=" << max_retries);
  SAFFIRE_CHECK_MSG(experiment_timeout_ms >= 0,
                    "experiment_timeout_ms=" << experiment_timeout_ms);
  SAFFIRE_CHECK_MSG(selfcheck_rate >= 0.0 && selfcheck_rate <= 1.0,
                    "selfcheck_rate=" << selfcheck_rate);
  SAFFIRE_CHECK_MSG(backoff_base_ms >= 0 && backoff_cap_ms >= 0,
                    "backoff base=" << backoff_base_ms
                                    << " cap=" << backoff_cap_ms);
}

std::optional<CampaignEngine> FallbackEngine(CampaignEngine engine) {
  switch (engine) {
    case CampaignEngine::kPredicted:
      return CampaignEngine::kDifferential;
    case CampaignEngine::kDifferential:
      return CampaignEngine::kReference;
    case CampaignEngine::kReference:
      return std::nullopt;
  }
  return std::nullopt;
}

std::int64_t BackoffDelayMs(const ResilienceOptions& options,
                            std::uint64_t seed, std::size_t campaign_index,
                            std::int64_t experiment_index, int attempt) {
  if (options.backoff_base_ms <= 0) return 0;
  const int shift = std::min(attempt, 20);
  const std::int64_t exponential =
      std::min(options.backoff_cap_ms, options.backoff_base_ms << shift);
  const std::uint64_t h =
      Mix64(HashExperiment(seed, campaign_index, experiment_index) ^
            static_cast<std::uint64_t>(attempt));
  const std::int64_t jitter = static_cast<std::int64_t>(
      h % static_cast<std::uint64_t>(options.backoff_base_ms + 1));
  return exponential + jitter;
}

void SleepBackoff(const ResilienceOptions& options, std::uint64_t seed,
                  std::size_t campaign_index, std::int64_t experiment_index,
                  int attempt) {
  const std::int64_t delay_ms = BackoffDelayMs(options, seed, campaign_index,
                                               experiment_index, attempt);
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
}

bool SelfCheckSampled(double rate, std::uint64_t seed,
                      std::size_t campaign_index,
                      std::int64_t experiment_index) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  const std::uint64_t h =
      HashExperiment(seed ^ 0x73656C66ULL, campaign_index, experiment_index);
  // Top 53 bits → uniform double in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < rate;
}

namespace {

// Bumps one outcome tally, under the run's lock if shared, and its series.
// The series resolves at the first count, so a run that never retries
// exports no network retry series.
void Count(const ResilienceTally& tally, std::int64_t SweepOutcome::*field,
           const char* name, const char* help) {
  {
    std::unique_lock<std::mutex> lock;
    if (tally.mutex != nullptr) lock = std::unique_lock(*tally.mutex);
    ++(tally.outcome->*field);
  }
  tally.registry->GetCounter(name, help, tally.labels).Increment();
}

}  // namespace

void ResilienceTally::Retry() const {
  Count(*this, &SweepOutcome::retries, "saffire.resilience.retries",
        "failed experiment/batch attempts retried");
}

void ResilienceTally::Timeout() const {
  Count(*this, &SweepOutcome::timeouts, "saffire.resilience.timeouts",
        "experiment attempts that exceeded the deadline");
}

void ResilienceTally::Quarantine() const {
  Count(*this, &SweepOutcome::quarantined, "saffire.resilience.quarantined",
        "experiments quarantined after exhausting every retry");
}

bool RunResilient(const ResilienceOptions& options,
                  const ResilienceTally& tally, std::uint64_t seed,
                  std::size_t campaign_index, std::int64_t experiment_index,
                  const char* label, const LadderSteps& steps,
                  LadderFailure* failure) {
  int total_attempts = 0;
  bool timed_out = false;
  bool permanent = false;
  std::exception_ptr last_error;
  std::string last_what;
  do {
    for (int attempt = 0; attempt <= options.max_retries; ++attempt) {
      if (total_attempts > 0) {
        tally.Retry();
        SleepBackoff(options, seed, campaign_index, experiment_index,
                     total_attempts - 1);
      }
      ++total_attempts;
      try {
        // Clock before the chaos hook so an injected stall lands inside the
        // measured window, exactly like a real wedged attempt.
        std::chrono::steady_clock::time_point start;
        if (options.experiment_timeout_ms > 0) {
          start = std::chrono::steady_clock::now();
        }
        chaos::OnExperimentAttempt(campaign_index, experiment_index, attempt);
        steps.attempt();
        if (options.experiment_timeout_ms > 0) {
          const std::int64_t elapsed_ms =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
          if (elapsed_ms > options.experiment_timeout_ms) {
            // The deadline guard is cooperative: the attempt already
            // returned, but trusting one that stalled past its budget would
            // let a single wedged site consume the sweep — classify it
            // failed and retry.
            tally.Timeout();
            timed_out = true;
            last_error = nullptr;
            std::ostringstream os;
            os << "experiment " << experiment_index << " exceeded the "
               << options.experiment_timeout_ms << " ms deadline (took "
               << elapsed_ms << " ms)";
            last_what = os.str();
            continue;
          }
        }
        return true;
      } catch (const std::invalid_argument& error) {
        last_error = std::current_exception();
        last_what = error.what();
        timed_out = false;
        permanent = true;
        break;
      } catch (const std::exception& error) {
        last_error = std::current_exception();
        last_what = error.what();
        timed_out = false;
      }
    }
  } while (!permanent && steps.demote(total_attempts));
  if (options.on_failure == OnFailure::kAbort) {
    if (last_error != nullptr) std::rethrow_exception(last_error);
    throw std::runtime_error(last_what);
  }
  failure->attempts = total_attempts;
  failure->timed_out = timed_out;
  failure->error = last_what;
  tally.Quarantine();
  SAFFIRE_LOG_WARN << label << ' ' << campaign_index << " experiment "
                   << experiment_index << ": quarantined after "
                   << total_attempts << " attempts: " << last_what;
  return false;
}

}  // namespace saffire
