#include "service/chaos.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/strings.h"

namespace saffire {
namespace chaos {

namespace {

std::atomic<bool> g_enabled{false};
ChaosSpec g_spec;  // Written only while g_enabled is false (Install/Clear).

bool Hits(int every, std::int64_t index) {
  return every > 0 && index % every == 0;
}

}  // namespace

void Install(const ChaosSpec& spec) {
  g_enabled.store(false, std::memory_order_relaxed);
  g_spec = spec;
  g_enabled.store(true, std::memory_order_release);
}

void Clear() {
  g_enabled.store(false, std::memory_order_relaxed);
  g_spec = ChaosSpec{};
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

ChaosSpec ActiveSpec() { return Enabled() ? g_spec : ChaosSpec{}; }

ChaosSpec ParseChaosSpec(const std::string& text) {
  ChaosSpec spec;
  for (const std::string& part : Split(text, ',')) {
    if (Trim(part).empty()) continue;
    const std::vector<std::string> kv = Split(part, '=');
    SAFFIRE_CHECK_MSG(kv.size() == 2,
                      "chaos entry '" << part << "' is not key=value");
    const std::string key = Trim(kv[0]);
    const std::int64_t value = ParseInt(kv[1]);
    if (key == "experiment_throw_every") {
      spec.experiment_throw_every = NarrowInt<int>(value);
    } else if (key == "experiment_throw_attempts") {
      spec.experiment_throw_attempts = NarrowInt<int>(value);
    } else if (key == "batch_fail_every") {
      spec.batch_fail_every = NarrowInt<int>(value);
    } else if (key == "stall_every") {
      spec.stall_every = NarrowInt<int>(value);
    } else if (key == "stall_ms") {
      spec.stall_ms = value;
    } else if (key == "selfcheck_lie_every") {
      spec.selfcheck_lie_every = NarrowInt<int>(value);
    } else if (key == "sink_throw_every") {
      spec.sink_throw_every = NarrowInt<int>(value);
    } else {
      SAFFIRE_CHECK_MSG(false, "unknown chaos key '" << key << "'");
    }
  }
  return spec;
}

bool InstallFromEnv() {
  const char* env = std::getenv("SAFFIRE_CHAOS");
  if (env == nullptr || *env == '\0') return false;
  Install(ParseChaosSpec(env));
  return true;
}

void OnExperimentAttempt(std::size_t campaign_index,
                         std::int64_t experiment_index, int attempt) {
  if (!Enabled()) return;
  const ChaosSpec& spec = g_spec;
  if (attempt == 0 && Hits(spec.stall_every, experiment_index) &&
      spec.stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(spec.stall_ms));
  }
  if (Hits(spec.experiment_throw_every, experiment_index) &&
      attempt < spec.experiment_throw_attempts) {
    std::ostringstream os;
    os << "chaos: injected experiment failure (campaign " << campaign_index
       << ", experiment " << experiment_index << ", attempt " << attempt
       << ")";
    throw ChaosError(os.str());
  }
}

void OnBatchAttempt(std::size_t campaign_index, int attempt) {
  if (!Enabled()) return;
  const ChaosSpec& spec = g_spec;
  if (Hits(spec.batch_fail_every,
           static_cast<std::int64_t>(campaign_index))) {
    std::ostringstream os;
    os << "chaos: injected batch failure (campaign " << campaign_index
       << ", attempt " << attempt << ")";
    throw ChaosError(os.str());
  }
}

bool ForceSelfCheckMismatch(std::size_t campaign_index) {
  if (!Enabled()) return false;
  return Hits(g_spec.selfcheck_lie_every,
              static_cast<std::int64_t>(campaign_index));
}

void FlipByteInFile(const std::string& path, std::int64_t offset) {
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  SAFFIRE_CHECK_MSG(file.good(), "cannot open '" << path << "'");
  file.seekg(offset);
  char byte = 0;
  file.read(&byte, 1);
  SAFFIRE_CHECK_MSG(file.good(),
                    "cannot read '" << path << "' at offset " << offset);
  byte = static_cast<char>(byte ^ 0x04);
  file.seekp(offset);
  file.write(&byte, 1);
  SAFFIRE_CHECK_MSG(file.good(),
                    "cannot write '" << path << "' at offset " << offset);
}

void TruncateFileTo(const std::string& path, std::int64_t size) {
  std::error_code ec;
  std::filesystem::resize_file(path, static_cast<std::uintmax_t>(size), ec);
  SAFFIRE_CHECK_MSG(!ec, "cannot truncate '" << path << "' to " << size
                                             << " bytes: " << ec.message());
}

FlakySink::FlakySink(RecordSink* inner, int throw_every)
    : inner_(inner), throw_every_(throw_every) {
  SAFFIRE_CHECK(inner != nullptr);
  SAFFIRE_CHECK_MSG(throw_every > 0, "throw_every=" << throw_every);
}

void FlakySink::OnSweepBegin(const CampaignPlan& plan) {
  inner_->OnSweepBegin(plan);
}

void FlakySink::OnCampaignBegin(const CampaignBeginInfo& info) {
  inner_->OnCampaignBegin(info);
}

void FlakySink::OnRecord(const CampaignBeginInfo& info,
                         std::int64_t experiment_index,
                         const ExperimentRecord& record) {
  ++seen_;
  if (seen_ % throw_every_ == 0) {
    std::ostringstream os;
    os << "chaos: injected sink failure (record " << seen_ << ")";
    throw ChaosError(os.str());
  }
  inner_->OnRecord(info, experiment_index, record);
  ++forwarded_;
}

void FlakySink::OnExperimentFailed(const CampaignBeginInfo& info,
                                   const FailedRecord& failure) {
  inner_->OnExperimentFailed(info, failure);
}

void FlakySink::OnCampaignEnd(const CampaignBeginInfo& info) {
  inner_->OnCampaignEnd(info);
}

void FlakySink::OnSweepEnd() { inner_->OnSweepEnd(); }

NetworkFlakySink::NetworkFlakySink(NetworkRecordSink* inner, int throw_every)
    : inner_(inner), throw_every_(throw_every) {
  SAFFIRE_CHECK(inner != nullptr);
  SAFFIRE_CHECK_MSG(throw_every > 0, "throw_every=" << throw_every);
}

void NetworkFlakySink::OnSweepBegin(const NetworkSweepSpec& spec,
                                    const NetworkCampaignPlan& plan) {
  inner_->OnSweepBegin(spec, plan);
}

void NetworkFlakySink::OnCampaignBegin(const NetworkCampaignInfo& info) {
  inner_->OnCampaignBegin(info);
}

void NetworkFlakySink::OnRecord(const NetworkRecord& record) {
  ++seen_;
  if (seen_ % throw_every_ == 0) {
    std::ostringstream os;
    os << "chaos: injected network sink failure (record " << seen_ << ")";
    throw ChaosError(os.str());
  }
  inner_->OnRecord(record);
  ++forwarded_;
}

void NetworkFlakySink::OnExperimentFailed(const NetworkFailedRecord& failed) {
  inner_->OnExperimentFailed(failed);
}

void NetworkFlakySink::OnCampaignEnd(std::size_t campaign_index) {
  inner_->OnCampaignEnd(campaign_index);
}

void NetworkFlakySink::OnSweepEnd(const SweepOutcome& outcome) {
  inner_->OnSweepEnd(outcome);
}

}  // namespace chaos
}  // namespace saffire
