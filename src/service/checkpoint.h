// Checkpoint/resume for partial sweeps. The JSONL stream a JsonlRecordSink
// writes (service/sink.h) is loadable as a SweepCheckpoint: every record
// already on disk is replayed into the sinks instead of re-simulated, so an
// interrupted multi-hour sweep (the paper reports 49 h of FPGA fault
// injection, Sec. III-B) resumes from its last flushed line, and per-shard
// JSONL files from split runs merge back into the full sweep.
//
// The sealed-JSONL layer underneath (WriteSealedLine, ReadSealedLines) is
// shared by both sweep families: the network sweep's NetworkJsonlSink and
// LoadNetworkCheckpoint (service/network_sweep.h) write and read their own
// line types through the same two functions.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

#include "common/json.h"
#include "patterns/campaign.h"
#include "service/sweep.h"

namespace saffire {

// Checkpointed state of one campaign.
struct CheckpointCampaign {
  // CampaignKey of the config the records came from — the identity guard
  // ValidateCheckpoint matches against the plan being resumed.
  std::string key;
  std::int64_t total_experiments = 0;
  std::int64_t golden_cycles = 0;
  std::uint64_t golden_pe_steps = 0;
  // experiment index -> record; sparse (a shard checkpoints only its range).
  std::map<std::int64_t, ExperimentRecord> records;

  // True when the records are exactly {0, …, total_experiments − 1}. The
  // map is sorted, so size plus both endpoints proves density — a sparse
  // map of the right size but stray indices (e.g. 1…N) must not pass as
  // "complete", or a malformed entry could round-trip through the result
  // cache as a full campaign.
  bool Complete() const {
    if (static_cast<std::int64_t>(records.size()) != total_experiments) {
      return false;
    }
    return records.empty() ||
           (records.begin()->first == 0 &&
            records.rbegin()->first == total_experiments - 1);
  }
};

struct SweepCheckpoint {
  // plan campaign index -> checkpointed state.
  std::map<std::size_t, CheckpointCampaign> campaigns;

  // Merges another checkpoint (e.g. a different shard's JSONL) into this
  // one. Duplicate (campaign, experiment) entries must agree bit-for-bit;
  // conflicting duplicates or mismatched campaign keys throw.
  void MergeFrom(const SweepCheckpoint& other);

  // The checkpointed record, or nullptr when not covered.
  const ExperimentRecord* Find(std::size_t campaign_index,
                               std::int64_t experiment_index) const;

  std::int64_t TotalRecords() const;
};

// What LoadSweepCheckpoint saw while scanning a stream — surfaced by
// --resume so dropped corruption is visible, not silent.
struct CheckpointLoadStats {
  // Non-empty lines scanned.
  std::int64_t lines = 0;
  // "record" lines successfully rehydrated.
  std::int64_t records = 0;
  // Lines dropped: failed CRC, malformed JSON, or inconsistent content
  // (e.g. a record whose campaign line was itself dropped).
  std::int64_t dropped = 0;
};

// Parses a JSONL stream produced by JsonlRecordSink. Unknown line types
// ("sweep", "sweep_end", "failed") are ignored — quarantined experiments
// deliberately reload as "not yet simulated" so a resumed sweep retries
// them. Lines sealed with a "crc" member are verified against it; unsealed
// lines (format v1) load unchecked. Damaged lines — failed CRC, malformed
// or truncated JSON, content inconsistent with the lines before it — are
// dropped and counted in `stats` (never thrown): a checkpoint is a cache of
// work already done, and the worst case of dropping a line is re-simulating
// it, while trusting a damaged one poisons the merged output.
SweepCheckpoint LoadSweepCheckpoint(std::istream& in,
                                    CheckpointLoadStats* stats = nullptr);

// Verifies the checkpoint matches `plan`: every checkpointed campaign index
// exists in the plan, its key equals CampaignKey(plan.campaigns[i]), its
// experiment count equals the plan's site count, and record indices are in
// range. Throws std::invalid_argument on any mismatch — resuming records
// into the wrong sweep must fail loudly, never merge silently.
void ValidateCheckpoint(const SweepCheckpoint& checkpoint,
                        const CampaignPlan& plan);

// Verifies a single JSONL line's trailing "crc" seal when present; returns
// false only on a failed or malformed seal (unsealed lines pass — format v1
// files predate the seal).
bool CheckpointLineCrcOk(const std::string& line);

// Writes `body`, one complete JSON object, as a sealed line: its closing
// brace gives way to a final "crc" member, the CRC-32 of everything before
// it, so each line stays a standalone JSON object. `flush` makes the line
// durable at once, for lines a resume needs (records, failures, the end
// marker); each such flush counts in saffire.sink.jsonl_flushes.
void WriteSealedLine(std::ostream& out, std::string_view body, bool flush);

// Scans a sealed JSONL stream: every non-empty line that passes its seal
// and parses is handed to `apply`, which returns whether it rehydrated a
// record. Lines that fail the seal, the parse, or `apply` (by throwing
// std::invalid_argument) are dropped, logged under `label` and counted in
// the returned stats and in saffire.checkpoint.dropped_lines — never
// thrown.
CheckpointLoadStats ReadSealedLines(
    std::istream& in, const char* label,
    const std::function<bool(const JsonValue&)>& apply);

}  // namespace saffire
