#include "patterns/compact_sequences.h"

#include <algorithm>

#include "common/check.h"
#include "common/telemetry.h"
#include "itemsets/model_io.h"
#include "persistence/block_codec.h"
#include "tidlist/history_block.h"

namespace demon {

const PairwiseSimilarity& CompactSequenceMiner::Similarity(size_t i,
                                                           size_t j) const {
  DEMON_CHECK(i != j);
  if (i > j) std::swap(i, j);
  DEMON_CHECK(j < pair_.size());
  return pair_[j][i];
}

void CompactSequenceMiner::AddBlock(
    std::shared_ptr<const TransactionBlock> block) {
  DEMON_TRACE_SPAN(span, telemetry_, "patterns-add", "patterns");
  telemetry::ScopedTimer timer(add_hist_);
  last_scan_count_ = 0;

  const size_t t = blocks_.size();
  blocks_.push_back(block);
  models_.push_back(focus_.MineModel(*block));

  // Augment the deviation matrix with row t (paper §4: deviations of
  // D_{t+1} against every earlier in-window block; earlier models come
  // from cache).
  std::vector<PairwiseSimilarity> row(t);
  for (size_t i = window_start_; i < t; ++i) {
    row[i].deviation = focus_.CompareWithModels(*blocks_[i], models_[i],
                                                *blocks_[t], models_[t]);
    row[i].similar = row[i].deviation.significance < options_.alpha;
    if (row[i].deviation.scanned_blocks) ++last_scan_count_;
  }
  pair_.push_back(std::move(row));

  // Most-recent-window variant (footnote 9): evict blocks that fell out
  // of the window and rebuild the sequence set from the cached matrix.
  if (options_.window_size > 0 && t + 1 > options_.window_size) {
    const size_t new_start = t + 1 - options_.window_size;
    for (size_t i = window_start_; i < new_start; ++i) {
      blocks_[i].reset();
      models_[i] = ItemsetModel();
    }
    window_start_ = new_start;
    RebuildSequences();
    last_add_seconds_ = timer.Stop();
    return;
  }

  // Extend every sequence whose extension with block t stays compact.
  for (std::vector<size_t>& sequence : sequences_) {
    // (1) t must be similar to every member.
    bool all_similar = true;
    for (size_t member : sequence) {
      if (!Similar(member, t)) {
        all_similar = false;
        break;
      }
    }
    if (!all_similar) continue;
    // (2) no holes: every block strictly between the old tail and t that
    // is skipped must be dissimilar to at least one member before it.
    // (Gaps inside the old sequence were validated when it was formed.)
    bool no_holes = true;
    for (size_t skipped = sequence.back() + 1; skipped < t && no_holes;
         ++skipped) {
      bool excused = false;
      for (size_t member : sequence) {
        if (member < skipped && !Similar(member, skipped)) {
          excused = true;
          break;
        }
      }
      no_holes = excused;
    }
    if (no_holes) sequence.push_back(t);
  }
  // The new singleton sequence G_{t+1}.
  sequences_.push_back({t});

  last_add_seconds_ = timer.Stop();
}

void CompactSequenceMiner::RebuildSequences() {
  // Replay the inductive construction over the in-window blocks using the
  // retained similarity matrix — no deviations are recomputed. This keeps
  // the same semantics as the unrestricted algorithm restricted to the
  // window (a plain suffix-trim of a compact sequence can violate the
  // no-holes condition, so trimming is not enough).
  sequences_.clear();
  const size_t end = blocks_.size();
  for (size_t t = window_start_; t < end; ++t) {
    for (std::vector<size_t>& sequence : sequences_) {
      bool all_similar = true;
      for (size_t member : sequence) {
        if (!Similar(member, t)) {
          all_similar = false;
          break;
        }
      }
      if (!all_similar) continue;
      bool no_holes = true;
      for (size_t skipped = sequence.back() + 1; skipped < t && no_holes;
           ++skipped) {
        bool excused = false;
        for (size_t member : sequence) {
          if (member < skipped && !Similar(member, skipped)) {
            excused = true;
            break;
          }
        }
        no_holes = excused;
      }
      if (no_holes) sequence.push_back(t);
    }
    sequences_.push_back({t});
  }
}

bool CompactSequenceMiner::IsCompact(
    const std::vector<size_t>& sequence) const {
  if (sequence.empty()) return false;
  // (1) pairwise similarity.
  for (size_t a = 0; a < sequence.size(); ++a) {
    for (size_t b = a + 1; b < sequence.size(); ++b) {
      if (!Similar(sequence[a], sequence[b])) return false;
    }
  }
  // (2) no holes between first and last.
  for (size_t candidate = sequence.front() + 1; candidate < sequence.back();
       ++candidate) {
    if (std::binary_search(sequence.begin(), sequence.end(), candidate)) {
      continue;
    }
    bool excused = false;
    for (size_t member : sequence) {
      if (member >= candidate) break;
      if (!Similar(member, candidate)) {
        excused = true;
        break;
      }
    }
    if (!excused) return false;
  }
  return true;
}

void CompactSequenceMiner::SaveState(persistence::Writer& w) const {
  w.WriteU64(window_start_);
  w.WriteU64(blocks_.size());
  for (const auto& block : blocks_) {
    w.WriteBool(block != nullptr);
    if (block != nullptr) w.WriteU32(block->info().id);
  }
  // Cached models only exist for in-window blocks (evicted ones were
  // released); absent positions restore to the empty model.
  for (size_t i = 0; i < blocks_.size(); ++i) {
    if (blocks_[i] != nullptr) SerializeItemsetModel(w, models_[i]);
  }
  for (const auto& row : pair_) {
    for (const PairwiseSimilarity& sim : row) {
      w.WriteDouble(sim.deviation.deviation);
      w.WriteDouble(sim.deviation.significance);
      w.WriteU64(sim.deviation.num_regions);
      w.WriteBool(sim.deviation.scanned_blocks);
      w.WriteBool(sim.similar);
    }
  }
  w.WriteU64(sequences_.size());
  for (const auto& sequence : sequences_) {
    w.WriteU64(sequence.size());
    for (const size_t index : sequence) w.WriteU64(index);
  }
}

Status CompactSequenceMiner::LoadState(persistence::Reader& r) {
  if (!blocks_.empty()) {
    return Status::FailedPrecondition(
        "pattern-miner state can only be restored into a fresh miner");
  }
  const persistence::BlockSource* source = r.block_source();
  if (source == nullptr || !source->transactions) {
    return Status::FailedPrecondition(
        "no transaction block source bound to the reader");
  }
  window_start_ = r.ReadU64();
  const size_t num_blocks = r.ReadLength(1);
  if (!r.ok()) return r.status();
  if (window_start_ > num_blocks) {
    return Status::DataLoss("pattern-miner window start past the blocks");
  }
  blocks_.reserve(num_blocks);
  for (size_t i = 0; i < num_blocks; ++i) {
    const bool present = r.ReadBool();
    if (!r.ok()) return r.status();
    if (!present) {
      blocks_.emplace_back();
      continue;
    }
    const BlockId id = r.ReadU32();
    if (!r.ok()) return r.status();
    DEMON_ASSIGN_OR_RETURN(auto block, source->transactions(id));
    blocks_.push_back(block->Transactions());
  }
  models_.resize(num_blocks);
  for (size_t i = 0; i < num_blocks; ++i) {
    if (blocks_[i] == nullptr) continue;
    DeserializeItemsetModel(r, options_.focus.num_items, &models_[i]);
    if (!r.ok()) return r.status();
  }
  pair_.resize(num_blocks);
  for (size_t j = 0; j < num_blocks; ++j) {
    pair_[j].resize(j);
    for (size_t i = 0; i < j; ++i) {
      PairwiseSimilarity& sim = pair_[j][i];
      sim.deviation.deviation = r.ReadDouble();
      sim.deviation.significance = r.ReadDouble();
      sim.deviation.num_regions = r.ReadU64();
      sim.deviation.scanned_blocks = r.ReadBool();
      sim.similar = r.ReadBool();
    }
    if (!r.ok()) return r.status();
  }
  const size_t num_sequences = r.ReadLength(sizeof(uint64_t));
  if (!r.ok()) return r.status();
  sequences_.resize(num_sequences);
  for (size_t s = 0; s < num_sequences; ++s) {
    const size_t length = r.ReadLength(sizeof(uint64_t));
    if (!r.ok()) return r.status();
    sequences_[s].reserve(length);
    for (size_t i = 0; i < length; ++i) {
      const uint64_t index = r.ReadU64();
      if (index >= num_blocks) {
        return Status::DataLoss("sequence references a block out of range");
      }
      sequences_[s].push_back(static_cast<size_t>(index));
    }
  }
  return r.status();
}

std::vector<std::vector<size_t>> CompactSequenceMiner::MaximalSequences(
    size_t min_length) const {
  std::vector<std::vector<size_t>> result;
  for (size_t i = 0; i < sequences_.size(); ++i) {
    const auto& candidate = sequences_[i];
    if (candidate.size() < min_length) continue;
    bool dominated = false;
    for (size_t j = 0; j < sequences_.size() && !dominated; ++j) {
      if (i == j) continue;
      const auto& other = sequences_[j];
      if (other.size() > candidate.size()) {
        dominated = std::includes(other.begin(), other.end(),
                                  candidate.begin(), candidate.end());
      } else if (j < i && other == candidate) {
        dominated = true;  // exact duplicate, keep the earliest
      }
    }
    if (!dominated) result.push_back(candidate);
  }
  return result;
}

}  // namespace demon
