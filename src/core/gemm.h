#ifndef DEMON_CORE_GEMM_H_
#define DEMON_CORE_GEMM_H_

#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/audit.h"
#include "common/check.h"
#include "common/status.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "core/bss.h"
#include "data/types.h"
#include "persistence/serializer.h"

namespace demon {

/// \brief GEMM, the GEneric Model Maintainer (paper §3.2): lifts any
/// incremental model maintenance algorithm A_M for the unrestricted-window
/// option to the most-recent-window option of size w, under both
/// window-independent and window-relative block selection sequences.
///
/// `Maintainer` is any type with `void AddBlock(BlockPtr)` that evolves a
/// model by absorbing blocks (e.g. BordersMaintainer, ClusterMaintainer)
/// and `void Reset()` that returns it to the state the factory produces.
/// GEMM never deletes from a model: it keeps one maintainer per future
/// window overlapping the current one (w models in total), each fed only
/// the blocks its projected/right-shifted BSS selects. When a block
/// arrives, the model whose window just became current needs exactly one
/// A_M invocation — so the response time equals A_M's (§3.2.3) — and the
/// remaining models can be brought up to date off-line. Window models
/// share nothing but the immutable blocks and the bound thread pool, so
/// the off-line updates run concurrently on that pool and leave every
/// model byte for byte as a serial drain in window order would. The
/// window model that retires as the window slides is reset and reused for
/// the newest future window, so its arrays keep their capacity instead of
/// being freed and grown again.
///
/// The current model is `current().model()`. The time split between the
/// time-critical update and the off-line ones is recorded by the caller
/// (the MaintenanceEngine's per-monitor histograms, surfaced through
/// `MonitorStats`) — GEMM itself only emits trace spans, one per window
/// model it touches, when a telemetry registry is bound.
template <typename Maintainer, typename BlockPtr>
class Gemm {
 public:
  using Factory = std::function<Maintainer()>;

  /// `bss` may be window-independent or window-relative; a window-relative
  /// BSS must have exactly `window_size` bits.
  Gemm(BlockSelectionSequence bss, size_t window_size, Factory factory)
      : bss_(std::move(bss)),
        window_size_(window_size),
        factory_(std::move(factory)) {
    DEMON_CHECK(window_size_ >= 1);
    if (bss_.is_window_relative()) {
      DEMON_CHECK_MSG(bss_.window_bits().size() == window_size_,
                      "window-relative BSS must have w bits");
    }
  }

  /// Feeds the next block (ids are implicit: 1, 2, ... in call order):
  /// the time-critical current-model update followed inline by the
  /// future-window updates.
  void AddBlock(BlockPtr block) {
    BeginBlock(std::move(block));
    DrainOffline();
  }

  /// The time-critical half of AddBlock (§3.2.3's response path): retires
  /// the model whose window slid out and reuses it for the future window
  /// starting at this block, then updates only the model whose window just
  /// became current — exactly one A_M invocation. The future-window
  /// updates are left pending until DrainOffline(); they must be drained
  /// before the next BeginBlock (calling BeginBlock with work still
  /// pending drains it inline first).
  void BeginBlock(BlockPtr block) {
    DrainOffline();
    ++t_;
    const BlockId current_start =
        t_ >= window_size_ ? static_cast<BlockId>(t_ - window_size_ + 1) : 1;
    // Window starts are consecutive, so at most the oldest model retires.
    if (!models_.empty() && models_.front().start < current_start) {
      Entry recycled = std::move(models_.front());
      models_.pop_front();
      recycled.start = static_cast<BlockId>(t_);
      recycled.maintainer.Reset();
      models_.push_back(std::move(recycled));
    } else {
      models_.push_back({static_cast<BlockId>(t_), factory_()});
    }
    DEMON_CHECK(models_.front().start >= current_start);

    if (ShouldInclude(models_.front().start)) {
      DEMON_TRACE_SPAN(span, telemetry_,
                       "window@" + std::to_string(models_.front().start),
                       "gemm");
      models_.front().maintainer.AddBlock(block);
    }
    pending_ = std::move(block);
    has_pending_ = true;
  }

  /// The deferrable half: brings every future-window model up to date with
  /// the block last passed to BeginBlock, concurrently on the bound pool
  /// (serially without one). No-op when nothing is pending.
  void DrainOffline() {
    if (!has_pending_) return;
    DEMON_TRACE_SPAN(drain_span, telemetry_, "gemm-offline", "gemm");
    [[maybe_unused]] const uint64_t drain_span_id = DEMON_SPAN_ID(drain_span);
    std::vector<Entry*> due;
    for (size_t i = 1; i < models_.size(); ++i) {
      if (ShouldInclude(models_[i].start)) due.push_back(&models_[i]);
    }
    ParallelFor(pool_, due.size(), [&](size_t i) {
      // Workers have an empty span stack, so the parent travels explicitly.
      DEMON_TRACE_SPAN_UNDER(span, telemetry_,
                             "window@" + std::to_string(due[i]->start),
                             "gemm", drain_span_id);
      due[i]->maintainer.AddBlock(pending_);
    });
    pending_ = BlockPtr();
    has_pending_ = false;
  }

  /// Whether future-window updates from the last BeginBlock are pending.
  bool has_offline_work() const { return has_pending_; }

  /// The maintainer of the current window's model.
  const Maintainer& current() const {
    DEMON_CHECK(!models_.empty());
    return models_.front().maintainer;
  }

  /// Number of models currently maintained (w once t >= w; paper §3.2).
  size_t NumModels() const { return models_.size(); }

  /// Latest block id fed in (t).
  BlockId latest_block() const { return static_cast<BlockId>(t_); }

  /// Pool the off-line drain updates window models on (not owned;
  /// nullable; null drains serially). The maintainers may share it for
  /// their own fan-out: ParallelFor nests safely.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// Registry receiving GEMM's per-window-model spans (nullable; null
  /// disables tracing). No-op in DEMON_TELEMETRY=OFF builds. Response and
  /// offline *timings* are the caller's job — the engine's per-monitor
  /// histograms replaced GEMM's former duplicate last_*_seconds fields.
  void set_telemetry(
      [[maybe_unused]] telemetry::TelemetryRegistry* registry) {
    if constexpr (telemetry::kEnabled) telemetry_ = registry;
  }

  /// Whether the BSS selects `block` for the window starting at `start` —
  /// the projected/right-shifted selection rule of §3.2.2, exposed so
  /// auditors can recompute which blocks each window model must cover.
  bool WouldSelect(BlockId start, BlockId block) const {
    if (block < start || block >= start + window_size_) return false;
    if (!bss_.is_window_relative()) return bss_.SelectsBlock(block);
    return bss_.window_bits()[block - start];
  }

  /// The block ids the model starting at `start` must have absorbed by
  /// now: every arrived block its (shifted) BSS selects.
  std::vector<BlockId> ExpectedSelection(BlockId start) const {
    std::vector<BlockId> ids;
    for (BlockId block = start; block <= static_cast<BlockId>(t_); ++block) {
      if (WouldSelect(start, block)) ids.push_back(block);
    }
    return ids;
  }

  /// Per-model audit callback: (window start, the blocks the BSS says the
  /// model must cover, the maintainer, the result to append to).
  using PerModelAuditor = std::function<void(
      BlockId, const std::vector<BlockId>&, const Maintainer&,
      audit::AuditResult*)>;

  /// Deep audit of the window bookkeeping (§3.2.2–3.2.3): no pending
  /// offline work at a block boundary, exactly min(t, w) materialized
  /// models, with consecutive window starts ending at the newest block.
  /// When `per_model` is provided it is invoked for every model with the
  /// block ids its shifted BSS selects, so typed adapters can verify the
  /// model covers *exactly* those blocks.
  void AuditInto(audit::AuditResult* audit,
                 const PerModelAuditor& per_model = nullptr) const {
    constexpr char kModule[] = "gemm";
    AUDIT_CHECK(audit, kModule, "gemm/no-pending-at-boundary", !has_pending_,
                "future-window updates still pending at a block boundary",
                "");
    if (t_ == 0) {
      AUDIT_CHECK(audit, kModule, "gemm/model-count", models_.empty(),
                  "models materialized before any block arrived", "");
      return;
    }
    const size_t expected_models = t_ < window_size_ ? t_ : window_size_;
    AUDIT_CHECK(audit, kModule, "gemm/model-count",
                models_.size() == expected_models,
                audit::Msg() << models_.size() << " models materialized at t="
                             << t_ << " with window size " << window_size_
                             << " (want " << expected_models << ")",
                "");
    for (size_t i = 0; i < models_.size(); ++i) {
      const BlockId want =
          static_cast<BlockId>(t_ - models_.size() + 1 + i);
      AUDIT_CHECK(audit, kModule, "gemm/window-starts",
                  models_[i].start == want,
                  audit::Msg() << "model " << i << " covers the window "
                               << "starting at " << models_[i].start
                               << " (want " << want
                               << ": one model per future window, "
                                  "consecutive, newest last)",
                  "");
      if (per_model) {
        per_model(models_[i].start, ExpectedSelection(models_[i].start),
                  models_[i].maintainer, audit);
      }
    }
  }

  /// Serializes the full window bookkeeping: t, each window model's start
  /// and (framed) maintainer state, and — when BeginBlock ran without
  /// DrainOffline — the id of the block whose future-window updates are
  /// still pending. `Maintainer` must provide
  /// `void SaveState(persistence::Writer&) const`.
  void SaveState(persistence::Writer& w) const {
    w.WriteU64(t_);
    w.WriteBool(has_pending_);
    if (has_pending_) w.WriteU32(pending_->info().id);
    w.WriteU64(models_.size());
    for (const Entry& entry : models_) {
      w.WriteU32(entry.start);
      persistence::Writer state;
      entry.maintainer.SaveState(state);
      w.WriteString(state.buffer());
    }
  }

  /// Restores state saved by SaveState into a freshly constructed Gemm
  /// with the same BSS/window/factory configuration. Window models are
  /// spawned through the factory and fed their framed state; a pending
  /// block is re-acquired through `resolve` (the checkpoint loader's
  /// snapshot-backed resolver). `Maintainer` must provide
  /// `Status LoadState(persistence::Reader&)`.
  [[nodiscard]] Status LoadState(
      persistence::Reader& r,
      const std::function<Result<BlockPtr>(BlockId)>& resolve) {
    if (t_ != 0 || !models_.empty()) {
      return Status::FailedPrecondition(
          "GEMM state can only be restored into a fresh maintainer");
    }
    t_ = r.ReadU64();
    const bool saved_pending = r.ReadBool();
    BlockId pending_id = 0;
    if (saved_pending) pending_id = r.ReadU32();
    const uint64_t num_models = r.ReadU64();
    if (!r.ok()) return r.status();
    const uint64_t expected_models =
        t_ < window_size_ ? t_ : static_cast<uint64_t>(window_size_);
    if (num_models != expected_models) {
      return Status::DataLoss("checkpoint holds " +
                              std::to_string(num_models) +
                              " GEMM window models at t=" +
                              std::to_string(t_) + " (want " +
                              std::to_string(expected_models) + ")");
    }
    for (uint64_t i = 0; i < num_models; ++i) {
      const BlockId start = r.ReadU32();
      const size_t state_bytes = r.ReadLength(1);
      persistence::Reader state = r.Sub(state_bytes);
      if (!r.ok()) return r.status();
      const BlockId want =
          static_cast<BlockId>(t_ - num_models + 1 + i);
      if (start != want) {
        return Status::DataLoss("GEMM window model " + std::to_string(i) +
                                " starts at block " + std::to_string(start) +
                                " (want " + std::to_string(want) + ")");
      }
      models_.push_back({start, factory_()});
      DEMON_RETURN_NOT_OK(models_.back().maintainer.LoadState(state));
      if (!state.AtEnd()) {
        return Status::DataLoss("trailing bytes after GEMM window model " +
                                std::to_string(i));
      }
    }
    if (saved_pending) {
      if (pending_id != static_cast<BlockId>(t_)) {
        return Status::DataLoss("GEMM pending block id " +
                                std::to_string(pending_id) +
                                " does not match t=" + std::to_string(t_));
      }
      DEMON_ASSIGN_OR_RETURN(BlockPtr block, resolve(pending_id));
      pending_ = std::move(block);
      has_pending_ = true;
    }
    return r.status();
  }

  /// The maintainer of the `i`-th window model, oldest (the current one)
  /// first, in ModelStarts() order (exposed for tests).
  const Maintainer& window_model(size_t i) const {
    DEMON_CHECK(i < models_.size());
    return models_[i].maintainer;
  }

  /// The start block id of every maintained model, oldest first (exposed
  /// for tests).
  std::vector<BlockId> ModelStarts() const {
    std::vector<BlockId> starts;
    starts.reserve(models_.size());
    for (const auto& m : models_) starts.push_back(m.start);
    return starts;
  }

 private:
  struct Entry {
    BlockId start;  // first block of the (future) window this model covers
    Maintainer maintainer;
  };

  /// Whether the just-arrived block t_ belongs to the model whose window
  /// starts at `start`, according to the BSS.
  bool ShouldInclude(BlockId start) const {
    if (!bss_.is_window_relative()) {
      // Window-independent: the bit of the absolute block id decides for
      // every model alike (Algorithm 3.1's b_{w+1} test).
      return bss_.SelectsBlock(static_cast<BlockId>(t_));
    }
    // Window-relative: the block's position within this model's window
    // decides (the right-shift rule of §3.2.2).
    const size_t position = t_ - start + 1;  // 1-based
    DEMON_CHECK(position >= 1 && position <= window_size_);
    return bss_.window_bits()[position - 1];
  }

  BlockSelectionSequence bss_;
  size_t window_size_;
  Factory factory_;
  std::deque<Entry> models_;
  size_t t_ = 0;
  /// Block awaiting future-window updates (set between BeginBlock and
  /// DrainOffline).
  BlockPtr pending_{};
  bool has_pending_ = false;
  ThreadPool* pool_ = nullptr;
  /// Stays null in DEMON_TELEMETRY=OFF builds (see set_telemetry).
  telemetry::TelemetryRegistry* telemetry_ = nullptr;
};

}  // namespace demon

#endif  // DEMON_CORE_GEMM_H_
