#ifndef DEMON_TIDLIST_TIDLIST_CODEC_H_
#define DEMON_TIDLIST_TIDLIST_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "tidlist/tidlist.h"

namespace demon {

/// \brief In-extent encoding of one TID-list. Values are stable (they are
/// recorded in every directory entry and spill image); never renumber.
/// Value 2 was a dense bitmap encoding; it is retired, never produced, and
/// DecodeTidList rejects it as DataLoss.
enum class TidEncoding : uint8_t {
  /// Little-endian uint32 array. 4 bytes/tid.
  kRaw = 0,
  /// First value then successive gaps, each LEB128-varint encoded. Wins on
  /// sparse lists (small gaps fit one byte).
  kDelta = 1,
};

inline constexpr uint8_t kNumTidEncodings = 2;

/// Short lowercase name ("raw", "delta") for telemetry/logging.
const char* TidEncodingName(TidEncoding encoding);

/// \brief A non-owning view of one encoded TID-list. Valid only while the
/// backing extent stays resident — hold the owning block's lease (see
/// BlockTidLists::Lease) across any use.
struct TidListView {
  TidEncoding encoding = TidEncoding::kRaw;
  /// List cardinality (known without decoding; drives smallest-first
  /// intersection order and support-of-singleton fast paths).
  uint32_t num_tids = 0;
  /// Block size; upper bound for every offset.
  uint32_t universe = 0;
  const uint8_t* data = nullptr;
  size_t bytes = 0;

  bool empty() const { return num_tids == 0; }
  size_t size() const { return num_tids; }
};

/// \brief An owning encoded list, produced at block-build time.
struct EncodedTidList {
  TidEncoding encoding = TidEncoding::kRaw;
  uint32_t num_tids = 0;
  std::vector<uint8_t> bytes;

  TidListView View(uint32_t universe) const {
    return TidListView{encoding, num_tids, universe, bytes.data(),
                       bytes.size()};
  }
};

/// Encoded size in bytes of `list` under `encoding` without encoding it
/// (delta does one measuring pass). Used by the density heuristic.
size_t EncodedTidListBytes(TidEncoding encoding, const TidList& list);

/// Encodes `list` (sorted strictly increasing) under the stated encoding.
EncodedTidList EncodeTidListAs(TidEncoding encoding, const TidList& list);

/// Encodes `list` under the smaller of the two encodings (the per
/// (item, block) density heuristic). Ties prefer raw, whose intersection
/// kernel needs no decoding.
EncodedTidList EncodeTidList(const TidList& list);

/// Decodes `view` into `out` (cleared first). Trusts the input: meant for
/// extents this process built or that a validated read produced. Corrupt
/// bytes here are UB-free but may produce garbage offsets (the auditors
/// catch them); use DecodeTidList for bytes fresh off a file.
void MaterializeInto(const TidListView& view, TidList* out);

/// Validating decode for untrusted bytes (file reads): checks the
/// encoding value, framing lengths, cardinality, strict ascent, and the
/// universe bound. Any mismatch returns DataLoss and leaves `out`
/// unspecified.
[[nodiscard]] Status DecodeTidList(const TidListView& view, TidList* out);

/// \brief Intersects two encoded lists into a raw (decoded) output without
/// materializing either side: raw×raw merges (galloping on skew), and the
/// delta pairs stream the compressed side through a cursor.
void IntersectInto(const TidListView& a, const TidListView& b, TidList* out);

/// Raw decoded left side against an encoded right side — the fold step of
/// a prefix intersection (the running intersection is always raw).
void IntersectInto(const TidList& a, const TidListView& b, TidList* out);

/// \brief Number of values of `view` whose bit is set in `bits` (value v
/// is bit v % 64 of word v / 64) — the probe half of ECUT's prefix-group
/// kernel, where `bits` marks a prefix's offsets. The stream stops at the
/// first value above `limit`, so only words [0, limit / 64] are read: pass
/// the largest marked offset. Garbage bytes end the stream early, never
/// read past `limit`'s word.
uint64_t CountMarked(const TidListView& view, const uint64_t* bits,
                     uint32_t limit);

}  // namespace demon

#endif  // DEMON_TIDLIST_TIDLIST_CODEC_H_
