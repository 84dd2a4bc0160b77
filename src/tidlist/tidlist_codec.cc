#include "tidlist/tidlist_codec.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace demon {

namespace {

size_t VarintBytes(uint32_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

void AppendVarint(uint32_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Bounds-checked LEB128 read. Returns false (without advancing past `end`)
/// on truncation or a varint wider than 32 bits.
bool ReadVarint(const uint8_t** p, const uint8_t* end, uint32_t* out) {
  uint32_t value = 0;
  uint32_t shift = 0;
  const uint8_t* q = *p;
  while (q < end) {
    const uint8_t byte = *q++;
    if (shift == 28 && (byte & 0xF0) != 0) return false;
    value |= static_cast<uint32_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *p = q;
      *out = value;
      return true;
    }
    shift += 7;
    if (shift > 28) return false;
  }
  return false;
}

/// Streams the values of a delta-encoded view in order. Reads are bounds
/// checked, so garbage bytes end the stream early instead of overrunning.
struct DeltaCursor {
  const uint8_t* p;
  const uint8_t* end;
  uint32_t remaining;
  uint32_t value = 0;
  bool valid = false;

  explicit DeltaCursor(const TidListView& view)
      : p(view.data), end(view.data + view.bytes), remaining(view.num_tids) {
    Advance(/*first=*/true);
  }

  void Advance(bool first = false) {
    if (remaining == 0) {
      valid = false;
      return;
    }
    uint32_t delta = 0;
    if (!ReadVarint(&p, end, &delta)) {
      remaining = 0;
      valid = false;
      return;
    }
    value = first ? delta : value + delta;
    --remaining;
    valid = true;
  }
};

const uint32_t* RawBegin(const TidListView& view) {
  return reinterpret_cast<const uint32_t*>(view.data);
}

size_t RawCount(const TidListView& view) {
  // Trust the smaller of the announced cardinality and the extent size, so
  // a short extent can never be read past its end.
  return std::min(static_cast<size_t>(view.num_tids),
                  view.bytes / sizeof(uint32_t));
}

/// A raw view over a decoded list (the running intersection of a fold).
TidListView RawView(const TidList& list, uint32_t universe) {
  return TidListView{TidEncoding::kRaw, static_cast<uint32_t>(list.size()),
                     universe, reinterpret_cast<const uint8_t*>(list.data()),
                     list.size() * sizeof(uint32_t)};
}

bool BothRaw(const TidListView& a, const TidListView& b) {
  return a.encoding == TidEncoding::kRaw && b.encoding == TidEncoding::kRaw;
}

// --- delta-involving pairwise kernels -------------------------------------
//
// The result goes to `out`, which must have room for the smaller of the two
// cardinalities; the return value is the number of matches stored.

size_t MergeRawDelta(const TidListView& raw, const TidListView& delta,
                     uint32_t* out) {
  const uint32_t* lo = RawBegin(raw);
  const uint32_t* const end = lo + RawCount(raw);
  size_t k = 0;
  // The delta side has no random access, so it is always streamed; the raw
  // cursor gallops forward to each streamed value.
  for (DeltaCursor cur(delta); cur.valid && lo != end; cur.Advance()) {
    lo = GallopLowerBound(lo, end, cur.value);
    if (lo == end) break;
    out[k] = cur.value;
    k += static_cast<size_t>(*lo == cur.value);
  }
  return k;
}

size_t MergeDeltaDelta(const TidListView& a, const TidListView& b,
                       uint32_t* out) {
  size_t k = 0;
  DeltaCursor ca(a);
  DeltaCursor cb(b);
  while (ca.valid && cb.valid) {
    if (ca.value < cb.value) {
      ca.Advance();
    } else if (cb.value < ca.value) {
      cb.Advance();
    } else {
      out[k] = ca.value;
      ++k;
      ca.Advance();
      cb.Advance();
    }
  }
  return k;
}

/// Dispatches every pair that involves a delta side; raw×raw goes straight
/// to the tidlist.h merge instead.
size_t MergeWithDelta(const TidListView& a, const TidListView& b,
                      uint32_t* out) {
  const bool a_delta = a.encoding == TidEncoding::kDelta;
  const bool b_delta = b.encoding == TidEncoding::kDelta;
  if (a_delta && b_delta) return MergeDeltaDelta(a, b, out);
  if (a_delta && b.encoding == TidEncoding::kRaw) {
    return MergeRawDelta(b, a, out);
  }
  if (b_delta && a.encoding == TidEncoding::kRaw) {
    return MergeRawDelta(a, b, out);
  }
  DEMON_CHECK_MSG(false, "unknown TID-list encoding pair");
  return 0;
}

}  // namespace

const char* TidEncodingName(TidEncoding encoding) {
  switch (encoding) {
    case TidEncoding::kRaw:
      return "raw";
    case TidEncoding::kDelta:
      return "delta";
  }
  return "unknown";
}

size_t EncodedTidListBytes(TidEncoding encoding, const TidList& list) {
  switch (encoding) {
    case TidEncoding::kRaw:
      return list.size() * sizeof(uint32_t);
    case TidEncoding::kDelta: {
      size_t bytes = 0;
      uint32_t prev = 0;
      for (size_t i = 0; i < list.size(); ++i) {
        bytes += VarintBytes(i == 0 ? list[i] : list[i] - prev);
        prev = list[i];
      }
      return bytes;
    }
  }
  return 0;
}

EncodedTidList EncodeTidListAs(TidEncoding encoding, const TidList& list) {
  EncodedTidList out;
  out.encoding = encoding;
  out.num_tids = static_cast<uint32_t>(list.size());
  switch (encoding) {
    case TidEncoding::kRaw:
      out.bytes.resize(list.size() * sizeof(uint32_t));
      if (!list.empty()) {
        std::memcpy(out.bytes.data(), list.data(), out.bytes.size());
      }
      break;
    case TidEncoding::kDelta: {
      out.bytes.reserve(EncodedTidListBytes(encoding, list));
      uint32_t prev = 0;
      for (size_t i = 0; i < list.size(); ++i) {
        AppendVarint(i == 0 ? list[i] : list[i] - prev, &out.bytes);
        prev = list[i];
      }
      break;
    }
  }
  return out;
}

EncodedTidList EncodeTidList(const TidList& list) {
  // Density heuristic: delta only when strictly smaller; ties prefer raw.
  const bool delta_smaller =
      EncodedTidListBytes(TidEncoding::kDelta, list) <
      EncodedTidListBytes(TidEncoding::kRaw, list);
  return EncodeTidListAs(
      delta_smaller ? TidEncoding::kDelta : TidEncoding::kRaw, list);
}

void MaterializeInto(const TidListView& view, TidList* out) {
  out->clear();
  switch (view.encoding) {
    case TidEncoding::kRaw: {
      const size_t n = RawCount(view);
      out->resize(n);
      if (n > 0) std::memcpy(out->data(), view.data, n * sizeof(uint32_t));
      break;
    }
    case TidEncoding::kDelta: {
      // DeltaCursor's stream, unrolled for the one-byte gaps that
      // dominate dense lists; garbage bytes still end it early.
      out->resize(view.num_tids);
      uint32_t* const values = out->data();
      const uint8_t* p = view.data;
      const uint8_t* const end = view.data + view.bytes;
      uint32_t value = 0;
      size_t n = 0;
      for (; n < view.num_tids; ++n) {
        uint32_t delta = 0;
        if (p < end && *p < 0x80) {
          delta = *p++;
        } else if (!ReadVarint(&p, end, &delta)) {
          break;
        }
        value += delta;
        values[n] = value;
      }
      out->resize(n);
      break;
    }
  }
}

Status DecodeTidList(const TidListView& view, TidList* out) {
  out->clear();
  if (view.num_tids > view.universe) {
    return Status::DataLoss("TID-list cardinality exceeds the universe");
  }
  switch (view.encoding) {
    case TidEncoding::kRaw: {
      if (view.bytes != static_cast<size_t>(view.num_tids) *
                            sizeof(uint32_t)) {
        return Status::DataLoss("raw TID-list extent length mismatch");
      }
      out->resize(view.num_tids);
      if (view.num_tids > 0) {
        std::memcpy(out->data(), view.data, view.bytes);
      }
      for (size_t i = 0; i < out->size(); ++i) {
        if (i > 0 && (*out)[i - 1] >= (*out)[i]) {
          return Status::DataLoss("raw TID-list not strictly increasing");
        }
        if ((*out)[i] >= view.universe) {
          return Status::DataLoss("raw TID-list offset outside the universe");
        }
      }
      return Status::OK();
    }
    case TidEncoding::kDelta: {
      out->reserve(view.num_tids);
      const uint8_t* p = view.data;
      const uint8_t* const end = view.data + view.bytes;
      uint64_t value = 0;
      for (uint32_t i = 0; i < view.num_tids; ++i) {
        uint32_t delta = 0;
        if (!ReadVarint(&p, end, &delta)) {
          return Status::DataLoss("truncated delta TID-list extent");
        }
        if (i > 0 && delta == 0) {
          return Status::DataLoss("delta TID-list gap of zero (duplicate)");
        }
        value = i == 0 ? delta : value + delta;
        if (value >= view.universe) {
          return Status::DataLoss(
              "delta TID-list offset outside the universe");
        }
        out->push_back(static_cast<uint32_t>(value));
      }
      if (p != end) {
        return Status::DataLoss("trailing bytes after delta TID-list");
      }
      return Status::OK();
    }
  }
  return Status::DataLoss("unknown TID-list encoding");
}

void IntersectInto(const TidListView& a, const TidListView& b, TidList* out) {
  if (a.num_tids == 0 || b.num_tids == 0) {
    out->clear();
    return;
  }
  if (BothRaw(a, b)) {
    IntersectRawInto(RawBegin(a), RawCount(a), RawBegin(b), RawCount(b), out);
    return;
  }
  out->resize(std::min(a.num_tids, b.num_tids));
  out->resize(MergeWithDelta(a, b, out->data()));
}

void IntersectInto(const TidList& a, const TidListView& b, TidList* out) {
  IntersectInto(RawView(a, b.universe), b, out);
}

uint64_t CountMarked(const TidListView& view, const uint64_t* bits,
                     uint32_t limit) {
  const auto marked = [bits](uint32_t v) -> uint64_t {
    return (bits[v >> 6] >> (v & 63)) & 1;
  };
  uint64_t n = 0;
  switch (view.encoding) {
    case TidEncoding::kRaw: {
      const uint32_t* const values = RawBegin(view);
      const size_t count = RawCount(view);
      for (size_t i = 0; i < count && values[i] <= limit; ++i) {
        n += marked(values[i]);
      }
      break;
    }
    case TidEncoding::kDelta: {
      // MaterializeInto's stream with the store replaced by a bit test.
      const uint8_t* p = view.data;
      const uint8_t* const end = view.data + view.bytes;
      uint32_t value = 0;
      for (uint32_t i = 0; i < view.num_tids; ++i) {
        uint32_t delta = 0;
        if (p < end && *p < 0x80) {
          delta = *p++;
        } else if (!ReadVarint(&p, end, &delta)) {
          break;
        }
        value += delta;
        if (value > limit) break;
        n += marked(value);
      }
      break;
    }
  }
  return n;
}

}  // namespace demon
