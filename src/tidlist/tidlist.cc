#include "tidlist/tidlist.h"

#include <algorithm>

#include "common/check.h"

namespace demon {

namespace {

/// Intersects two sorted raw spans. With kStore the result goes to `out`,
/// which must have room for min(na, nb) values; without it the matches are
/// only counted. One body serves both so the storing and size-only kernels
/// cannot drift apart.
template <bool kStore>
size_t MergeRaw(const uint32_t* a, size_t na, const uint32_t* b, size_t nb,
                uint32_t* out) {
  const uint32_t* small = na <= nb ? a : b;
  const size_t nsmall = na <= nb ? na : nb;
  const uint32_t* large = na <= nb ? b : a;
  const size_t nlarge = na <= nb ? nb : na;
  if (nsmall == 0) return 0;
  size_t n = 0;
  if (nlarge / (nsmall + 1) >= kGallopRatio) {
    // Gallop through the large list: each element of the small list only
    // advances the cursor, never rewinds it.
    const uint32_t* lo = large;
    const uint32_t* const end = large + nlarge;
    for (size_t i = 0; i < nsmall; ++i) {
      const uint32_t v = small[i];
      lo = GallopLowerBound(lo, end, v);
      if (lo == end) break;
      if constexpr (kStore) out[n] = v;
      n += static_cast<size_t>(*lo == v);
    }
  } else {
    // Branchless merge: the candidate is stored unconditionally and the
    // output cursor advances only on a match, so the loop body has no
    // unpredictable branches (matches are rare and random in practice).
    // A store lands at most at index min(na, nb) - 1: every match also
    // advances the small cursor.
    const uint32_t* pa = small;
    const uint32_t* const ea = pa + nsmall;
    const uint32_t* pb = large;
    const uint32_t* const eb = pb + nlarge;
    while (pa < ea && pb < eb) {
      const uint32_t x = *pa;
      const uint32_t y = *pb;
      if constexpr (kStore) out[n] = x;
      n += static_cast<size_t>(x == y);
      pa += static_cast<size_t>(x <= y);
      pb += static_cast<size_t>(y <= x);
    }
  }
  return n;
}

}  // namespace

// The probe step is clamped against `last` so no pointer past the
// one-past-the-end position is ever formed.
const uint32_t* GallopLowerBound(const uint32_t* first, const uint32_t* last,
                                 uint32_t value) {
  size_t step = 1;
  const uint32_t* probe = first;
  while (probe < last && *probe < value) {
    first = probe + 1;
    const size_t remaining = static_cast<size_t>(last - first);
    probe = first + (step < remaining ? step : remaining);
    step *= 2;
  }
  return std::lower_bound(first, probe, value);
}

void IntersectRawInto(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb, TidList* out) {
  // Size for the worst case; shrinking at the end keeps the capacity for
  // later calls.
  out->resize(na <= nb ? na : nb);
  out->resize(MergeRaw<true>(a, na, b, nb, out->data()));
}

uint64_t IntersectRawSize(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb) {
  return MergeRaw<false>(a, na, b, nb, nullptr);
}

void IntersectInto(const TidList& a, const TidList& b, TidList* out) {
  IntersectRawInto(a.data(), a.size(), b.data(), b.size(), out);
}

TidList Intersect(const TidList& a, const TidList& b) {
  TidList out;
  IntersectInto(a, b, &out);
  return out;
}

uint64_t IntersectionSize(const std::vector<const TidList*>& lists,
                          IntersectionScratch* scratch) {
  DEMON_CHECK(!lists.empty());
  if (lists.size() == 1) return lists[0]->size();

  // Intersect smallest-first so intermediate results shrink fast.
  scratch->order.assign(lists.begin(), lists.end());
  std::sort(scratch->order.begin(), scratch->order.end(),
            [](const TidList* a, const TidList* b) {
              return a->size() < b->size();
            });
  // The final fold only needs a cardinality, so it takes the store-free
  // kernel; earlier folds must materialize the running intersection.
  const size_t last = scratch->order.size() - 1;
  if (last == 1) {
    return IntersectRawSize(scratch->order[0]->data(),
                            scratch->order[0]->size(),
                            scratch->order[1]->data(),
                            scratch->order[1]->size());
  }
  TidList& current = scratch->current;
  TidList& next = scratch->next;
  IntersectInto(*scratch->order[0], *scratch->order[1], &current);
  for (size_t i = 2; i < last; ++i) {
    if (current.empty()) return 0;
    IntersectInto(current, *scratch->order[i], &next);
    current.swap(next);
  }
  if (current.empty()) return 0;
  return IntersectRawSize(current.data(), current.size(),
                          scratch->order[last]->data(),
                          scratch->order[last]->size());
}

uint64_t IntersectionSize(const std::vector<const TidList*>& lists) {
  IntersectionScratch scratch;
  return IntersectionSize(lists, &scratch);
}

}  // namespace demon
