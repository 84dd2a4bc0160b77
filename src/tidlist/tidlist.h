#ifndef DEMON_TIDLIST_TIDLIST_H_
#define DEMON_TIDLIST_TIDLIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace demon {

/// \brief A TID-list: block-local transaction offsets, sorted increasing
/// (paper §3.1.1). Offsets are 32-bit because lists are per block and
/// blocks are far smaller than 2^32 transactions; the block's first TID
/// turns an offset into a global TID.
using TidList = std::vector<uint32_t>;

/// When the longer input is at least this many times the size of the
/// shorter one (measured as `large / (small + 1)`), IntersectInto switches
/// from the linear merge to galloping search.
inline constexpr size_t kGallopRatio = 8;

/// \brief Galloping (exponential) search for the first position in
/// [first, last) with *pos >= value. Shared by the raw merge kernel and the
/// codec-level kernels that probe a raw side with values streamed from a
/// compressed one.
const uint32_t* GallopLowerBound(const uint32_t* first, const uint32_t* last,
                                 uint32_t value);

/// \brief Intersects two sorted TID-lists into `out` (cleared first; `out`
/// must not alias an input). Uses a branchless linear merge, switching to
/// galloping search when one input is at least kGallopRatio times longer
/// than the other — the common case when intersecting a rare 2-itemset
/// list against a frequent item list. `out`'s capacity is reused across
/// calls, so steady-state intersection allocates nothing.
void IntersectInto(const TidList& a, const TidList& b, TidList* out);

/// Span flavor of IntersectInto, for inputs that live in an encoded extent
/// rather than a vector (the codec's raw×raw kernel).
void IntersectRawInto(const uint32_t* a, size_t na, const uint32_t* b,
                      size_t nb, TidList* out);

/// Cardinality-only twin of IntersectRawInto (same merge, no stores) — the
/// final fold of a k-way intersection needs only the size.
uint64_t IntersectRawSize(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb);

/// \brief Returns the intersection of two sorted TID-lists.
TidList Intersect(const TidList& a, const TidList& b);

/// \brief Reusable buffers for IntersectionSize. Holding one per worker
/// keeps the k-way intersection of the counting hot path allocation-free
/// after warm-up (buffers grow to the longest list seen and stay).
struct IntersectionScratch {
  TidList current;
  TidList next;
  std::vector<const TidList*> order;
};

/// \brief Cardinality of the intersection of `lists` (the support of the
/// itemset whose per-item lists these are; paper §3.1.1's merge-join).
/// Intersects smallest-first with early exit on empty. An empty `lists`
/// input is invalid; a single list returns its own size. Temporaries are
/// taken from `scratch`.
uint64_t IntersectionSize(const std::vector<const TidList*>& lists,
                          IntersectionScratch* scratch);

/// Convenience overload with one-shot internal scratch.
uint64_t IntersectionSize(const std::vector<const TidList*>& lists);

}  // namespace demon

#endif  // DEMON_TIDLIST_TIDLIST_H_
