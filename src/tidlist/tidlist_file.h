#ifndef DEMON_TIDLIST_TIDLIST_FILE_H_
#define DEMON_TIDLIST_TIDLIST_FILE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/types.h"
#include "persistence/file.h"
#include "tidlist/tidlist_store.h"

namespace demon {

/// \brief Random-access on-disk layout for a block's TID-lists: a header
/// with per-item (and per-pair) offset/length tables followed by the raw
/// sorted uint32 lists. The format supports reading *one* list without
/// touching the rest — the access pattern ECUT's analysis assumes
/// (§3.1.1: "retrieves only the relevant portion of the dataset").
class TidListFile {
 public:
  /// Writes `lists` (item lists and any materialized pair lists) to
  /// `path` in indexed format.
  [[nodiscard]] static Status Write(const BlockTidLists& lists, const std::string& path);
};

/// \brief Reader over a TidListFile: opens the file, loads the offset
/// tables (small), and serves individual lists with one positioned read
/// each. Tracks bytes read so benchmarks can report true I/O volume.
class TidListFileReader {
 public:
  TidListFileReader(const TidListFileReader&) = delete;
  TidListFileReader& operator=(const TidListFileReader&) = delete;

  [[nodiscard]] static Result<std::unique_ptr<TidListFileReader>> Open(
      const std::string& path);

  size_t num_transactions() const { return num_transactions_; }
  size_t num_items() const { return index_.size(); }

  /// Reads the TID-list of `item` into `out`.
  [[nodiscard]] Status ReadItemList(Item item, TidList* out);

  /// Reads the materialized list of pair {a, b}; returns NotFound when
  /// the pair was not materialized in this block.
  [[nodiscard]] Status ReadPairList(Item a, Item b, TidList* out);

  /// True if the pair {a, b} is materialized (index-only check, no I/O).
  bool HasPairList(Item a, Item b) const;

  /// Length (in TIDs) of an item list, from the index (no I/O).
  size_t ItemListLength(Item item) const;
  /// Length of a pair list, or 0 if absent (no I/O).
  size_t PairListLength(Item a, Item b) const;

  /// Cumulative payload bytes read through this reader.
  uint64_t bytes_read() const { return bytes_read_; }

 private:
  struct Extent {
    uint64_t offset = 0;
    uint64_t length = 0;  // number of TIDs
  };

  explicit TidListFileReader(persistence::File file)
      : file_(std::move(file)) {}

  static uint64_t PairKey(Item a, Item b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  [[nodiscard]] Status ReadExtent(const Extent& extent, TidList* out);

  persistence::File file_;
  uint64_t file_bytes_ = 0;
  size_t num_transactions_ = 0;
  std::vector<Extent> index_;
  std::unordered_map<uint64_t, Extent> pair_index_;
  uint64_t bytes_read_ = 0;
};

}  // namespace demon

#endif  // DEMON_TIDLIST_TIDLIST_FILE_H_
