#ifndef DEMON_ITEMSETS_MODEL_IO_H_
#define DEMON_ITEMSETS_MODEL_IO_H_

#include <string>

#include "common/status.h"
#include "itemsets/itemset_model.h"
#include "persistence/serializer.h"

namespace demon {

/// \brief Binary serialization of an ItemsetModel (frequent itemsets and
/// negative border with counts, threshold, universe, transaction count).
///
/// §3.2.3's point about GEMM: of the w maintained models only the current
/// one is needed in memory; the rest "can be stored on disk and retrieved
/// when necessary", and a model is tiny next to the block data. These
/// functions provide that spill/restore path and round-trip exactly. Files
/// carry the shared persistence::FileHeader (format kItemsetModel);
/// corrupted or truncated input is rejected with InvalidArgument/DataLoss.
[[nodiscard]] Status WriteItemsetModel(const ItemsetModel& model, const std::string& path);

/// Reads a model mined over an item universe of at most `max_items`
/// items; a file claiming a larger one is rejected as DataLoss.
[[nodiscard]] Result<ItemsetModel> ReadItemsetModel(const std::string& path,
                                                    size_t max_items);

/// Appends the model payload (no file header) to `w`. Entries are emitted
/// in canonical lexicographic order, so equal models serialize to equal
/// bytes. Shared by the model file writer and the checkpoint container.
void SerializeItemsetModel(persistence::Writer& w, const ItemsetModel& model);

/// Decodes a model payload written by SerializeItemsetModel. Corruption
/// latches a DataLoss on `r`; `model` is only valid when `r.ok()` holds
/// afterwards. `max_items` is the caller's item universe: a payload
/// claiming a larger one fails before anything is inserted, so a hostile
/// universe cannot size the trie's item index.
void DeserializeItemsetModel(persistence::Reader& r, size_t max_items,
                             ItemsetModel* model);

/// Serialized size of a model file in bytes, without writing it (what
/// §3.2.3 calls the "negligible" additional disk space for the w - 1
/// models). Kept consistent with the writer by construction — see the
/// predicted-vs-written assertions in model_io_test.
uint64_t SerializedModelBytes(const ItemsetModel& model);

}  // namespace demon

#endif  // DEMON_ITEMSETS_MODEL_IO_H_
