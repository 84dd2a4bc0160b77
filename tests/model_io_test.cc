#include "itemsets/model_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "datagen/quest_generator.h"
#include "itemsets/apriori.h"
#include "itemsets/borders.h"

namespace demon {
namespace {

ItemsetModel MineModel(uint64_t seed) {
  QuestParams params;
  params.num_transactions = 1200;
  params.num_items = 60;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = seed;
  QuestGenerator gen(params);
  auto block = std::make_shared<TransactionBlock>(gen.GenerateAll());
  return Apriori({block}, 0.04, params.num_items);
}

TEST(ModelIoTest, RoundTripIsExact) {
  const ItemsetModel model = MineModel(41);
  const std::string path = ::testing::TempDir() + "/model.bin";
  ASSERT_TRUE(WriteItemsetModel(model, path).ok());

  auto reread = ReadItemsetModel(path, model.num_items());
  ASSERT_TRUE(reread.ok()) << reread.status();
  const ItemsetModel& loaded = reread.value();
  EXPECT_DOUBLE_EQ(loaded.minsup(), model.minsup());
  EXPECT_EQ(loaded.num_items(), model.num_items());
  EXPECT_EQ(loaded.num_transactions(), model.num_transactions());
  ASSERT_EQ(loaded.entries().size(), model.entries().size());
  for (const auto& [itemset, entry] : model.entries()) {
    const auto it = loaded.entries().find(itemset);
    ASSERT_NE(it, loaded.entries().end()) << ToString(itemset);
    EXPECT_EQ(it->second.count, entry.count);
    EXPECT_EQ(it->second.frequent, entry.frequent);
  }
  std::remove(path.c_str());
}

long WrittenFileSize(const ItemsetModel& model, const char* name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(WriteItemsetModel(model, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fclose(f);
  std::remove(path.c_str());
  return file_size;
}

// SerializedModelBytes is an independent prediction of the writer's output
// size; the writer and the predictor must never drift apart. Cover the
// degenerate, minimal, and realistic shapes.
TEST(ModelIoTest, SerializedBytesMatchesFileSizeEmptyModel) {
  const ItemsetModel model(0.05, 10);
  EXPECT_EQ(static_cast<uint64_t>(WrittenFileSize(model, "model_empty.bin")),
            SerializedModelBytes(model));
}

TEST(ModelIoTest, SerializedBytesMatchesFileSizeSingleItemset) {
  ItemsetModel model(0.05, 10);
  model.set_num_transactions(100);
  model.mutable_entries()->emplace(Itemset{3, 7, 9},
                                   ItemsetModel::Entry{42, true});
  EXPECT_EQ(static_cast<uint64_t>(WrittenFileSize(model, "model_one.bin")),
            SerializedModelBytes(model));
}

TEST(ModelIoTest, SerializedBytesMatchesFileSizeLargeModel) {
  const ItemsetModel model = MineModel(42);
  ASSERT_GT(model.entries().size(), 100u);
  EXPECT_EQ(static_cast<uint64_t>(WrittenFileSize(model, "model_large.bin")),
            SerializedModelBytes(model));
}

TEST(ModelIoTest, SerializationIsDeterministic) {
  // Entries live in an unordered map, but the writer emits them in
  // canonical order: equal models must produce byte-identical payloads
  // (checkpoint equivalence tests compare serialized state directly).
  const ItemsetModel model = MineModel(45);
  persistence::Writer a;
  persistence::Writer b;
  SerializeItemsetModel(a, model);
  SerializeItemsetModel(b, model);
  EXPECT_EQ(a.buffer(), b.buffer());

  persistence::Reader r(a.buffer());
  ItemsetModel reloaded;
  DeserializeItemsetModel(r, model.num_items(), &reloaded);
  ASSERT_TRUE(r.status().ok()) << r.status();
  persistence::Writer c;
  SerializeItemsetModel(c, reloaded);
  EXPECT_EQ(a.buffer(), c.buffer());
}

TEST(ModelIoTest, ModelIsTinyComparedToData) {
  // §3.2.3: "the space occupied by a model is insignificant when compared
  // to that occupied by the data in each block".
  QuestParams params;
  params.num_transactions = 30000;
  params.num_items = 100;
  params.num_patterns = 50;
  params.avg_transaction_len = 10;
  params.seed = 43;
  QuestGenerator gen(params);
  auto block = std::make_shared<TransactionBlock>(gen.GenerateAll());
  const ItemsetModel model = Apriori({block}, 0.10, params.num_items);
  const uint64_t data_bytes = block->TotalItemOccurrences() * sizeof(Item);
  EXPECT_LT(SerializedModelBytes(model), data_bytes);
}

TEST(ModelIoTest, MissingFileFails) {
  auto result = ReadItemsetModel("/nonexistent/model.bin", 60);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(ModelIoTest, TruncatedValidModelFails) {
  // A real serialized model chopped mid-stream must be rejected, not read
  // back as a smaller model.
  const ItemsetModel model = MineModel(44);
  const std::string path = ::testing::TempDir() + "/truncated_model.bin";
  ASSERT_TRUE(WriteItemsetModel(model, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full_size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(full_size, 16);
  ASSERT_EQ(truncate(path.c_str(), full_size - full_size / 3), 0);

  auto result = ReadItemsetModel(path, 60);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(ModelIoTest, CorruptFileFails) {
  const std::string path = ::testing::TempDir() + "/corrupt_model.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[32] = "not a model";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto result = ReadItemsetModel(path, 60);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// Recorded with the hash-map model that preceded the trie: the trie must
// reproduce its checkpoint bytes exactly.
constexpr size_t kPinnedEntries = 1884;
constexpr size_t kPinnedBytes = 53176;
constexpr uint64_t kPinnedHash = 0x4437a66fa45d5a3eULL;

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Pins the on-disk model format: the BORDERS model of a fixed small Quest
// stream — two alternating pattern tables, so blocks promote and demote
// itemsets, plus one deletion — must serialize to exactly these bytes.
TEST(ModelIoTest, BordersCheckpointBytesArePinned) {
  QuestParams params;
  params.num_items = 60;
  params.num_patterns = 30;
  params.avg_transaction_len = 8;
  params.avg_pattern_len = 3;
  params.seed = 71;
  QuestGenerator first(params);
  params.seed = 72;
  QuestGenerator second(params);

  BordersOptions options;
  options.minsup = 0.03;
  options.num_items = params.num_items;
  BordersMaintainer maintainer(options);
  for (uint32_t b = 0; b < 6; ++b) {
    QuestGenerator& gen = b % 2 == 0 ? first : second;
    auto block = std::make_shared<TransactionBlock>(
        gen.NextBlock(400, static_cast<Tid>(b) * 400));
    block->mutable_info()->id = b;
    maintainer.AddBlock(std::move(block));
  }
  maintainer.RemoveOldestBlock();

  persistence::Writer w;
  SerializeItemsetModel(w, maintainer.model());
  EXPECT_EQ(maintainer.model().entries().size(), kPinnedEntries);
  EXPECT_EQ(w.buffer().size(), kPinnedBytes);
  EXPECT_EQ(Fnv1a64(w.buffer()), kPinnedHash);
}

TEST(ModelIoTest, MalformedItemsetsAreRejected) {
  for (const std::vector<uint32_t>& bad :
       {std::vector<uint32_t>{}, std::vector<uint32_t>{3, 3},
        std::vector<uint32_t>{5, 2}, std::vector<uint32_t>{1, 10}}) {
    persistence::Writer w;
    w.WriteDouble(0.1);
    w.WriteU64(10);   // num_items
    w.WriteU64(100);  // num_transactions
    w.WriteU64(1);    // num_entries
    w.WriteU32Vector(bad);
    w.WriteU64(7);
    w.WriteBool(false);
    persistence::Reader r(w.buffer());
    ItemsetModel model;
    DeserializeItemsetModel(r, 10, &model);
    EXPECT_FALSE(r.ok()) << ToString(bad);
  }
}

// A payload claiming a 2^33-item universe with one itemset near 2^32 once
// grew the trie's level-1 index to 16 GiB and died in std::bad_alloc; it is
// reachable from a corrupt checkpoint through BordersMaintainer::LoadState.
// The decoder now checks the claim against the caller's universe first.
TEST(ModelIoTest, HostileUniverseIsDataLoss) {
  persistence::Writer w;
  w.WriteDouble(0.1);
  w.WriteU64(uint64_t{1} << 33);  // num_items
  w.WriteU64(100);                // num_transactions
  w.WriteU64(1);                  // num_entries
  w.WriteU32Vector({0xFFFFFFF0u});
  w.WriteU64(7);
  w.WriteBool(true);
  ASSERT_EQ(w.buffer().size(), 53u);

  persistence::Reader r(w.buffer());
  ItemsetModel model;
  DeserializeItemsetModel(r, 1000, &model);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(model.entries().empty());

  // The same payload behind a checkpoint's BORDERS state.
  BordersOptions options;
  options.minsup = 0.1;
  options.num_items = 1000;
  BordersMaintainer maintainer(options);
  persistence::Reader state(w.buffer());
  EXPECT_EQ(maintainer.LoadState(state).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace demon
