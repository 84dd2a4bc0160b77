// Persistence-layer tests: the serializer primitives, the shared file
// header contract (wrong magic / format / version => InvalidArgument,
// truncation => DataLoss — never a crash), the block codec, the
// write-ahead log's crash semantics, and the BSS / MonitorSpec codecs the
// checkpoint container is built from.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/monitor_spec.h"
#include "persistence/block_codec.h"
#include "persistence/file.h"
#include "persistence/file_header.h"
#include "persistence/serializer.h"
#include "persistence/wal.h"

namespace demon {
namespace {

using persistence::FileHeader;
using persistence::FormatId;
using persistence::Reader;
using persistence::Writer;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return bytes;
}

Status WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Serializer primitives.

TEST(SerializerTest, AllTypesRoundTrip) {
  Writer w;
  w.WriteU8(7);
  w.WriteU32(0xDEADBEEFu);
  w.WriteU64(1ull << 60);
  w.WriteI64(-42);
  w.WriteBool(true);
  w.WriteDouble(0.1);            // not exactly representable
  w.WriteDouble(-0.0);           // sign bit must survive
  w.WriteString("demon");
  w.WriteU32Vector({1, 2, 3});
  w.WriteDoubleVector({1.5, -2.5});

  Reader r(w.buffer());
  EXPECT_EQ(r.ReadU8(), 7u);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64(), 1ull << 60);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadDouble(), 0.1);
  const double neg_zero = r.ReadDouble();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.ReadString(), "demon");
  EXPECT_EQ(r.ReadU32Vector(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(r.ReadDoubleVector(), (std::vector<double>{1.5, -2.5}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

// Zero-length vectors round-trip without ever handing memcpy the null
// data() of an empty vector (the UBSan job runs this).
TEST(SerializerTest, EmptyVectorsRoundTrip) {
  Writer w;
  w.WriteU32Vector({});
  w.WriteDoubleVector({});
  w.WriteString("");
  w.WriteU32Vector({9});

  Reader r(w.buffer());
  EXPECT_TRUE(r.ReadU32Vector().empty());
  EXPECT_TRUE(r.ReadDoubleVector().empty());
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadU32Vector(), (std::vector<uint32_t>{9}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, TruncationLatchesDataLoss) {
  Writer w;
  w.WriteU64(1);
  Reader r(w.buffer().data(), 4);  // cut mid-integer
  EXPECT_EQ(r.ReadU64(), 0u);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  // Latched: subsequent reads stay zero and keep the first error.
  EXPECT_EQ(r.ReadU32(), 0u);
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(SerializerTest, CorruptLengthCannotOverAllocate) {
  Writer w;
  w.WriteU64(~0ull);  // claims ~2^64 elements
  Reader r(w.buffer());
  const auto v = r.ReadU32Vector();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
}

TEST(SerializerTest, SubFramesAndBoundsChecks) {
  Writer inner;
  inner.WriteU32(9);
  Writer w;
  w.WriteString(inner.buffer());
  w.WriteU32(13);

  Reader r(w.buffer());
  const size_t len = r.ReadLength(1);
  Reader sub = r.Sub(len);
  EXPECT_EQ(sub.ReadU32(), 9u);
  EXPECT_TRUE(sub.AtEnd());
  // A framed child cannot read past its frame...
  EXPECT_EQ(sub.ReadU32(), 0u);
  EXPECT_EQ(sub.status().code(), StatusCode::kDataLoss);
  // ...and the parent continues right after the frame, unaffected.
  EXPECT_EQ(r.ReadU32(), 13u);
  EXPECT_TRUE(r.ok());

  Reader r2(w.buffer());
  Reader bogus = r2.Sub(w.buffer().size() + 1);
  EXPECT_EQ(r2.status().code(), StatusCode::kDataLoss);
  (void)bogus;
}

// ---------------------------------------------------------------------------
// File header contract.

TEST(FileHeaderTest, PayloadFileRoundTrip) {
  const std::string path = TempPath("header_roundtrip.bin");
  Writer payload;
  payload.WriteString("payload-bytes");
  ASSERT_TRUE(persistence::WritePayloadFile(path, FormatId::kCheckpoint, 3,
                                            payload)
                  .ok());
  auto read = persistence::ReadPayloadFile(path, FormatId::kCheckpoint, 3);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload.buffer());
}

TEST(FileHeaderTest, WrongMagicFormatAndVersionAreInvalidArgument) {
  const std::string path = TempPath("header_bad.bin");
  Writer payload;
  payload.WriteU32(1);
  ASSERT_TRUE(persistence::WritePayloadFile(path, FormatId::kCheckpoint, 2,
                                            payload)
                  .ok());

  // Wrong format id for this file.
  EXPECT_EQ(persistence::ReadPayloadFile(path, FormatId::kWriteAheadLog, 2)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Reader supports only an older version.
  EXPECT_EQ(persistence::ReadPayloadFile(path, FormatId::kCheckpoint, 1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Corrupt the magic.
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = bytes.value();
  corrupted[0] ^= 0xFF;
  ASSERT_TRUE(WriteFileBytes(path, corrupted).ok());
  EXPECT_EQ(persistence::ReadPayloadFile(path, FormatId::kCheckpoint, 2)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(FileHeaderTest, TruncatedHeaderIsDataLossAndMissingFileIsIoError) {
  const std::string path = TempPath("header_short.bin");
  ASSERT_TRUE(WriteFileBytes(path, std::string(10, 'x')).ok());
  EXPECT_EQ(persistence::ReadPayloadFile(path, FormatId::kCheckpoint, 1)
                .status()
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(persistence::ReadPayloadFile(TempPath("never_written.bin"),
                                         FormatId::kCheckpoint, 1)
                .status()
                .code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// File layer.

TEST(FileTest, WriteReadAppendTruncateRoundTrip) {
  const std::string path = TempPath("file_roundtrip.bin");
  ASSERT_TRUE(persistence::WriteFile(path, {"head", "", "payload"}).ok());
  auto read = persistence::ReadFile(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read.value(), "headpayload");

  auto file = persistence::File::OpenForAppend(path);
  ASSERT_TRUE(file.ok()) << file.status();
  ASSERT_TRUE(file.value().Append({"+", "tail"}).ok());
  char middle[4];
  ASSERT_TRUE(file.value().ReadAt(4, middle, sizeof(middle)).ok());
  EXPECT_EQ(std::string(middle, sizeof(middle)), "payl");
  ASSERT_TRUE(file.value().Truncate(4).ok());
  ASSERT_TRUE(file.value().Append({"!"}).ok());
  EXPECT_EQ(file.value().Size().value(), 5u);
  EXPECT_EQ(persistence::ReadFile(path).value(), "head!");
  // Reading past the end is torn input, not an OS failure.
  EXPECT_EQ(file.value().ReadAt(2, middle, sizeof(middle)).code(),
            StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(FileTest, MissingFileIsIoError) {
  const std::string path = TempPath("no_such_dir/never_written.bin");
  EXPECT_EQ(persistence::ReadFile(path).status().code(), StatusCode::kIoError);
  EXPECT_EQ(persistence::File::OpenForRead(path).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(persistence::File::OpenForAppend(path).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(persistence::WriteFile(path, {"x"}).code(), StatusCode::kIoError);
}

TEST(FileTest, FullDiskIsIoError) {
  // Every write to /dev/full fails with ENOSPC.
  if (access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  EXPECT_EQ(persistence::WriteFile("/dev/full", {"header", "payload"}).code(),
            StatusCode::kIoError);
  auto file = persistence::File::OpenForAppend("/dev/full");
  ASSERT_TRUE(file.ok()) << file.status();
  EXPECT_EQ(file.value().Append({"record"}).code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Block codec.

TransactionBlock MakeTxBlock(BlockId id) {
  std::vector<Transaction> txs;
  txs.push_back(Transaction({1, 3, 5}));
  txs.push_back(Transaction({2, 3}));
  TransactionBlock block(std::move(txs), /*first_tid=*/100);
  block.mutable_info()->id = id;
  block.mutable_info()->start_time = 10;
  block.mutable_info()->end_time = 20;
  block.mutable_info()->label = "b" + std::to_string(id);
  return block;
}

PointBlock MakePtBlock(BlockId id) {
  PointBlock block({1.0, 2.0, 3.0, 4.0}, /*dim=*/2);
  block.mutable_info()->id = id;
  return block;
}

LabeledSchema MakeSchema() {
  LabeledSchema schema;
  schema.attribute_cardinalities = {3, 2};
  schema.num_classes = 2;
  return schema;
}

LabeledBlock MakeLbBlock(BlockId id) {
  std::vector<LabeledRecord> records;
  records.push_back({{0, 1}, 0});
  records.push_back({{2, 0}, 1});
  LabeledBlock block(MakeSchema(), std::move(records));
  block.mutable_info()->id = id;
  return block;
}

TEST(BlockCodecTest, AllThreePayloadsRoundTrip) {
  Writer w;
  persistence::WriteBlock(w, MakeTxBlock(1));
  persistence::WriteBlock(w, MakePtBlock(2));
  persistence::WriteBlock(w, MakeLbBlock(3));

  Reader r(w.buffer());
  TransactionBlock tx;
  persistence::ReadBlockInto(r, &tx);
  PointBlock pt;
  persistence::ReadBlockInto(r, &pt);
  LabeledBlock lb;
  persistence::ReadBlockInto(r, &lb);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(tx.info().id, 1u);
  EXPECT_EQ(tx.info().label, "b1");
  EXPECT_EQ(tx.first_tid(), 100u);
  ASSERT_EQ(tx.size(), 2u);
  EXPECT_EQ(tx.transactions()[0], MakeTxBlock(1).transactions()[0]);

  EXPECT_EQ(pt.info().id, 2u);
  EXPECT_EQ(pt.dim(), 2u);
  EXPECT_EQ(pt.coords(), (std::vector<double>{1.0, 2.0, 3.0, 4.0}));

  EXPECT_EQ(lb.info().id, 3u);
  ASSERT_EQ(lb.size(), 2u);
  EXPECT_EQ(lb.records()[1].attributes, (std::vector<uint32_t>{2, 0}));
  EXPECT_EQ(lb.records()[1].label, 1u);
  EXPECT_EQ(lb.schema().num_classes, 2u);
}

TEST(BlockCodecTest, SnapshotRoundTripAndIdValidation) {
  Snapshot<TransactionBlock> snapshot;
  snapshot.Append(MakeTxBlock(kInvalidBlockId));
  snapshot.Append(MakeTxBlock(kInvalidBlockId));
  Writer w;
  persistence::WriteSnapshot(w, snapshot);

  Snapshot<TransactionBlock> restored;
  Reader r(w.buffer());
  persistence::ReadSnapshotInto(r, &restored);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(restored.latest_id(), 2u);
  EXPECT_EQ(restored.NumBlocks(), 2u);
  EXPECT_EQ(restored.block(1)->size(), snapshot.block(1)->size());

  // Claiming more blocks than the latest id is corruption.
  Writer bad;
  bad.WriteU64(1);  // latest
  bad.WriteU64(2);  // count
  Reader rb(bad.buffer());
  Snapshot<TransactionBlock> target;
  persistence::ReadSnapshotInto(rb, &target);
  EXPECT_EQ(rb.status().code(), StatusCode::kDataLoss);
}

TEST(BlockCodecTest, TransactionBlockDecodesNormalizedAndRefusesLengthLies) {
  // Hand-framed bytes: records out of order and with duplicates decode to
  // the normalized records, as every other entry point produces them.
  Writer w;
  persistence::WriteBlockInfo(w, BlockInfo{});
  w.WriteU64(40);  // first tid
  w.WriteU64(3);   // records
  w.WriteU32Vector({9, 2, 9, 4});
  w.WriteU32Vector({});
  w.WriteU32Vector({3, 3});
  Reader r(w.buffer());
  TransactionBlock block;
  persistence::ReadBlockInto(r, &block);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(block, TransactionBlock({Transaction({2, 4, 9}), Transaction(),
                                     Transaction({3})},
                                    40));
  EXPECT_EQ(block.TotalItemOccurrences(), 4u);

  // A record claiming 2^40 items, or 2^62 (whose byte count wraps to 0
  // in 64 bits), or a block claiming 2^40 records, is DataLoss before
  // anything is sized by the claim; the target block is left as it was.
  const TransactionBlock sentinel({Transaction({1})}, 0);
  const std::pair<uint64_t, uint64_t> lies[] = {
      {2, uint64_t{1} << 40}, {2, uint64_t{1} << 62}, {uint64_t{1} << 40, 1}};
  for (const auto& [records, second_length] : lies) {
    Writer lie;
    persistence::WriteBlockInfo(lie, BlockInfo{});
    lie.WriteU64(0);
    lie.WriteU64(records);
    lie.WriteU32Vector({1});
    lie.WriteU64(second_length);
    lie.WriteU32(5);
    Reader rl(lie.buffer());
    TransactionBlock target = sentinel;
    persistence::ReadBlockInto(rl, &target);
    EXPECT_EQ(rl.status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(target, sentinel);
  }
}

TEST(BlockCodecTest, CorruptBlockLatchesInsteadOfCrashing) {
  Writer w;
  persistence::WriteBlock(w, MakeLbBlock(1));
  // Flip a byte in the middle of the payload; the reader must reject the
  // record structurally (label/attribute range checks) rather than abort
  // in the LabeledBlock constructor.
  for (size_t flip = 8; flip + 1 < w.buffer().size(); flip += 7) {
    std::string corrupted = w.buffer();
    corrupted[flip] ^= 0x5A;
    Reader r(corrupted);
    LabeledBlock block;
    persistence::ReadBlockInto(r, &block);
    // Either the flip landed somewhere harmless (decodes fine) or it was
    // caught — never a crash.
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
    }
  }
}

// ---------------------------------------------------------------------------
// Write-ahead log.

TEST(WalTest, AppendReplayRoundTripAcrossPayloads) {
  const std::string path = TempPath("wal_roundtrip.bin");
  std::remove(path.c_str());
  {
    auto wal = persistence::WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(MakeTxBlock(1)).ok());
    ASSERT_TRUE(wal.value()->Append(MakePtBlock(1)).ok());
    ASSERT_TRUE(wal.value()->Append(MakeLbBlock(1)).ok());
    ASSERT_TRUE(wal.value()->Append(MakeTxBlock(2)).ok());
    EXPECT_EQ(wal.value()->num_records(), 4u);
  }

  std::vector<std::string> order;
  persistence::WriteAheadLog::Replayer replayer;
  replayer.transactions = [&](std::shared_ptr<const TransactionBlock> b) {
    order.push_back("tx" + std::to_string(b->info().id));
    return Status::OK();
  };
  replayer.points = [&](std::shared_ptr<const PointBlock> b) {
    order.push_back("pt" + std::to_string(b->info().id));
    return Status::OK();
  };
  replayer.labeled = [&](std::shared_ptr<const LabeledBlock> b) {
    order.push_back("lb" + std::to_string(b->info().id));
    return Status::OK();
  };
  ASSERT_TRUE(persistence::WriteAheadLog::Replay(path, replayer).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"tx1", "pt1", "lb1", "tx2"}));

  // Re-opening an existing log counts its durable records.
  auto reopened = persistence::WriteAheadLog::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->num_records(), 4u);
}

TEST(WalTest, TornTailIsTruncatedCorruptRecordIsDataLoss) {
  const std::string path = TempPath("wal_torn.bin");
  std::remove(path.c_str());
  {
    auto wal = persistence::WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(MakeTxBlock(1)).ok());
    ASSERT_TRUE(wal.value()->Append(MakeTxBlock(2)).ok());
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());

  // Crash signature: the last record is incomplete. Open drops it; the
  // first record survives.
  const std::string torn =
      bytes.value().substr(0, bytes.value().size() - 11);
  ASSERT_TRUE(WriteFileBytes(path, torn).ok());
  {
    auto wal = persistence::WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ(wal.value()->num_records(), 1u);
    // The log stays appendable after truncation.
    ASSERT_TRUE(wal.value()->Append(MakeTxBlock(2)).ok());
    EXPECT_EQ(wal.value()->num_records(), 2u);
  }

  // Genuine corruption: a complete record whose checksum no longer
  // matches must not be silently dropped. Flip a byte inside the first
  // record's payload (header is 24 bytes, record framing is 9, so offset
  // 40 is well inside the payload) — the record stays complete but its
  // checksum no longer matches.
  std::string corrupt = bytes.value();
  corrupt[40] ^= 0x1;
  ASSERT_TRUE(WriteFileBytes(path, corrupt).ok());
  EXPECT_EQ(persistence::WriteAheadLog::Open(path).status().code(),
            StatusCode::kDataLoss);
  persistence::WriteAheadLog::Replayer ignore;
  ignore.transactions = [](std::shared_ptr<const TransactionBlock>) {
    return Status::OK();
  };
  EXPECT_EQ(persistence::WriteAheadLog::Replay(path, ignore).code(),
            StatusCode::kDataLoss);
}

TEST(WalTest, HostileLengthIsATornTailNotAnAbort) {
  // A valid header, kind 1, then a length that wraps when the checksum's
  // 8 bytes are added to it: 33 bytes that must read as a torn tail.
  const std::string path = TempPath("wal_hostile_length.bin");
  Writer w;
  FileHeader::Append(w, FormatId::kWriteAheadLog, 1);
  w.WriteU8(1);
  w.WriteU64(0xFFFFFFFFFFFFFFF8ULL);
  ASSERT_EQ(w.size(), 33u);
  ASSERT_TRUE(WriteFileBytes(path, w.buffer()).ok());

  persistence::WriteAheadLog::Replayer replayer;
  size_t calls = 0;
  replayer.transactions = [&calls](std::shared_ptr<const TransactionBlock>) {
    ++calls;
    return Status::OK();
  };
  EXPECT_TRUE(persistence::WriteAheadLog::Replay(path, replayer).ok());
  EXPECT_EQ(calls, 0u);
  {
    auto wal = persistence::WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status();
    EXPECT_EQ(wal.value()->num_records(), 0u);
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value().size(), FileHeader::kBytes);
  EXPECT_TRUE(persistence::WriteAheadLog::Replay(path, replayer).ok());
  EXPECT_EQ(calls, 0u);
}

TEST(WalTest, WrongFormatFileIsInvalidArgument) {
  const std::string path = TempPath("wal_wrong_format.bin");
  Writer payload;
  payload.WriteU32(1);
  ASSERT_TRUE(persistence::WritePayloadFile(path, FormatId::kCheckpoint, 1,
                                            payload)
                  .ok());
  EXPECT_EQ(persistence::WriteAheadLog::Open(path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WalTest, ResetEmptiesTheLog) {
  const std::string path = TempPath("wal_reset.bin");
  std::remove(path.c_str());
  auto wal = persistence::WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value()->Append(MakeTxBlock(1)).ok());
  ASSERT_TRUE(wal.value()->Reset().ok());
  EXPECT_EQ(wal.value()->num_records(), 0u);
  ASSERT_TRUE(wal.value()->Append(MakeTxBlock(5)).ok());

  size_t replayed = 0;
  persistence::WriteAheadLog::Replayer replayer;
  replayer.transactions = [&](std::shared_ptr<const TransactionBlock> b) {
    EXPECT_EQ(b->info().id, 5u);
    ++replayed;
    return Status::OK();
  };
  ASSERT_TRUE(persistence::WriteAheadLog::Replay(path, replayer).ok());
  EXPECT_EQ(replayed, 1u);
}

// Recorded before file I/O moved into persistence/file: a WAL holding one
// record of each payload kind must keep exactly these bytes.
constexpr size_t kPinnedWalBytes = 329;
constexpr uint64_t kPinnedWalHash = 0x69ad745ec6b3c9ecULL;

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(WalTest, BytesArePinned) {
  const std::string path = TempPath("wal_pinned.bin");
  std::remove(path.c_str());
  {
    auto wal = persistence::WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()->Append(MakeTxBlock(1)).ok());
    ASSERT_TRUE(wal.value()->Append(MakePtBlock(2)).ok());
    ASSERT_TRUE(wal.value()->Append(MakeLbBlock(3)).ok());
  }
  auto bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value().size(), kPinnedWalBytes);
  EXPECT_EQ(Fnv1a64(bytes.value()), kPinnedWalHash);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// BSS and MonitorSpec codecs.

TEST(BssCodecTest, AllFormsRoundTrip) {
  const std::vector<BlockSelectionSequence> forms = {
      BlockSelectionSequence::AllBlocks(),
      BlockSelectionSequence::WindowIndependent({true, false, true}, true),
      BlockSelectionSequence::Periodic(7, 2),
      BlockSelectionSequence::WindowRelative({true, false, true}),
  };
  for (const auto& bss : forms) {
    Writer w;
    bss.SaveTo(w);
    Reader r(w.buffer());
    auto restored = BlockSelectionSequence::LoadFrom(r);
    ASSERT_TRUE(restored.ok()) << bss.ToString();
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(restored.value().ToString(), bss.ToString());
    EXPECT_EQ(restored.value().kind(), bss.kind());
  }
}

TEST(BssCodecTest, CorruptKindAndPhaseAreDataLoss) {
  Writer w;
  BlockSelectionSequence::AllBlocks().SaveTo(w);
  std::string corrupted = w.buffer();
  corrupted[0] = 9;  // unknown kind
  Reader r(corrupted);
  EXPECT_EQ(BlockSelectionSequence::LoadFrom(r).status().code(),
            StatusCode::kDataLoss);

  Writer wp;
  BlockSelectionSequence::Periodic(3, 1).SaveTo(wp);
  std::string bad_phase = wp.buffer();
  // phase is the final u64; make it >= period.
  bad_phase[bad_phase.size() - 8] = 7;
  Reader rp(bad_phase);
  EXPECT_EQ(BlockSelectionSequence::LoadFrom(rp).status().code(),
            StatusCode::kDataLoss);
}

TEST(MonitorSpecCodecTest, FullSpecRoundTrips) {
  MonitorSpec spec;
  spec.kind = MonitorKind::kWindowedClusters;
  spec.name = "mrw-clusters";
  spec.bss = BlockSelectionSequence::WindowRelative({true, false, true});
  spec.window = 3;
  spec.minsup = 0.025;
  spec.strategy = CountingStrategy::kEcutPlus;
  spec.dim = 4;
  spec.birch.tree.branching = 8;
  spec.birch.tree.leaf_capacity = 16;
  spec.birch.tree.max_leaf_entries = 256;
  spec.birch.tree.initial_threshold = 0.5;
  spec.birch.num_clusters = 7;
  spec.birch.phase2 = Phase2Algorithm::kWeightedKMeans;
  spec.birch.seed = 99;
  spec.birch.kmeans_max_iterations = 13;
  spec.schema.attribute_cardinalities = {4, 2, 3};
  spec.schema.num_classes = 3;
  spec.dtree.min_split_weight = 120.0;
  spec.dtree.min_gain = 0.02;
  spec.dtree.max_depth = 9;
  spec.alpha = 0.9;
  spec.tidlist_budget_bytes = 1 << 20;
  spec.tidlist_spill_dir = "/tmp/demon-spill";

  Writer w;
  SaveMonitorSpec(w, spec);
  Reader r(w.buffer());
  auto restored = LoadMonitorSpec(r, /*checkpoint_version=*/2);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(r.AtEnd());
  const MonitorSpec& s = restored.value();
  EXPECT_EQ(s.kind, spec.kind);
  EXPECT_EQ(s.name, spec.name);
  EXPECT_EQ(s.bss.ToString(), spec.bss.ToString());
  EXPECT_EQ(s.window, spec.window);
  EXPECT_EQ(s.minsup, spec.minsup);
  EXPECT_EQ(s.strategy, spec.strategy);
  EXPECT_EQ(s.dim, spec.dim);
  EXPECT_EQ(s.birch.tree.branching, spec.birch.tree.branching);
  EXPECT_EQ(s.birch.tree.leaf_capacity, spec.birch.tree.leaf_capacity);
  EXPECT_EQ(s.birch.tree.max_leaf_entries, spec.birch.tree.max_leaf_entries);
  EXPECT_EQ(s.birch.tree.initial_threshold, spec.birch.tree.initial_threshold);
  EXPECT_EQ(s.birch.num_clusters, spec.birch.num_clusters);
  EXPECT_EQ(s.birch.phase2, spec.birch.phase2);
  EXPECT_EQ(s.birch.seed, spec.birch.seed);
  EXPECT_EQ(s.birch.kmeans_max_iterations, spec.birch.kmeans_max_iterations);
  EXPECT_EQ(s.schema.attribute_cardinalities,
            spec.schema.attribute_cardinalities);
  EXPECT_EQ(s.schema.num_classes, spec.schema.num_classes);
  EXPECT_EQ(s.dtree.min_split_weight, spec.dtree.min_split_weight);
  EXPECT_EQ(s.dtree.min_gain, spec.dtree.min_gain);
  EXPECT_EQ(s.dtree.max_depth, spec.dtree.max_depth);
  EXPECT_EQ(s.alpha, spec.alpha);
  EXPECT_EQ(s.tidlist_budget_bytes, spec.tidlist_budget_bytes);
  EXPECT_EQ(s.tidlist_spill_dir, spec.tidlist_spill_dir);
}

TEST(MonitorSpecCodecTest, Version1PayloadKeepsDefaultBudgetFields) {
  // A v1 checkpoint predates the TID-list budget fields: the loader must
  // stop before them and leave the defaults in place. Simulate by saving
  // with the current writer and truncating the trailing budget fields.
  MonitorSpec spec;
  spec.name = "v1";
  Writer w;
  SaveMonitorSpec(w, spec);
  Writer w_v1;
  // Trailing bytes: U64 budget + U64 length prefix of the empty spill dir.
  const size_t v1_size = w.size() - 2 * sizeof(uint64_t);
  w_v1.AppendRaw(w.buffer().data(), v1_size);
  Reader r(w_v1.buffer());
  auto restored = LoadMonitorSpec(r, /*checkpoint_version=*/1);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.value().tidlist_budget_bytes, 0u);
  EXPECT_TRUE(restored.value().tidlist_spill_dir.empty());
}

TEST(MonitorSpecCodecTest, UnknownEnumValuesAreDataLoss) {
  MonitorSpec spec;
  spec.name = "x";
  Writer w;
  SaveMonitorSpec(w, spec);
  std::string corrupted = w.buffer();
  corrupted[0] = 99;  // kind is the first byte
  Reader r(corrupted);
  EXPECT_EQ(LoadMonitorSpec(r, /*checkpoint_version=*/2).status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace demon
