#ifndef DEMON_PERSISTENCE_SERIALIZER_H_
#define DEMON_PERSISTENCE_SERIALIZER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace demon::persistence {

struct BlockSource;

/// \brief Append-only binary encoder backing every DEMON on-disk payload.
///
/// Writes into a growable in-memory buffer, so encoding itself cannot fail;
/// file-level concerns (headers, atomic rename) live with the caller.
/// All integers are fixed-width little-endian on every supported target;
/// doubles are serialized as their IEEE-754 bit patterns so a round trip is
/// bit-exact — the property the restore-equivalence tests depend on.
class Writer {
 public:
  void WriteU8(uint8_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  /// IEEE-754 bit pattern; exact round trip (no decimal formatting).
  void WriteDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    WriteU64(bits);
  }

  /// Length-prefixed byte string.
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    AppendRaw(s.data(), s.size());
  }

  /// Length-prefixed array of raw little-endian u32 values.
  void WriteU32Vector(const std::vector<uint32_t>& v) {
    WriteU64(v.size());
    AppendRaw(v.data(), v.size() * sizeof(uint32_t));
  }

  /// Length-prefixed array of IEEE-754 double bit patterns.
  void WriteDoubleVector(const std::vector<double>& v) {
    WriteU64(v.size());
    AppendRaw(v.data(), v.size() * sizeof(double));
  }

  void AppendRaw(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  const std::string& buffer() const { return buffer_; }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// \brief Bounds-checked decoder over a byte span, the dual of `Writer`.
///
/// Errors latch: the first out-of-bounds or malformed read records a
/// `DataLoss` status and every subsequent read returns a zero value, so
/// decoding code reads straight through and checks `status()` once at the
/// end — corrupt input can never index out of bounds or over-allocate
/// (vector lengths are validated against the remaining byte count before
/// any resize).
class Reader {
 public:
  Reader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  explicit Reader(const std::string& buffer)
      : Reader(buffer.data(), buffer.size()) {}

  uint8_t ReadU8() { return ReadPod<uint8_t>(); }
  uint32_t ReadU32() { return ReadPod<uint32_t>(); }
  uint64_t ReadU64() { return ReadPod<uint64_t>(); }
  int64_t ReadI64() { return ReadPod<int64_t>(); }

  bool ReadBool() {
    const uint8_t v = ReadU8();
    if (v > 1) Fail("boolean field holds " + std::to_string(v));
    return v == 1;
  }

  double ReadDouble() {
    const uint64_t bits = ReadU64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string ReadString() { return std::string(ReadBytes(ReadLength(1))); }

  /// Views the next `size` raw bytes and advances past them; the view
  /// points into the decoded buffer and is empty once an error latched.
  std::string_view ReadBytes(size_t size) {
    if (!ok()) return {};
    if (size > remaining()) {
      Fail("input truncated");
      return {};
    }
    const std::string_view bytes(reinterpret_cast<const char*>(data_ + pos_),
                                 size);
    pos_ += size;
    return bytes;
  }

  std::vector<uint32_t> ReadU32Vector() {
    return ReadPodVector<uint32_t>();
  }

  std::vector<double> ReadDoubleVector() { return ReadPodVector<double>(); }

  /// Reads a u64 element count and validates that `count * element_bytes`
  /// fits in the remaining input (the resize guard for corrupt lengths).
  size_t ReadLength(size_t element_bytes) {
    const uint64_t n = ReadU64();
    if (!ok()) return 0;
    if (element_bytes != 0 && n > remaining() / element_bytes) {
      Fail("length " + std::to_string(n) + " exceeds remaining input");
      return 0;
    }
    return static_cast<size_t>(n);
  }

  /// Splits off a child reader over the next `size` bytes and advances past
  /// them; used to frame per-monitor state so a buggy or corrupt section
  /// cannot read into its neighbor.
  Reader Sub(size_t size) {
    if (size > remaining()) {
      Fail("framed section of " + std::to_string(size) +
           " bytes exceeds remaining input");
      return Reader(data_ + pos_, 0);
    }
    Reader sub(data_ + pos_, size);
    sub.block_source_ = block_source_;
    pos_ += size;
    return sub;
  }

  /// Latches the first error as `DataLoss`; later reads return zeros.
  void Fail(const std::string& msg) {
    if (status_.ok()) status_ = Status::DataLoss(msg);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  /// Resolver for shared block data (set by the checkpoint loader); null
  /// when decoding formats that carry no block references.
  const BlockSource* block_source() const { return block_source_; }
  void set_block_source(const BlockSource* source) { block_source_ = source; }

 private:
  template <typename T>
  T ReadPod() {
    if (!ok()) return T{};
    if (remaining() < sizeof(T)) {
      Fail("input truncated");
      return T{};
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  template <typename T>
  std::vector<T> ReadPodVector() {
    std::vector<T> out;
    const size_t n = ReadLength(sizeof(T));
    // An empty vector's data() may be null, which memcpy must never see.
    if (!ok() || n == 0) return out;
    out.resize(n);
    std::memcpy(out.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  Status status_;
  const BlockSource* block_source_ = nullptr;
};

}  // namespace demon::persistence

#endif  // DEMON_PERSISTENCE_SERIALIZER_H_
