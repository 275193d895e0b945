// Binary serialization primitives for engine checkpoints.
//
// StateWriter appends fixed-width little-endian scalars and
// length-prefixed byte strings to a growable buffer; StateReader is the
// bounds-checked inverse. Every Read returns false instead of crashing
// when the buffer runs out, so a torn or truncated checkpoint surfaces as
// a clean diagnostic at the call site rather than UB deep in a decode.
// Crc32 computes the reflected CRC-32 (IEEE 802.3 polynomial) in
// software, eight bytes per step (slice-by-8); Engine::Checkpoint appends
// it as a trailing checksum over everything before it, which is how
// partial writes are detected. Scalars move with one append or copy each,
// so encoding and checksumming cost per byte, not per call.
//
// The encoding is deliberately dumb: no varints, no field tags, no
// alignment. The checkpoint format gets its versioning from a single
// format-version integer in the header (see checkpoint.cc), and both ends of
// the wire are this codebase, so schema evolution happens by bumping that
// version — not by making the primitive layer clever.
#ifndef STATESLICE_COMMON_SERDE_H_
#define STATESLICE_COMMON_SERDE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace stateslice {

// Reverses the byte order of an unsigned integer (big-endian hosts only;
// the wire format is little-endian).
template <typename T>
constexpr T SwapBytes(T v) {
  T out = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>((out << 8) | ((v >> (8 * i)) & 0xff));
  }
  return out;
}

// Sticky failure state shared by both ends of the codec: once failed, an
// archive stays failed and keeps the first reason given (empty when a read
// simply ran out of bytes), so a caller can encode or decode a whole
// section and check once.
class SerdeStatus {
 public:
  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  void Fail(std::string why) {
    if (!ok_) return;
    ok_ = false;
    error_ = std::move(why);
  }

 protected:
  bool ok_ = true;
  std::string error_;
};

// Appends little-endian fixed-width values to an owned byte buffer.
class StateWriter : public SerdeStatus {
 public:
  // Any wire scalar by its type (uint8_t, uint32_t, uint64_t, int64_t,
  // double): one append of its little-endian bytes.
  template <typename T>
  void Put(T v) {
    if constexpr (std::is_floating_point_v<T>) {
      AppendLe(std::bit_cast<uint64_t>(v));
    } else {
      AppendLe(static_cast<std::make_unsigned_t<T>>(v));
    }
  }
  void U8(uint8_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void I64(int64_t v) { Put(v); }
  void Double(double v) { Put(v); }
  // Length-prefixed byte string (u32 length + raw bytes).
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    data_.append(s.data(), s.size());
  }

  void Reserve(size_t bytes) { data_.reserve(bytes); }
  const std::string& data() const { return data_; }
  std::string Take() { return std::move(data_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    if constexpr (std::endian::native == std::endian::big) v = SwapBytes(v);
    data_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  std::string data_;
};

// Bounds-checked reader over an immutable byte buffer. Reads advance an
// offset; any read past the end returns false, leaves the output untouched
// and fails the reader for good (ok() == false).
class StateReader : public SerdeStatus {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  // The inverse of StateWriter::Put: one bounds check and one copy.
  template <typename T>
  bool Get(T* out) {
    using Bits = typename std::conditional_t<std::is_floating_point_v<T>,
                                             std::type_identity<uint64_t>,
                                             std::make_unsigned<T>>::type;
    if (!Require(sizeof(Bits))) return false;
    Bits v;
    std::memcpy(&v, data_.data() + offset_, sizeof(v));
    if constexpr (std::endian::native == std::endian::big) v = SwapBytes(v);
    offset_ += sizeof(v);
    *out = std::bit_cast<T>(v);
    return true;
  }
  bool U8(uint8_t* out) { return Get(out); }
  bool U32(uint32_t* out) { return Get(out); }
  bool U64(uint64_t* out) { return Get(out); }
  bool I64(int64_t* out) { return Get(out); }
  bool Double(double* out) { return Get(out); }
  bool Str(std::string* out) {
    uint32_t len;
    if (!U32(&len) || !Require(len)) return false;
    out->assign(data_.data() + offset_, len);
    offset_ += len;
    return true;
  }

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }
  bool AtEnd() const { return offset_ == data_.size(); }

 private:
  bool Require(size_t n) {
    if (!ok_ || data_.size() - offset_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t offset_ = 0;
};

// Reflected CRC-32 (polynomial 0xEDB88320) over the given bytes.
uint32_t Crc32(std::string_view data);

}  // namespace stateslice

#endif  // STATESLICE_COMMON_SERDE_H_
