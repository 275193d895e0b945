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

// Appends little-endian fixed-width values to an owned byte buffer.
class StateWriter {
 public:
  void U8(uint8_t v) { data_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Double(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  // Length-prefixed byte string (u32 length + raw bytes).
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    data_.append(s.data(), s.size());
  }

  void Reserve(size_t bytes) { data_.reserve(bytes); }
  const std::string& data() const { return data_; }
  std::string Take() { return std::move(data_); }

 private:
  // One append of the value's bytes in little-endian order.
  template <typename T>
  void AppendLe(T v) {
    if constexpr (std::endian::native == std::endian::big) v = SwapBytes(v);
    data_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }

  std::string data_;
};

// Bounds-checked reader over an immutable byte buffer. Reads advance an
// offset; any read past the end returns false and leaves the output
// untouched. Once a read fails the reader stays failed (ok() == false) so
// callers can decode a whole section and check once.
class StateReader {
 public:
  explicit StateReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* out) {
    if (!Require(1)) return false;
    *out = static_cast<uint8_t>(data_[offset_++]);
    return true;
  }
  bool U32(uint32_t* out) { return ReadLe(out); }
  bool U64(uint64_t* out) { return ReadLe(out); }
  bool I64(int64_t* out) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    *out = static_cast<int64_t>(bits);
    return true;
  }
  bool Double(double* out) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }
  bool Str(std::string* out) {
    uint32_t len;
    if (!U32(&len) || !Require(len)) return false;
    out->assign(data_.data() + offset_, len);
    offset_ += len;
    return true;
  }

  bool ok() const { return ok_; }
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
  // One bounds check and one copy per little-endian scalar.
  template <typename T>
  bool ReadLe(T* out) {
    if (!Require(sizeof(T))) return false;
    T v;
    std::memcpy(&v, data_.data() + offset_, sizeof(T));
    if constexpr (std::endian::native == std::endian::big) v = SwapBytes(v);
    offset_ += sizeof(T);
    *out = v;
    return true;
  }

  std::string_view data_;
  size_t offset_ = 0;
  bool ok_ = true;
};

// Reflected CRC-32 (polynomial 0xEDB88320) over the given bytes.
uint32_t Crc32(std::string_view data);

}  // namespace stateslice

#endif  // STATESLICE_COMMON_SERDE_H_
