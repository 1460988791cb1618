// Bounded binary encoding/decoding.
//
// Every message the simulator transports is actually serialised to bytes and
// decoded on receipt. This keeps protocol implementations honest about what
// crosses the wire and makes the cost evaluation (§VII-I) exact: traffic
// accounting simply sums encoded buffer sizes.
//
// Encoding: little-endian fixed-width integers, IEEE-754 doubles, and
// u32-length-prefixed sequences. No varints — message sizes stay predictable
// (the paper's ~800 B at lambda = 50 assumes 16 B per interpolation point).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace adam2::wire {

/// Thrown when a buffer is truncated or structurally invalid.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Unaligned little-endian load of a fixed-width integer at `at`. memcpy
/// keeps the read well-defined at any offset; on little-endian hosts it is
/// one plain load.
template <typename T>
[[nodiscard]] T load_le(const std::byte* at) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, at, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(at[i])) << (8 * i);
    }
  }
  return v;
}

/// The store matching load_le.
template <typename T>
void store_le(std::byte* at, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      at[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
    }
  }
}

[[nodiscard]] inline double load_f64(const std::byte* at) {
  const auto bits = load_le<std::uint64_t>(at);
  double v;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

inline void store_f64(std::byte* at, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  store_le(at, bits);
}

/// Append-only encoder.
class Writer {
 public:
  void u8(std::uint8_t v) { *extend(1) = static_cast<std::byte>(v); }
  void u16(std::uint16_t v) { store_le(extend(2), v); }
  void u32(std::uint32_t v) { store_le(extend(4), v); }
  void u64(std::uint64_t v) { store_le(extend(8), v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { store_f64(extend(8), v); }

  /// Appends a pre-encoded byte run verbatim. Used by the zero-copy encode
  /// fast path: on little-endian hosts a trivially-copyable record array
  /// already has the wire layout, so a sequence is one bulk append instead
  /// of a per-field loop.
  void bytes(std::span<const std::byte> data) {
    if (!data.empty()) {
      std::memcpy(extend(data.size()), data.data(), data.size());
    }
  }

  /// Appends `n` bytes and returns where they start, for the caller to
  /// fill: a fixed-size record is encoded in place with one append instead
  /// of one per field. Invalidated like view().
  [[nodiscard]] std::byte* extend(std::size_t n) {
    if (size_ + n > buf_.size()) grow(size_ + n);
    std::byte* at = buf_.data() + size_;
    size_ += n;
    return at;
  }

  /// Sequence length prefix (u32). Caller then writes `n` elements.
  void length(std::size_t n) {
    if (n > UINT32_MAX) throw DecodeError("sequence too long to encode");
    u32(static_cast<std::uint32_t>(n));
  }

  /// The encoded bytes, moved out; the writer is left empty.
  [[nodiscard]] std::vector<std::byte> take() {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// View of the encoded bytes; invalidated by any further write or clear().
  [[nodiscard]] std::span<const std::byte> view() const {
    return {buf_.data(), size_};
  }

  /// Drops the contents but keeps the capacity, so a Writer reused as a
  /// per-agent scratch buffer stops allocating once it has seen its largest
  /// message (the exchange hot path's allocation discipline, DESIGN.md §7).
  void clear() { size_ = 0; }

  /// Pre-allocates for a message whose encoded size is known.
  void reserve(std::size_t bytes) {
    if (bytes > buf_.size()) resize_to(bytes);
  }

  /// Overwrites 4 already-written bytes at `offset` (little endian). Used to
  /// patch sequence counts that are only known after the elements were
  /// appended. Precondition: offset + 4 <= size().
  void patch_u32(std::size_t offset, std::uint32_t v) {
    store_le(buf_.data() + offset, v);
  }

 private:
  /// vector::insert's growth over the written bytes, so a writer allocates
  /// exactly when, and as much as, a vector appended to would.
  void grow(std::size_t needed) { resize_to(std::max(needed, 2 * size_)); }

  void resize_to(std::size_t bytes) {
    buf_.reserve(bytes);
    buf_.resize(bytes);
  }

  /// All of buf_ is writable; its first size_ bytes are the output. An
  /// append bumps size_ and only grow() resizes: GCC 12 at -O3 misread
  /// vector::insert inlined into every append (-Warray-bounds).
  std::vector<std::byte> buf_;
  std::size_t size_ = 0;
};

/// Bounds-checked decoder over a byte span.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  [[nodiscard]] std::uint16_t u16() { return little_endian<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t u32() { return little_endian<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return little_endian<std::uint64_t>(); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Reads a sequence length and validates it against the remaining bytes
  /// (each element needs at least `min_element_size` bytes), so a corrupt
  /// length cannot trigger a huge allocation.
  [[nodiscard]] std::size_t length(std::size_t min_element_size) {
    const std::uint32_t n = u32();
    if (min_element_size > 0 && n > remaining() / min_element_size) {
      throw DecodeError("sequence length exceeds remaining buffer");
    }
    return n;
  }

  /// Advances past `n` bytes without decoding them (validation walks).
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  /// A view of the next `n` bytes, advancing past them. Used for nested
  /// length-prefixed blobs (e.g. the per-agent state blobs inside a
  /// host::snapshot node record); the view stays valid as long as the
  /// underlying buffer does.
  [[nodiscard]] std::span<const std::byte> bytes(std::size_t n) {
    need(n);
    const auto view = data_.subspan(pos_, n);
    pos_ += n;
    return view;
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

  /// Throws unless the entire buffer was consumed.
  void expect_done() const {
    if (!done()) throw DecodeError("trailing bytes after message");
  }

 private:
  template <typename T>
  [[nodiscard]] T little_endian() {
    need(sizeof(T));
    const T v = load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  void need(std::size_t n) const {
    if (remaining() < n) throw DecodeError("buffer truncated");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace adam2::wire
