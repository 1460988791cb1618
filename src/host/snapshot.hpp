// host::snapshot — the versioned binary checkpoint codec (DESIGN.md §12).
//
// A snapshot captures the *complete* deterministic state of an engine —
// every node record with its three RNG stream positions, every agent's
// protocol state (through the NodeAgent save/restore hooks), the overlay,
// the global stream, traffic ledgers and the scheduler state — such that
// restore + run-to-round-R is bit-identical to the uninterrupted run. The
// golden-resume fixtures in tests/golden_replay_test.cpp pin this for the
// serial, sharded and event-driven engines, with and without fault plans.
//
// Framing follows src/wire conventions exactly (little-endian fixed-width
// integers, IEEE-754 doubles, u32 length prefixes with allocation guards):
//
//   u32 magic 'A''2''S''N'   | u32 format version | u32 engine kind
//   sections: { u32 tag | u32 byte length | payload } ...
//   u64 FNV-1a checksum over everything before it
//
// Decoding is reject-don't-crash: every malformed input — wrong magic,
// unsupported version, engine-kind mismatch, checksum failure, truncation,
// oversized lengths, non-canonical flags — raises wire::DecodeError with a
// diagnostic and leaves the engine untouched (engines restore into scratch
// state and swap only after the full parse succeeds). The 10k-seeded-mutant
// corpus in tests/snapshot_test.cpp enforces "rejected or canonical, never
// UB".
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "host/fault.hpp"
#include "host/registry.hpp"
#include "host/traffic.hpp"
#include "rng/rng.hpp"
#include "wire/buffer.hpp"

namespace adam2::host::snapshot {

/// 'A' '2' 'S' 'N' as little-endian bytes on disk.
inline constexpr std::uint32_t kMagic = 0x4e533241U;
/// Bumped on every layout change, however small, so an older snapshot is
/// refused by its version number instead of misparsed (DESIGN.md §12.1).
inline constexpr std::uint32_t kFormatVersion = 3;

/// Thrown on the *encode* side only (e.g. an agent type without snapshot
/// support). Decode-side rejection is always wire::DecodeError.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

/// Discriminates the engine family a snapshot belongs to. The cycle engine
/// writes one layout at any thread count (the workers hold only per-round
/// scratch); the event-driven engine adds its queue. Restoring into the
/// wrong family is rejected.
enum class EngineKind : std::uint32_t {
  kCycle = 1,
  kAsync = 2,
};

// Section tags, in on-disk order.
inline constexpr std::uint32_t kSectionMeta = 1;     ///< Config echo + labels.
inline constexpr std::uint32_t kSectionEngine = 2;   ///< Scheduler state.
inline constexpr std::uint32_t kSectionNodes = 3;    ///< Node table + agents.
inline constexpr std::uint32_t kSectionOverlay = 4;  ///< Overlay state blob.
inline constexpr std::uint32_t kSectionQueue = 5;    ///< Async event queue.

/// FNV-1a over `bytes` (the project's digest primitive, same constants as
/// the golden replay fixtures).
[[nodiscard]] std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept;

// -- Field helpers (shared by every engine's save/restore) -------------------

void write_rng(wire::Writer& out, const rng::Rng& rng);
/// Throws wire::DecodeError on a non-canonical cached-normal flag.
void read_rng(wire::Reader& in, rng::Rng& rng);

void write_traffic(wire::Writer& out, const TrafficStats& traffic);
void read_traffic(wire::Reader& in, TrafficStats& traffic);

void write_fault_plan(wire::Writer& out, const FaultPlan& plan);
[[nodiscard]] FaultPlan read_fault_plan(wire::Reader& in);

/// Writes the kSectionNodes payload for `table` into an open section:
/// every node record in id order (id, attribute, birth round, alive flag,
/// all three stream states, and — for live nodes — the agent's state blob
/// via NodeAgent::save_state), then the explicit live-id order
/// (history-dependent, cannot be re-derived).
/// Throws SnapshotError when a live agent does not support snapshotting.
void write_node_table(wire::Writer& out, const NodeTable& table);

/// Restores the kSectionNodes payload into `table` (cleared first).
/// `make_agent` constructs the replacement agent for a live node *after* the
/// node's record and streams are installed; the codec then feeds it the
/// saved state blob via NodeAgent::restore_state. Throws wire::DecodeError
/// on any malformed input, including a record whose id is not its position.
void read_node_table(
    wire::Reader& in, NodeTable& table,
    const std::function<std::unique_ptr<NodeAgent>(Node&)>& make_agent);

// -- Container framing -------------------------------------------------------

/// Builds one snapshot: header, then tagged sections, then the trailing
/// checksum. Sections must be written in tag order and cannot nest.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(EngineKind kind);

  /// The underlying encoder; write section payloads through this between
  /// begin_section / end_section.
  [[nodiscard]] wire::Writer& out() { return out_; }

  void begin_section(std::uint32_t tag);
  void end_section();

  /// Appends the checksum and returns the finished snapshot bytes. The
  /// writer is spent afterwards.
  [[nodiscard]] std::vector<std::byte> finish();

 private:
  wire::Writer out_;
  std::size_t open_length_offset_ = 0;
  bool section_open_ = false;
};

/// Validates the container (magic, version, engine kind, checksum) upfront,
/// then hands out one bounds-checked wire::Reader per section, in order.
class SnapshotReader {
 public:
  /// Throws wire::DecodeError with a diagnostic on any container-level
  /// problem.
  SnapshotReader(std::span<const std::byte> bytes, EngineKind expected_kind);

  [[nodiscard]] std::uint32_t version() const { return version_; }

  /// Opens the next section; its tag must equal `expected_tag`. The
  /// returned reader covers exactly the section payload — callers finish
  /// with expect_done() so trailing garbage inside a section is rejected.
  [[nodiscard]] wire::Reader section(std::uint32_t expected_tag);

  /// Throws unless every section was consumed.
  void expect_end() const;

 private:
  std::span<const std::byte> body_;  ///< The sections region.
  std::size_t pos_ = 0;
  std::uint32_t version_ = 0;
};

// -- File I/O ----------------------------------------------------------------
// Snapshots land on disk through obs::atomic_write_file (temp file, flush,
// fsync, rename), so an interrupted save never leaves a partial file.

/// Reads a snapshot file whole. Returns nullopt (and fills `*error` when
/// given) if the file cannot be read or is larger than `max_bytes`.
[[nodiscard]] std::optional<std::vector<std::byte>> read_snapshot_file(
    const std::filesystem::path& path, std::string* error = nullptr,
    std::size_t max_bytes = std::size_t{1} << 32);

}  // namespace adam2::host::snapshot
