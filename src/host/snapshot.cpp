#include "host/snapshot.hpp"

#include <bit>
#include <cassert>
#include <cstdio>
#include <system_error>

namespace adam2::host::snapshot {

std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

/// Reads a u8 that must encode a bool; anything but 0/1 is rejected so a
/// mutated flag byte cannot survive as an accepted-but-noncanonical restore.
bool read_bool(wire::Reader& in, const char* what) {
  const std::uint8_t v = in.u8();
  if (v > 1) {
    throw wire::DecodeError(std::string("non-canonical flag byte in ") + what);
  }
  return v != 0;
}

}  // namespace

void write_rng(wire::Writer& out, const rng::Rng& rng) {
  const rng::Rng::State state = rng.state();
  for (std::uint64_t word : state.words) out.u64(word);
  out.f64(state.cached_normal);
  out.u8(state.has_cached_normal ? 1 : 0);
}

void read_rng(wire::Reader& in, rng::Rng& rng) {
  rng::Rng::State state;
  for (std::uint64_t& word : state.words) word = in.u64();
  state.cached_normal = in.f64();
  state.has_cached_normal = read_bool(in, "rng state");
  // Canonical form: no cached normal means a zero payload (what state()
  // reports after the cache is consumed), so re-encode is byte-stable. The
  // bits are compared: -0.0 == 0.0, but it would re-encode as +0.0.
  if (!state.has_cached_normal &&
      std::bit_cast<std::uint64_t>(state.cached_normal) != 0) {
    throw wire::DecodeError("non-canonical cached normal in rng state");
  }
  rng.set_state(state);
}

void write_traffic(wire::Writer& out, const TrafficStats& traffic) {
  for (const ChannelTraffic& c : traffic.channels) {
    out.u64(c.messages_sent);
    out.u64(c.bytes_sent);
    out.u64(c.messages_received);
    out.u64(c.bytes_received);
  }
  out.u64(traffic.failed_contacts);
  out.u64(traffic.dropped_messages);
  out.u64(traffic.busy_rejections);
  out.u64(traffic.duplicated_messages);
  out.u64(traffic.corrupted_messages);
  out.u64(traffic.partitioned_messages);
  out.u64(traffic.delayed_messages);
  out.u64(traffic.crash_restarts);
  out.u64(traffic.rejected_messages);
}

void read_traffic(wire::Reader& in, TrafficStats& traffic) {
  for (ChannelTraffic& c : traffic.channels) {
    c.messages_sent = in.u64();
    c.bytes_sent = in.u64();
    c.messages_received = in.u64();
    c.bytes_received = in.u64();
  }
  traffic.failed_contacts = in.u64();
  traffic.dropped_messages = in.u64();
  traffic.busy_rejections = in.u64();
  traffic.duplicated_messages = in.u64();
  traffic.corrupted_messages = in.u64();
  traffic.partitioned_messages = in.u64();
  traffic.delayed_messages = in.u64();
  traffic.crash_restarts = in.u64();
  traffic.rejected_messages = in.u64();
}

void write_fault_plan(wire::Writer& out, const FaultPlan& plan) {
  out.f64(plan.drop_rate);
  out.f64(plan.duplicate_rate);
  out.f64(plan.corrupt_rate);
  out.f64(plan.delay_rate);
  out.f64(plan.max_delay);
  out.f64(plan.crash_rate);
  out.u64(plan.partition_count);
  out.u32(plan.partition_start);
  out.u32(plan.partition_heal_after);
  out.u64(plan.seed);
  out.u8(plan.warm_restart ? 1 : 0);
}

FaultPlan read_fault_plan(wire::Reader& in) {
  FaultPlan plan;
  plan.drop_rate = in.f64();
  plan.duplicate_rate = in.f64();
  plan.corrupt_rate = in.f64();
  plan.delay_rate = in.f64();
  plan.max_delay = in.f64();
  plan.crash_rate = in.f64();
  plan.partition_count = static_cast<std::size_t>(in.u64());
  plan.partition_start = in.u32();
  plan.partition_heal_after = in.u32();
  plan.seed = in.u64();
  plan.warm_restart = read_bool(in, "fault plan");
  return plan;
}

// Lower bound on an encoded node record: fixed header (8+8+4+1) and three
// rng states (41 bytes each). Used only as the allocation guard for the
// node-count prefix.
namespace {
constexpr std::size_t kMinNodeRecordBytes = 21 + 3 * 41;
}  // namespace

void write_node_table(wire::Writer& out, const NodeTable& table) {
  out.length(table.size());
  wire::Writer agent_blob;
  for (NodeId id = 0; id < table.size(); ++id) {
    const Node& node = table.at(id);
    const bool alive = table.is_live(id);
    out.u64(node.id);
    out.i64(node.attribute);
    out.u32(node.birth_round);
    out.u8(alive ? 1 : 0);
    write_rng(out, node.rng);
    write_rng(out, node.pick_rng);
    write_rng(out, node.fault_rng);
    if (!alive) continue;
    if (node.agent == nullptr) {
      throw SnapshotError("live node has no agent to snapshot");
    }
    agent_blob.clear();
    if (!node.agent->save_state(agent_blob)) {
      throw SnapshotError("agent type does not support snapshotting");
    }
    out.length(agent_blob.size());
    out.bytes(agent_blob.view());
  }
  out.length(table.live_count());
  for (NodeId id : table.live_ids()) out.u64(id);
}

void read_node_table(
    wire::Reader& in, NodeTable& table,
    const std::function<std::unique_ptr<NodeAgent>(Node&)>& make_agent) {
  table = NodeTable{};
  const std::size_t count = in.length(kMinNodeRecordBytes);
  table.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (in.u64() != i) {
      throw wire::DecodeError("node id is not its position in snapshot");
    }
    const stats::Value attribute = in.i64();
    const Round birth_round = in.u32();
    const bool alive = read_bool(in, "node record");
    Node& node = table.restore_node(attribute, birth_round, alive);
    read_rng(in, node.rng);
    read_rng(in, node.pick_rng);
    read_rng(in, node.fault_rng);
    if (!alive) continue;
    const std::size_t blob_size = in.length(1);
    wire::Reader blob(in.bytes(blob_size));
    node.agent = make_agent(node);
    if (node.agent == nullptr) {
      throw SnapshotError("agent factory returned null during restore");
    }
    if (!node.agent->restore_state(blob)) {
      throw wire::DecodeError("agent rejected its snapshot state blob");
    }
    blob.expect_done();
  }
  const std::size_t live = in.length(8);
  std::vector<NodeId> live_order;
  live_order.reserve(live);
  for (std::size_t i = 0; i < live; ++i) live_order.push_back(in.u64());
  try {
    table.finish_restore(live_order);
  } catch (const std::invalid_argument& error) {
    throw wire::DecodeError(std::string("snapshot live set invalid: ") +
                            error.what());
  }
}

SnapshotWriter::SnapshotWriter(EngineKind kind) {
  out_.u32(kMagic);
  out_.u32(kFormatVersion);
  out_.u32(static_cast<std::uint32_t>(kind));
}

void SnapshotWriter::begin_section(std::uint32_t tag) {
  assert(!section_open_);
  out_.u32(tag);
  open_length_offset_ = out_.size();
  out_.u32(0);  // Patched by end_section once the payload size is known.
  section_open_ = true;
}

void SnapshotWriter::end_section() {
  assert(section_open_);
  const std::size_t payload = out_.size() - open_length_offset_ - 4;
  if (payload > UINT32_MAX) {
    throw SnapshotError("snapshot section exceeds 4 GiB");
  }
  out_.patch_u32(open_length_offset_, static_cast<std::uint32_t>(payload));
  section_open_ = false;
}

std::vector<std::byte> SnapshotWriter::finish() {
  assert(!section_open_);
  out_.u64(fnv1a(out_.view()));
  return out_.take();
}

SnapshotReader::SnapshotReader(std::span<const std::byte> bytes,
                               EngineKind expected_kind) {
  constexpr std::size_t kHeaderBytes = 12;
  constexpr std::size_t kChecksumBytes = 8;
  if (bytes.size() < kHeaderBytes + kChecksumBytes) {
    throw wire::DecodeError("snapshot truncated (no room for header)");
  }
  wire::Reader header(bytes.first(kHeaderBytes));
  if (header.u32() != kMagic) {
    throw wire::DecodeError("not an adam2 snapshot (bad magic)");
  }
  version_ = header.u32();
  if (version_ != kFormatVersion) {
    throw wire::DecodeError("unsupported snapshot format version");
  }
  if (header.u32() != static_cast<std::uint32_t>(expected_kind)) {
    throw wire::DecodeError("snapshot was taken by a different engine kind");
  }
  wire::Reader trailer(bytes.last(kChecksumBytes));
  if (trailer.u64() != fnv1a(bytes.first(bytes.size() - kChecksumBytes))) {
    throw wire::DecodeError("snapshot checksum mismatch");
  }
  body_ = bytes.subspan(kHeaderBytes,
                        bytes.size() - kHeaderBytes - kChecksumBytes);
}

wire::Reader SnapshotReader::section(std::uint32_t expected_tag) {
  if (body_.size() - pos_ < 8) {
    throw wire::DecodeError("snapshot section header truncated");
  }
  wire::Reader header(body_.subspan(pos_, 8));
  if (header.u32() != expected_tag) {
    throw wire::DecodeError("unexpected snapshot section tag");
  }
  const std::uint32_t length = header.u32();
  if (length > body_.size() - pos_ - 8) {
    throw wire::DecodeError("snapshot section overruns container");
  }
  wire::Reader payload(body_.subspan(pos_ + 8, length));
  pos_ += 8 + static_cast<std::size_t>(length);
  return payload;
}

void SnapshotReader::expect_end() const {
  if (pos_ != body_.size()) {
    throw wire::DecodeError("trailing bytes after final snapshot section");
  }
}

std::optional<std::vector<std::byte>> read_snapshot_file(
    const std::filesystem::path& path, std::string* error,
    std::size_t max_bytes) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot stat snapshot: " + ec.message();
    return std::nullopt;
  }
  if (size > max_bytes) {
    if (error != nullptr) *error = "snapshot file larger than the size cap";
    return std::nullopt;
  }
  std::FILE* in = std::fopen(path.string().c_str(), "rb");
  if (in == nullptr) {
    if (error != nullptr) *error = "cannot open snapshot file";
    return std::nullopt;
  }
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  const bool ok =
      bytes.empty() ||
      std::fread(bytes.data(), 1, bytes.size(), in) == bytes.size();
  std::fclose(in);
  if (!ok) {
    if (error != nullptr) *error = "short read on snapshot file";
    return std::nullopt;
  }
  return bytes;
}

}  // namespace adam2::host::snapshot
