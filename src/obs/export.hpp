// Exporters for the observability artifacts (DESIGN.md §11):
//
//   * trace_jsonl()    — one JSON object per trace event, newline-separated;
//   * metrics_json()   — registry snapshot, registration order;
//   * manifest_json()  — the run manifest.
//
// Every builder returns the artifact as a string (unit-testable, digestible)
// and has a write_* companion that lands it on disk through
// atomic_write_file(): write to `<path>.tmp`, flush, fsync, rename — so an
// interrupted run never leaves a truncated artifact behind. It is the
// project's one file writer: bench/common's BENCH_*.json reports and the
// snapshot files of adam2_sim and fig11 land through it too.
//
// All number formatting goes through std::to_chars: locale-independent and
// byte-deterministic, which is what lets the trace-determinism test compare
// serial and parallel exports byte-for-byte.
#pragma once

#include <cstddef>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace adam2::obs {

/// JSON string escaping (quotes, backslashes, control characters).
[[nodiscard]] std::string json_escape(std::string_view text);

[[nodiscard]] std::string trace_jsonl(const TraceRing& trace);
[[nodiscard]] std::string metrics_json(const MetricsRegistry& metrics);
[[nodiscard]] std::string manifest_json(const RunManifest& manifest);

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// flush, fsync, rename over the target. Creates parent directories.
/// Returns false (leaving no partial target) on any failure.
bool atomic_write_file(const std::filesystem::path& path,
                       std::span<const std::byte> bytes);

bool write_trace_jsonl(const std::filesystem::path& path,
                       const TraceRing& trace);
bool write_metrics_json(const std::filesystem::path& path,
                        const MetricsRegistry& metrics);
bool write_manifest_json(const std::filesystem::path& path,
                         const RunManifest& manifest);

}  // namespace adam2::obs
