#include "obs/export.hpp"

#include <charconv>
#include <cstdio>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define ADAM2_OBS_HAVE_FSYNC 1
#endif

namespace adam2::obs {

namespace {

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[24];
  auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, ptr);
}

void append_double(std::string& out, double value) {
  char buffer[40];
  // Shortest round-trip representation: byte-deterministic across runs and
  // locale-independent (unlike any printf-family formatting).
  auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, ptr);
}

void append_bool(std::string& out, bool value) {
  out += value ? "true" : "false";
}

void append_quoted(std::string& out, std::string_view text) {
  out += '"';
  out += json_escape(text);
  out += '"';
}

void append_field(std::string& out, const char* key, std::uint64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  append_u64(out, value);
}

bool write_text(const std::filesystem::path& path, std::string_view text) {
  return atomic_write_file(path, std::as_bytes(std::span(text)));
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20U) {
          out += "\\u00";
          const char* hex = "0123456789abcdef";
          out += hex[(static_cast<unsigned char>(c) >> 4U) & 0xfU];
          out += hex[static_cast<unsigned char>(c) & 0xfU];
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

std::string trace_jsonl(const TraceRing& trace) {
  std::string out;
  out.reserve(trace.size() * 96);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace.at(i);
    out += "{\"seq\":";
    append_u64(out, e.seq);
    out += ",\"round\":";
    append_u64(out, e.round);
    out += ",\"kind\":";
    append_quoted(out, event_kind_name(e.kind));
    switch (e.kind) {
      case EventKind::kEngineStart:
        append_field(out, "nodes", e.value_a);
        break;
      case EventKind::kEngineStop:
        break;
      case EventKind::kRoundBegin:
        append_field(out, "live", e.value_a);
        break;
      case EventKind::kRoundEnd:
        append_field(out, "live", e.value_a);
        append_field(out, "nodes_ever", e.value_b);
        break;
      case EventKind::kExchange:
        append_field(out, "initiator", e.a);
        append_field(out, "target", e.b);
        out += ",\"status\":";
        append_quoted(out, exchange_status_name(e.status));
        append_field(out, "req_copies", e.request_copies);
        append_field(out, "resp_copies", e.response_copies);
        out += ",\"req_corrupt\":";
        append_bool(out, e.request_corrupted);
        out += ",\"resp_corrupt\":";
        append_bool(out, e.response_corrupted);
        append_field(out, "req_bytes", e.value_a);
        append_field(out, "resp_bytes", e.value_b);
        break;
      case EventKind::kCrashRestart:
      case EventKind::kNodeJoin:
      case EventKind::kNodeDepart:
        append_field(out, "node", e.a);
        break;
      case EventKind::kInstanceStart:
      case EventKind::kInstanceEnd:
        append_field(out, "node", e.a);
        append_field(out, "instance", e.value_a);
        break;
    }
    out += "}\n";
  }
  return out;
}

std::string metrics_json(const MetricsRegistry& metrics) {
  std::string out = "{\n  \"schema\": \"adam2.metrics.v1\",\n  \"metrics\": [";
  bool first = true;
  for (const Metric& metric : metrics.metrics()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"name\":";
    append_quoted(out, metric.name);
    out += ",\"kind\":";
    append_quoted(out, metric_kind_name(metric.kind));
    switch (metric.kind) {
      case MetricKind::kCounter:
        out += ",\"value\":";
        append_u64(out, metric.count);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":";
        append_double(out, metric.value);
        break;
      case MetricKind::kHistogram: {
        out += ",\"count\":";
        append_u64(out, metric.count);
        out += ",\"sum\":";
        append_double(out, metric.value);
        out += ",\"bounds\":[";
        for (std::size_t i = 0; i < metric.bounds.size(); ++i) {
          if (i > 0) out += ',';
          append_double(out, metric.bounds[i]);
        }
        out += "],\"buckets\":[";
        for (std::size_t i = 0; i < metric.buckets.size(); ++i) {
          if (i > 0) out += ',';
          append_u64(out, metric.buckets[i]);
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string manifest_json(const RunManifest& manifest) {
  std::string out = "{\n  \"schema\": ";
  append_quoted(out, manifest.schema);
  out += ",\n  \"name\": ";
  append_quoted(out, manifest.name);
  out += ",\n  \"engine\": ";
  append_quoted(out, manifest.engine);
  out += ",\n  \"seed\": ";
  append_u64(out, manifest.seed);
  out += ",\n  \"threads\": ";
  append_u64(out, manifest.threads);
  out += ",\n  \"config\": {";
  bool first = true;
  for (const auto& [key, value] : manifest.config) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_quoted(out, key);
    out += ": ";
    append_quoted(out, value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"compiler\": ";
  append_quoted(out, manifest.compiler);
  out += ",\n  \"build\": ";
  append_quoted(out, manifest.build);
  out += "\n}\n";
  return out;
}

bool atomic_write_file(const std::filesystem::path& path,
                       std::span<const std::byte> bytes) {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  const std::filesystem::path tmp = path.string() + ".tmp";
  std::FILE* out = std::fopen(tmp.string().c_str(), "wb");
  if (out == nullptr) return false;
  bool ok = bytes.empty() ||
            std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  ok = std::fflush(out) == 0 && ok;
#ifdef ADAM2_OBS_HAVE_FSYNC
  // The rename below is only crash-atomic once the temp file's bytes are
  // durable; without the fsync a crash can rename an empty inode over a
  // previous good artifact.
  ok = ::fsync(fileno(out)) == 0 && ok;
#endif
  ok = std::fclose(out) == 0 && ok;
  if (!ok) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

bool write_trace_jsonl(const std::filesystem::path& path,
                       const TraceRing& trace) {
  return write_text(path, trace_jsonl(trace));
}

bool write_metrics_json(const std::filesystem::path& path,
                        const MetricsRegistry& metrics) {
  return write_text(path, metrics_json(metrics));
}

bool write_manifest_json(const std::filesystem::path& path,
                         const RunManifest& manifest) {
  return write_text(path, manifest_json(manifest));
}

}  // namespace adam2::obs
