#include "obs/recorder.hpp"

#include <array>
#include <string>

namespace adam2::obs {

namespace {

// Payload-size buckets covering the paper's ~800 B messages with headroom.
constexpr std::array<double, 9> kByteBounds = {64,   128,  256,  512,  1024,
                                               2048, 4096, 8192, 16384};

}  // namespace

Recorder::Recorder(RecorderConfig config)
    : config_(config) {
  using host::Channel;
  for (std::size_t c = 0; c < host::kChannelCount; ++c) {
    const std::string prefix =
        std::string("traffic.") +
        host::channel_name(static_cast<Channel>(c)) + ".";
    channel_ids_[c].messages_sent = metrics_.counter(prefix + "messages_sent");
    channel_ids_[c].bytes_sent = metrics_.counter(prefix + "bytes_sent");
    channel_ids_[c].messages_received =
        metrics_.counter(prefix + "messages_received");
    channel_ids_[c].bytes_received =
        metrics_.counter(prefix + "bytes_received");
  }
  failed_contacts_ = metrics_.counter("traffic.failed_contacts");
  dropped_ = metrics_.counter("traffic.dropped_messages");
  busy_ = metrics_.counter("traffic.busy_rejections");
  duplicated_ = metrics_.counter("traffic.duplicated_messages");
  corrupted_ = metrics_.counter("traffic.corrupted_messages");
  partitioned_ = metrics_.counter("traffic.partitioned_messages");
  delayed_ = metrics_.counter("traffic.delayed_messages");
  crash_restarts_ = metrics_.counter("traffic.crash_restarts");
  rejected_ = metrics_.counter("traffic.rejected_messages");

  round_gauge_ = metrics_.gauge("round.current");
  live_gauge_ = metrics_.gauge("round.live_nodes");
  nodes_ever_gauge_ = metrics_.gauge("round.nodes_ever");

  for (std::uint8_t s = 0; s < 7; ++s) {
    exchange_status_[s] = metrics_.counter(
        std::string("exchange.") +
        exchange_status_name(static_cast<ExchangeStatus>(s)));
  }
  request_bytes_hist_ = metrics_.histogram("exchange.request_bytes",
                                           kByteBounds);
  response_bytes_hist_ = metrics_.histogram("exchange.response_bytes",
                                            kByteBounds);
}

void Recorder::engine_start(std::string_view kind, host::Round round,
                            std::size_t nodes) {
  if (manifest_.engine.empty()) manifest_.engine = std::string(kind);
  TraceEvent event;
  event.kind = EventKind::kEngineStart;
  event.round = round;
  event.value_a = nodes;
  push(event);
}

void Recorder::engine_stop(host::Round round) {
  TraceEvent event;
  event.kind = EventKind::kEngineStop;
  event.round = round;
  push(event);
}

void Recorder::round_begin(host::Round round, std::size_t live) {
  TraceEvent event;
  event.kind = EventKind::kRoundBegin;
  event.round = round;
  event.value_a = live;
  push(event);
}

void Recorder::round_end(host::Round round, std::size_t live,
                         std::size_t nodes_ever,
                         const host::TrafficStats& totals) {
  TraceEvent event;
  event.kind = EventKind::kRoundEnd;
  event.round = round;
  event.value_a = live;
  event.value_b = nodes_ever;
  push(event);

  metrics_.set(round_gauge_, static_cast<double>(round));
  metrics_.set(live_gauge_, static_cast<double>(live));
  metrics_.set(nodes_ever_gauge_, static_cast<double>(nodes_ever));
  set_traffic(totals);

  RoundSample sample;
  sample.round = round;
  sample.live = live;
  sample.nodes_ever = nodes_ever;
  sample.bytes_sent = totals.total_bytes_sent();
  sample.dropped = totals.dropped_messages;
  sample.duplicated = totals.duplicated_messages;
  sample.corrupted = totals.corrupted_messages;
  sample.partitioned = totals.partitioned_messages;
  sample.failed_contacts = totals.failed_contacts;
  sample.crash_restarts = totals.crash_restarts;
  series_.push_back(sample);
}

void Recorder::exchange(host::Round round, const ExchangeOutcome& outcome) {
  metrics_.add(exchange_status_[static_cast<std::uint8_t>(outcome.status)]);
  if (outcome.request_bytes > 0) {
    metrics_.observe(request_bytes_hist_,
                     static_cast<double>(outcome.request_bytes));
  }
  if (outcome.response_bytes > 0) {
    metrics_.observe(response_bytes_hist_,
                     static_cast<double>(outcome.response_bytes));
  }
  if (!config_.trace_exchanges) return;

  TraceEvent event;
  event.kind = EventKind::kExchange;
  event.round = round;
  event.status = outcome.status;
  event.request_copies = outcome.request_copies;
  event.response_copies = outcome.response_copies;
  event.request_corrupted = outcome.request_corrupted;
  event.response_corrupted = outcome.response_corrupted;
  event.a = outcome.initiator;
  event.b = outcome.has_target ? outcome.target : outcome.initiator;
  event.value_a = outcome.request_bytes;
  event.value_b = outcome.response_bytes;
  push(event);
}

void Recorder::crash_restart(host::Round round, host::NodeId node) {
  TraceEvent event;
  event.kind = EventKind::kCrashRestart;
  event.round = round;
  event.a = node;
  push(event);
}

void Recorder::node_join(host::Round round, host::NodeId node) {
  TraceEvent event;
  event.kind = EventKind::kNodeJoin;
  event.round = round;
  event.a = node;
  push(event);
}

void Recorder::node_depart(host::Round round, host::NodeId node) {
  TraceEvent event;
  event.kind = EventKind::kNodeDepart;
  event.round = round;
  event.a = node;
  push(event);
}

void Recorder::instance_start(host::Round round, host::NodeId initiator,
                              std::uint64_t instance) {
  TraceEvent event;
  event.kind = EventKind::kInstanceStart;
  event.round = round;
  event.a = initiator;
  event.value_a = instance;
  push(event);
}

void Recorder::instance_end(host::Round round, host::NodeId initiator,
                            std::uint64_t instance) {
  TraceEvent event;
  event.kind = EventKind::kInstanceEnd;
  event.round = round;
  event.a = initiator;
  event.value_a = instance;
  push(event);
}

void Recorder::set_traffic(const host::TrafficStats& totals) {
  for (std::size_t c = 0; c < host::kChannelCount; ++c) {
    const host::ChannelTraffic& channel = totals.channels[c];
    metrics_.set_counter(channel_ids_[c].messages_sent, channel.messages_sent);
    metrics_.set_counter(channel_ids_[c].bytes_sent, channel.bytes_sent);
    metrics_.set_counter(channel_ids_[c].messages_received,
                         channel.messages_received);
    metrics_.set_counter(channel_ids_[c].bytes_received,
                         channel.bytes_received);
  }
  metrics_.set_counter(failed_contacts_, totals.failed_contacts);
  metrics_.set_counter(dropped_, totals.dropped_messages);
  metrics_.set_counter(busy_, totals.busy_rejections);
  metrics_.set_counter(duplicated_, totals.duplicated_messages);
  metrics_.set_counter(corrupted_, totals.corrupted_messages);
  metrics_.set_counter(partitioned_, totals.partitioned_messages);
  metrics_.set_counter(delayed_, totals.delayed_messages);
  metrics_.set_counter(crash_restarts_, totals.crash_restarts);
  metrics_.set_counter(rejected_, totals.rejected_messages);
}

}  // namespace adam2::obs
