// Umbrella header: the sanctioned public surface of the Adam2 codebase.
//
// Applications (the examples/ programs, external embedders) include this one
// header and get everything the project supports as API:
//
//   * core/      — the Adam2 protocol, the Adam2System facade, multi-value
//                  aggregation and estimate evaluation;
//   * sim/       — the cycle-driven (serial or sharded) and event-driven
//                  simulation substrates plus the overlay implementations;
//   * runtime/   — the wall-clock runtime: runtime::Peer over an
//                  in-process (Cluster) or loopback-UDP endpoint;
//   * obs/       — the observability layer: obs::Recorder with its metrics
//                  registry, deterministic trace and run-manifest exporters;
//   * data/      — synthetic BOINC-style populations and host-trace loading;
//   * stats/     — empirical CDFs and the paper's error metrics;
//   * rng/       — the deterministic RNG used throughout.
//
// Everything not reachable from here (host/ internals, wire/ codecs,
// baselines/) is implementation detail and may change without notice.
// Layering: this file lives directly in src/, which the adam2_lint layer map
// ranks as "top" — the one place that may name every subsystem.
#pragma once

#include "core/config.hpp"
#include "core/evaluation.hpp"
#include "core/multi.hpp"
#include "core/protocol.hpp"
#include "core/system.hpp"

#include "sim/async_engine.hpp"
#include "sim/cycle_engine.hpp"
#include "sim/overlay.hpp"

#include "runtime/cluster.hpp"
#include "runtime/peer.hpp"
#include "runtime/udp.hpp"

#include "obs/export.hpp"
#include "obs/recorder.hpp"

#include "data/boinc_synth.hpp"
#include "data/trace.hpp"
#include "rng/rng.hpp"
#include "stats/cdf.hpp"
#include "stats/error_metrics.hpp"
