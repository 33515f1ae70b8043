// BackendConfig: one declarative description of a cluster's serving tier.
//
// Before this header every backend had its own options struct and every
// embedder (examples/fusion_service, benches, tests) special-cased each
// kind at the FusionClusterOptions::backend_factory call site — four
// lambdas, each naming one backend's options type and copying the shared
// knobs by hand. A BackendConfig names the kind plus the union of the
// knobs once; make_backend_factory() validates the shape (endpoint counts
// per kind) and returns the factory the cluster consumes. The per-backend
// option structs stay the programmatic API for embedders that want one
// specific backend; this is the configuration-driven path.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/health.hpp"
#include "net/retry.hpp"
#include "net/socket.hpp"
#include "sim/backend.hpp"

namespace ffsm {

struct BackendConfig {
  /// Where a shard's FusionServices live. kInProcess: this address space
  /// (the cluster's built-in default). kSubprocess: one ffsm_shard_worker
  /// child per shard over a stdio socketpair. kReplica: an ordered seed
  /// list of worker replicas per shard with lossless failover. kTcp: one
  /// remote worker, every shard on its own connection — a ReplicaBackend
  /// with a one-endpoint seed list; only the endpoint count differs.
  enum class Kind { kInProcess, kSubprocess, kTcp, kReplica };

  Kind kind = Kind::kInProcess;
  /// Worker endpoints. Shape is validated by make_backend_factory():
  /// kTcp takes exactly one, kReplica one or more (priority order),
  /// kInProcess and kSubprocess none.
  std::vector<net::Endpoint> endpoints;
  /// Worker binary for kSubprocess; empty = discovery rules
  /// (discover_worker_path). Ignored by the connecting kinds.
  std::string worker_path;
  /// Wire-safe service options shipped to workers at every handshake
  /// (and used verbatim by the in-process services).
  ShardServiceConfig service = {};
  /// Has no effect: the wire is binary-only. Kept, like WireMode, only
  /// because perfbench/src/serve.cpp still assigns it; delete both in the
  /// next change to the benchmark.
  WireMode wire = WireMode::kBinary;
  /// Connection knobs, meaningful for kTcp/kReplica (defaults match
  /// ReplicaBackendOptions, which documents their semantics).
  std::chrono::milliseconds connect_timeout{2000};
  net::RetryPolicy connect_retry = {};
  net::RetryPolicy serve_retry = {2, std::chrono::milliseconds(50),
                                  std::chrono::milliseconds(1000), 2};
  std::size_t serve_window = 32;
  int keepalive_idle_s = 30;
  int keepalive_interval_s = 10;
  int keepalive_probes = 3;
  /// Optional liveness oracle shared across shards; kTcp and kReplica.
  std::shared_ptr<net::HealthMonitor> monitor;
  /// Optional observability context handed to every backend the factory
  /// builds (nullptr = uninstrumented). Typically the cluster's own Obs
  /// (FusionCluster::obs()), so backend-side events — wire timing,
  /// respawns, failovers — land in the same timeline as the cluster's
  /// drain spans. Ignored by kInProcess (the cluster instruments its
  /// default backend directly).
  obs::Obs* obs = nullptr;
};

/// CLI name of a backend kind: "inprocess", "subprocess", "tcp",
/// "replica-tcp".
[[nodiscard]] const char* backend_kind_name(BackendConfig::Kind kind);

/// Strict inverse of backend_kind_name: false on any other spelling.
[[nodiscard]] bool parse_backend_kind(std::string_view name,
                                      BackendConfig::Kind& out);

/// Validates `config` and returns the factory for
/// FusionClusterOptions::backend_factory. kInProcess yields an empty
/// function (the cluster builds its default backend). Throws
/// ContractViolation on a shape violation: endpoints where none belong,
/// a kTcp endpoint count other than one, an empty kReplica seed list, or
/// a zero port anywhere.
[[nodiscard]] std::function<std::unique_ptr<ShardBackend>(std::size_t)>
make_backend_factory(BackendConfig config);

}  // namespace ffsm
