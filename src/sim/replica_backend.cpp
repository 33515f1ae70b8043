#include "sim/replica_backend.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/obs.hpp"
#include "util/contracts.hpp"

namespace ffsm {

ReplicaBackend::ReplicaBackend(ReplicaBackendOptions options)
    : QueuedWireBackend({.name = "ReplicaBackend",
                         .config = options.config,
                         .serve_retry = options.serve_retry,
                         .serve_window = options.serve_window,
                         .obs = options.obs}),
      options_(std::move(options)) {
  FFSM_EXPECTS(!options_.endpoints.empty());
  for (const net::Endpoint& endpoint : options_.endpoints)
    FFSM_EXPECTS(endpoint.port != 0);
  if (options_.monitor)
    for (const net::Endpoint& endpoint : options_.endpoints)
      options_.monitor->watch(endpoint);
}

ReplicaBackend::~ReplicaBackend() { shutdown(); }

std::vector<std::size_t> ReplicaBackend::scan_order() const {
  std::vector<std::size_t> order(options_.endpoints.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (!options_.monitor) return order;
  // Verdicts reorder, never exclude: kUp first, then kUnknown, then kDown,
  // priority (seed-list) order within each — stable_sort keeps it. Ranks
  // are snapshot once before sorting: the prober publishes concurrently,
  // and a comparator whose answers shift mid-sort breaks stable_sort's
  // strict-weak-ordering precondition.
  std::vector<int> rank(order.size());
  for (std::size_t replica = 0; replica < order.size(); ++replica) {
    switch (options_.monitor->health(options_.endpoints[replica]).state) {
      case net::ProbeState::kUp:
        rank[replica] = 0;
        break;
      case net::ProbeState::kUnknown:
        rank[replica] = 1;
        break;
      case net::ProbeState::kDown:
        rank[replica] = 2;
        break;
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return rank[a] < rank[b];
                   });
  return order;
}

void ReplicaBackend::connect_endpoint_locked(std::size_t replica) {
  const net::Endpoint& endpoint = options_.endpoints[replica];
  net::Socket socket = net::Socket::connect(endpoint.host, endpoint.port,
                                            options_.connect_timeout);
  // Serve reads carry no deadline (generation legitimately takes long),
  // so keepalive is what bounds a half-open connection: a vanished
  // replica host turns into a read error after idle + interval * probes
  // seconds, and the failover path takes over from there.
  if (options_.keepalive_idle_s > 0)
    socket.enable_keepalive(options_.keepalive_idle_s,
                            options_.keepalive_interval_s,
                            options_.keepalive_probes);
  open_conversation_locked(net::LineChannel(std::move(socket)),
                           net::to_string(endpoint));
  ++connects_;
  // A reconnect that lands on a different replica is a failover (or a
  // fail-back — both move the serving endpoint); the first connection
  // ever is neither.
  if (connects_ > 1 && replica != current_) {
    ++failovers_;
    if (options_.obs != nullptr)
      options_.obs->instant("replica.failover",
                            {.shard = net::to_string(endpoint)});
  }
  current_ = replica;
}

void ReplicaBackend::connect_any() {
  std::string last_error = "empty replica set";
  for (const std::size_t replica : scan_order()) {
    try {
      // The lock is taken per endpoint, not across the scan: one lock
      // hold is bounded by a single connect_timeout, never by
      // seed-list-size timeouts — submit()/pending()/stats() squeeze in
      // between attempts against a dead replica set.
      const std::lock_guard<std::mutex> lock(mutex_);
      if (live_locked()) return;  // raced a concurrent connector
      drop_connection_locked();
      connect_endpoint_locked(replica);
      return;
    } catch (const net::NetError& error) {
      last_error = error.what();
      if (last_error.rfind("net: ", 0) == 0)
        last_error.erase(0, 5);  // the rethrow below re-adds the prefix
    }
  }
  throw net::NetError("no replica of " +
                      std::to_string(options_.endpoints.size()) +
                      " reachable; last: " + last_error);
}

void ReplicaBackend::maybe_fail_back_locked() {
  if (!options_.monitor || !conversation_ || current_ == 0) return;
  // Moving the connection is only lossless while nothing is in flight on
  // the wire; with exchanges active, fail-back waits for a later drain.
  if (conversation_->active_exchanges() != 0) return;
  for (std::size_t replica = 0; replica < current_; ++replica) {
    if (options_.monitor->health(options_.endpoints[replica]).state !=
        net::ProbeState::kUp)
      continue;
    // An earlier-priority replica probes healthy again: move back to it.
    drop_connection_locked();
    return;
  }
}

void ReplicaBackend::connect() {
  // with_retry sleeps between rounds with no lock held, and connect_any
  // locks per endpoint: a replica set that is restarting must not block
  // this shard's submit()/pending()/stats() for seconds of backoff or
  // for a whole-seed-list scan of connect timeouts.
  net::with_retry(options_.connect_retry, [&] {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (conversation_ && conversation_->poisoned())
        drop_connection_locked();
      maybe_fail_back_locked();
      if (conversation_) return;
    }
    connect_any();
  });
}

void ReplicaBackend::fill_parent_counters_locked(ServiceStats& stats) const {
  // Per-connection worker counters reset with every replacement (real
  // process semantics); what this backend survived lives parent-side.
  stats.restarts = connects_ > 0 ? connects_ - 1 : 0;
  stats.failovers = failovers_;
  stats.health_probes_failed = 0;
  if (options_.monitor)
    for (const net::Endpoint& endpoint : options_.endpoints)
      stats.health_probes_failed +=
          options_.monitor->health(endpoint).probes_failed;
}

std::uint64_t ReplicaBackend::connects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return connects_;
}

std::uint64_t ReplicaBackend::failovers() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failovers_;
}

std::size_t ReplicaBackend::current_replica() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

}  // namespace ffsm
