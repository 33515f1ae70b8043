#include "sim/backend.hpp"

#include <utility>

#include "fsm/serialize.hpp"
#include "util/contracts.hpp"

namespace ffsm {

// ---------------------------------------------------- QueuedWireBackend

QueuedWireBackend::TopState& QueuedWireBackend::top_of(
    const std::string& key) {
  const auto it = tops_.find(key);
  FFSM_EXPECTS(it != tops_.end());
  return it->second;
}

const QueuedWireBackend::TopState& QueuedWireBackend::top_of(
    const std::string& key) const {
  const auto it = tops_.find(key);
  FFSM_EXPECTS(it != tops_.end());
  return it->second;
}

std::string QueuedWireBackend::describe_reply(const Frame& reply) {
  if (reply.type == FrameType::kError) return reply.text;
  return std::string("unexpected '") + frame_type_name(reply.type) +
         "' reply";
}

void QueuedWireBackend::add_top(const std::string& key, const Dfsm& top) {
  const std::lock_guard<std::mutex> lock(mutex_);
  FFSM_EXPECTS(!tops_.contains(key));
  TopState state;
  state.machine_text = to_text(top);  // self-contained: alphabet header
  state.top_size = top.size();
  tops_.emplace(key, std::move(state));
  top_order_.push_back(key);
  // Roll our entry back on failure — the cluster rolls its own back too,
  // and a key the cluster denies must not linger here blocking
  // re-registration.
  try {
    register_added_top_locked(key);
  } catch (...) {
    tops_.erase(key);
    top_order_.pop_back();
    throw;
  }
}

void QueuedWireBackend::validate(const std::string& key,
                                 const FusionRequest& request) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const TopState& top = top_of(key);
  for (const Partition& p : request.originals)
    FFSM_EXPECTS(p.size() == top.top_size);
}

std::uint64_t QueuedWireBackend::submit(const std::string& key,
                                        std::string client,
                                        FusionRequest request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TopState& top = top_of(key);
  const std::uint64_t ticket = next_ticket_++;
  top.queue.push_back({ticket, std::move(client), std::move(request)});
  return ticket;
}

std::size_t QueuedWireBackend::pending(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return top_of(key).queue.size();
}

std::size_t QueuedWireBackend::discard_pending(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  TopState& top = top_of(key);
  const std::size_t count = top.queue.size();
  top.queue.clear();
  return count;
}

// ----------------------------------------------------- InProcessBackend

InProcessBackend::InProcessBackend(FusionServiceOptions options)
    : options_(options) {}

FusionService& InProcessBackend::service_of(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = services_.find(key);
  FFSM_EXPECTS(it != services_.end());
  return *it->second;
}

void InProcessBackend::add_top(const std::string& key, const Dfsm& top) {
  // Each service tags its spans with its serving key, so one shared Obs
  // still tells the tops apart.
  FusionServiceOptions per_top = options_;
  per_top.obs_top = key;
  auto service = std::make_unique<FusionService>(top, per_top);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = services_.try_emplace(key, std::move(service));
  FFSM_EXPECTS(inserted);
}

void InProcessBackend::validate(const std::string& key,
                                const FusionRequest& request) const {
  service_of(key).validate(request);
}

std::uint64_t InProcessBackend::submit(const std::string& key,
                                       std::string client,
                                       FusionRequest request) {
  return service_of(key).submit(std::move(client), std::move(request));
}

std::size_t InProcessBackend::pending(const std::string& key) const {
  return service_of(key).pending();
}

std::size_t InProcessBackend::discard_pending(const std::string& key) {
  return service_of(key).discard_pending();
}

std::vector<FusionResponse> InProcessBackend::drain(const std::string& key) {
  return service_of(key).drain();
}

ServiceStats InProcessBackend::stats(const std::string& key) const {
  return service_of(key).stats();
}

const FusionService& InProcessBackend::service(const std::string& key) const {
  return service_of(key);
}

}  // namespace ffsm
