#include "serving/fleet.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "serving/model_bundle.hpp"
#include "serving/serving_stats.hpp"

namespace alba {

namespace {

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

}  // namespace

std::string_view to_string(RoutingPolicy policy) noexcept {
  switch (policy) {
    case RoutingPolicy::ConsistentHash: return "consistent-hash";
    case RoutingPolicy::RoundRobin: return "round-robin";
  }
  return "unknown";
}

std::string_view to_string(FleetStatus status) noexcept {
  switch (status) {
    case FleetStatus::Ok: return "ok";
    case FleetStatus::Failed: return "failed";
    case FleetStatus::AllShed: return "all-shed";
  }
  return "unknown";
}

std::string_view to_string(RolloutState state) noexcept {
  switch (state) {
    case RolloutState::Idle: return "idle";
    case RolloutState::Canarying: return "canarying";
    case RolloutState::Promoted: return "promoted";
    case RolloutState::RolledBack: return "rolled-back";
    case RolloutState::CanaryRejected: return "canary-rejected";
  }
  return "unknown";
}

std::string format_fleet_summary(const FleetStats& s) {
  std::size_t in_ring = 0;
  std::uint64_t probes_sum = 0;
  for (const ReplicaStats& r : s.replicas) {
    in_ring += r.in_ring ? 1 : 0;
    probes_sum += r.probes;
  }
  return strformat(
      "%llu requests: %llu served (%llu spilled, %llu failovers), "
      "%llu failed, %llu all-shed; p50 %.2fms, p99 %.2fms; "
      "ring %zu/%zu, %llu ejections, %llu readmissions, %llu probes",
      static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.served),
      static_cast<unsigned long long>(s.spilled),
      static_cast<unsigned long long>(s.failovers),
      static_cast<unsigned long long>(s.failed),
      static_cast<unsigned long long>(s.all_shed), s.p50_ms, s.p99_ms,
      in_ring, s.replicas.size(),
      static_cast<unsigned long long>(s.ejections),
      static_cast<unsigned long long>(s.readmissions),
      static_cast<unsigned long long>(probes_sum));
}

std::string RolloutReport::summary() const {
  std::string out = "rollout " + std::string(to_string(state));
  if (!reason.empty()) out += " (" + reason + ")";
  out += strformat(
      ": canary %zu/%zu samples, err %.3f vs %.3f baseline, "
      "p99 %.2fms vs %.2fms, %zu promotion(s)",
      canary_samples, baseline_samples, canary_error_rate,
      baseline_error_rate, canary_p99_ms, baseline_p99_ms,
      promotions.size());
  return out;
}

ServingFleet::ServingFleet(
    std::vector<std::shared_ptr<DiagnosisService>> services,
    FleetConfig config)
    : config_(config) {
  ALBA_CHECK(!services.empty()) << "ServingFleet needs at least one replica";
  ALBA_CHECK(config_.vnodes > 0) << "ServingFleet needs at least one vnode";
  ALBA_CHECK(config_.health_window > 0 && config_.health_min_samples > 0)
      << "fleet health window sizes must be positive";
  ALBA_CHECK(config_.eject_error_rate >= 0.0 &&
             config_.eject_error_rate <= 1.0)
      << "eject_error_rate must be in [0, 1]";
  hosts_.reserve(services.size());
  outstanding_.reserve(services.size());
  replicas_.resize(services.size());
  for (auto& service : services) {
    hosts_.push_back(
        std::make_unique<ServiceHost>(std::move(service), config_.host));
    outstanding_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  rebuild_ring_locked();  // construction: no concurrent access yet
}

ServingFleet::~ServingFleet() {
  // Host destructors drain; nothing fleet-level left to tear down.
}

void ServingFleet::rebuild_ring_locked() {
  ring_.clear();
  for (std::size_t id = 0; id < replicas_.size(); ++id) {
    if (!replicas_[id].in_ring) continue;
    // One deterministic point stream per replica: the ring depends only on
    // (seed, replica id, vnode index), never on join order or traffic.
    SplitMix64 sm(config_.seed ^ (static_cast<std::uint64_t>(id) + 1) *
                                     kGolden);
    for (std::size_t v = 0; v < config_.vnodes; ++v) {
      ring_.emplace_back(sm.next(), id);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ServingFleet::ring_lookup_locked(std::uint64_t hash) const {
  // First ring point clockwise from the hash; wrap to the smallest point.
  const auto it = std::upper_bound(
      ring_.begin(), ring_.end(), hash,
      [](std::uint64_t h, const std::pair<std::uint64_t, std::size_t>& p) {
        return h < p.first;
      });
  return it == ring_.end() ? ring_.front().second : it->second;
}

std::vector<std::size_t> ServingFleet::candidates_locked(
    std::uint64_t hash, std::size_t& preferred, bool& probing) {
  std::vector<std::size_t> active;
  std::vector<std::size_t> ejected;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i].dead) continue;
    (replicas_[i].in_ring ? active : ejected).push_back(i);
  }

  std::vector<std::size_t> order;
  probing = false;
  // Probe-driven readmission: while anything is ejected, a deterministic
  // 1-in-N trickle detours a request to an ejected replica first (a
  // successful answer readmits it; a failed one spills onward like any
  // other shed).
  if (!ejected.empty() && config_.readmit_probe_every > 0 &&
      ++probe_counter_ % config_.readmit_probe_every == 0) {
    const std::size_t p = ejected[probe_rotor_++ % ejected.size()];
    order.push_back(p);
    probing = true;
    ++readmit_probes_;
    ++replicas_[p].probes;
  }

  preferred = replicas_.size();  // sentinel: no in-ring preference
  if (!active.empty()) {
    if (config_.routing == RoutingPolicy::ConsistentHash && !ring_.empty()) {
      preferred = ring_lookup_locked(hash);
    } else {
      preferred =
          active[static_cast<std::size_t>(round_robin_++) % active.size()];
    }
    ++replicas_[preferred].preferred;
    if (order.empty() || order.front() != preferred) {
      order.push_back(preferred);
    }
    // Spill targets: the remaining in-ring replicas, least-loaded first
    // (fleet-side in-flight count; ties break on id for determinism).
    std::vector<std::size_t> rest;
    for (const std::size_t r : active) {
      if (r != preferred) rest.push_back(r);
    }
    std::sort(rest.begin(), rest.end(),
              [this](std::size_t a, std::size_t b) {
                const std::uint64_t la = outstanding_[a]->load();
                const std::uint64_t lb = outstanding_[b]->load();
                return la != lb ? la < lb : a < b;
              });
    order.insert(order.end(), rest.begin(), rest.end());
  }
  if (preferred == replicas_.size() && !order.empty()) {
    preferred = order.front();
  }
  if (config_.max_attempts > 0 && order.size() > config_.max_attempts) {
    order.resize(config_.max_attempts);
  }
  return order;
}

void ServingFleet::eject_locked(std::size_t replica) {
  Replica& r = replicas_[replica];
  if (!r.in_ring) return;
  r.in_ring = false;
  ++r.ejections;
  rebuild_ring_locked();
}

void ServingFleet::readmit_locked(std::size_t replica) {
  Replica& r = replicas_[replica];
  if (r.in_ring || r.dead) return;
  r.in_ring = true;
  ++r.readmissions;
  // Fresh start: the window that got it ejected must not re-trip the
  // breaker on the first post-recovery completion.
  r.window.clear();
  r.window_next = 0;
  rebuild_ring_locked();
}

double ServingFleet::replica_percentile_locked(std::size_t replica,
                                               double q) const {
  std::vector<double> samples;
  samples.reserve(replicas_[replica].window.size());
  for (const Outcome& o : replicas_[replica].window) {
    samples.push_back(o.total_ms);
  }
  return latency_percentile(samples, q);
}

void ServingFleet::record_outcome_locked(std::size_t replica,
                                         const HostResult& r) {
  Replica& rep = replicas_[replica];
  const bool pipeline_outcome = r.status == RequestStatus::Ok ||
                                r.status == RequestStatus::Failed;
  if (r.status == RequestStatus::Ok) {
    ++rep.served;
  } else if (r.status == RequestStatus::Failed) {
    ++rep.failed;
  } else {
    ++rep.shed;
  }

  if (pipeline_outcome) {
    Outcome o;
    o.failed = r.status == RequestStatus::Failed;
    o.total_ms = r.total_ms;
    if (rep.window.size() < config_.health_window) {
      rep.window.push_back(o);
    } else {
      rep.window[rep.window_next] = o;
    }
    rep.window_next = (rep.window_next + 1) % config_.health_window;

    // Rollout guard: live canary-vs-baseline outcomes under the candidate
    // bundle (deliberate shedding stays out — overload is not a bundle
    // property).
    if (rollout_state_ == RolloutState::Canarying) {
      Outcome g;
      g.failed = o.failed;
      g.total_ms = o.total_ms;
      (replica == rollout_config_.canary ? guard_canary_ : guard_baseline_)
          .push_back(g);
    }
  }

  if (!rep.in_ring && !rep.dead && r.status == RequestStatus::Ok) {
    // A readmission probe answered: the replica is back.
    readmit_locked(replica);
    return;
  }

  if (!rep.in_ring) return;
  // The host's own breaker/drain already decided this replica is not
  // serving; mirror that in the ring immediately.
  if (r.status == RequestStatus::RejectedUnhealthy ||
      r.status == RequestStatus::RejectedDraining) {
    eject_locked(replica);
    return;
  }
  // Fleet-observed breaker over the rolling window.
  if (rep.window.size() >= config_.health_min_samples) {
    std::size_t failures = 0;
    for (const Outcome& o : rep.window) failures += o.failed ? 1 : 0;
    const double rate = static_cast<double>(failures) /
                        static_cast<double>(rep.window.size());
    if (rate > config_.eject_error_rate) {
      eject_locked(replica);
      return;
    }
    if (config_.eject_p99_ms > 0.0 &&
        replica_percentile_locked(replica, 0.99) > config_.eject_p99_ms) {
      eject_locked(replica);
    }
  }
}

FleetResult ServingFleet::diagnose(const Matrix& window) {
  return diagnose(window,
                  config_.host.default_deadline_ms > 0.0
                      ? Deadline::after_ms(config_.host.default_deadline_ms)
                      : Deadline::never());
}

FleetResult ServingFleet::diagnose(const Matrix& window, Deadline deadline) {
  const std::uint64_t hash = hash_window(window);
  std::size_t preferred = 0;
  bool probing = false;
  std::vector<std::size_t> order;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++requests_;
    if (draining_) {
      ++all_shed_;
      FleetResult out;
      out.status = FleetStatus::AllShed;
      out.result.status = RequestStatus::RejectedDraining;
      return out;
    }
    order = candidates_locked(hash, preferred, probing);
  }

  FleetResult out;
  out.replica = preferred < hosts_.size() ? preferred : 0;
  out.result.status = RequestStatus::RejectedUnhealthy;  // nothing to try
  // Fleet counters move in the same critical section as the final
  // attempt's replica outcome, so a concurrent stats() never sees a
  // replica's served count ahead of the fleet's.
  const auto finish_locked = [&] {
    if (out.result.status == RequestStatus::Ok) {
      out.status = FleetStatus::Ok;
      out.spilled = out.replica != preferred;
      ++served_;
      if (out.spilled) ++spilled_;
    } else if (out.result.status == RequestStatus::Failed) {
      out.status = FleetStatus::Failed;
      ++failed_;
    } else {
      out.status = FleetStatus::AllShed;
      ++all_shed_;
    }
    if (out.attempts > 1) {
      failovers_ += static_cast<std::uint64_t>(out.attempts - 1);
    }
  };
  if (order.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    finish_locked();
    return out;
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t c = order[i];
    outstanding_[c]->fetch_add(1, std::memory_order_relaxed);
    const HostResult r = hosts_[c]->diagnose(window, deadline);
    outstanding_[c]->fetch_sub(1, std::memory_order_relaxed);
    out.result = r;
    out.replica = c;
    out.attempts = i + 1;
    // A deadline rejection is the caller's budget, not this replica's
    // fault — no other replica can answer in negative time.
    const bool last = r.status == RequestStatus::Ok ||
                      r.status == RequestStatus::RejectedDeadline ||
                      deadline.expired() || i + 1 == order.size();
    std::lock_guard<std::mutex> lock(mutex_);
    record_outcome_locked(c, r);
    if (c != preferred) ++replicas_[c].spill_in;
    if (last) {
      finish_locked();
      break;
    }
  }
  return out;
}

DiagnosisResult ServingFleet::diagnose(const DiagnoseRequest& request) {
  ALBA_CHECK(request.window != nullptr) << "DiagnoseRequest needs a window";
  const FleetResult f = request.deadline.is_never()
                            ? diagnose(*request.window)
                            : diagnose(*request.window, request.deadline);
  DiagnosisResult r;
  r.status = f.result.status;
  r.diagnosis = f.result.diagnosis;
  r.error = f.result.error;
  r.generation = f.result.generation;
  r.replica = f.replica;
  r.attempts = f.attempts > 0 ? f.attempts : 1;
  r.spilled = f.spilled;
  r.queue_ms = f.result.queue_ms;
  r.service_ms = f.result.service_ms;
  r.total_ms = f.result.total_ms;
  return r;
}

std::size_t ServingFleet::preferred_replica(const Matrix& window) const {
  const std::uint64_t hash = hash_window(window);
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.routing == RoutingPolicy::ConsistentHash && !ring_.empty()) {
    return ring_lookup_locked(hash);
  }
  // RoundRobin: the replica the *next* request would get (no counter
  // side effect from peeking).
  std::vector<std::size_t> active;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (replicas_[i].in_ring) active.push_back(i);
  }
  if (active.empty()) return 0;
  return active[static_cast<std::size_t>(round_robin_) % active.size()];
}

bool ServingFleet::in_ring(std::size_t replica) const {
  std::lock_guard<std::mutex> lock(mutex_);
  ALBA_CHECK(replica < replicas_.size())
      << "replica " << replica << " out of range";
  return replicas_[replica].in_ring;
}

void ServingFleet::set_probe_windows(std::vector<Matrix> probes) {
  for (auto& host : hosts_) host->set_probe_windows(probes);
}

ServiceHost& ServingFleet::host(std::size_t replica) {
  ALBA_CHECK(replica < hosts_.size())
      << "replica " << replica << " out of range";
  return *hosts_[replica];
}

void ServingFleet::kill(std::size_t replica) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ALBA_CHECK(replica < replicas_.size())
        << "replica " << replica << " out of range";
    Replica& r = replicas_[replica];
    r.dead = true;
    if (r.in_ring) {
      r.in_ring = false;
      ++r.ejections;
    }
    rebuild_ring_locked();
  }
  // Outside the fleet mutex: the drain blocks on in-flight work, and that
  // work's completion path takes the fleet mutex to record its outcome.
  hosts_[replica]->drain();
}

void ServingFleet::drain() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  for (auto& host : hosts_) host->drain();
}

FleetStats ServingFleet::stats() const {
  FleetStats s;
  std::vector<double> merged;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.requests = requests_;
    s.served = served_;
    s.spilled = spilled_;
    s.failovers = failovers_;
    s.failed = failed_;
    s.all_shed = all_shed_;
    s.readmit_probes = readmit_probes_;
    s.replicas.reserve(replicas_.size());
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      const Replica& rep = replicas_[i];
      ReplicaStats r;
      r.id = i;
      r.in_ring = rep.in_ring;
      r.dead = rep.dead;
      r.preferred = rep.preferred;
      r.served = rep.served;
      r.failed = rep.failed;
      r.shed = rep.shed;
      r.spill_in = rep.spill_in;
      r.probes = rep.probes;
      r.ejections = rep.ejections;
      r.readmissions = rep.readmissions;
      r.p50_ms = replica_percentile_locked(i, 0.50);
      r.p99_ms = replica_percentile_locked(i, 0.99);
      s.ejections += rep.ejections;
      s.readmissions += rep.readmissions;
      for (const Outcome& o : rep.window) merged.push_back(o.total_ms);
      s.replicas.push_back(std::move(r));
    }
  }
  // Exact merge of the actual samples across replicas (0/1-sample
  // replicas included), not an average of per-replica percentiles.
  s.p50_ms = latency_percentile(merged, 0.50);
  s.p99_ms = latency_percentile(merged, 0.99);
  // Host/service snapshots outside the fleet mutex (they take host locks).
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    s.replicas[i].host = hosts_[i]->stats();
    s.replicas[i].service = hosts_[i]->service()->stats();
    s.replicas[i].health = hosts_[i]->health();
  }
  return s;
}

// --- staged rollout --------------------------------------------------------

ReloadReport ServingFleet::start_rollout(const std::string& bundle_path,
                                         RolloutConfig config) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ALBA_CHECK(rollout_state_ != RolloutState::Canarying)
        << "a rollout is already in flight";
    ALBA_CHECK(config.canary < hosts_.size())
        << "canary replica " << config.canary << " out of range";
    ALBA_CHECK(!replicas_[config.canary].dead)
        << "canary replica " << config.canary << " is dead";
    ALBA_CHECK(config.guard_min_samples > 0)
        << "guard_min_samples must be positive";
    rollout_config_ = config;
    rollout_bundle_path_ = bundle_path;
    rollout_report_ = RolloutReport{};
    guard_canary_.clear();
    guard_baseline_.clear();
  }

  // Snapshot the canary's pre-push bundle for rollback, then push. Both
  // happen outside the fleet mutex: serving continues throughout.
  std::ostringstream snapshot(std::ios::binary);
  save_model_bundle(snapshot, hosts_[config.canary]->service()->bundle());
  const ReloadReport push =
      hosts_[config.canary]->reload_from_file(bundle_path);

  std::lock_guard<std::mutex> lock(mutex_);
  rollout_snapshot_ = snapshot.str();
  rollout_report_.canary_push = push;
  if (push.ok) {
    rollout_state_ = RolloutState::Canarying;
  } else {
    // The canary's own probe-validated reload rolled back internally; the
    // bundle never served a request and never reaches another replica.
    rollout_state_ = RolloutState::CanaryRejected;
    rollout_report_.reason = "canary push rejected: " + push.error;
  }
  rollout_report_.state = rollout_state_;
  return push;
}

RolloutDecision ServingFleet::decide_rollout_locked(
    std::string& reason) const {
  const Replica& canary = replicas_[rollout_config_.canary];
  if (!canary.in_ring || canary.dead) {
    reason = "canary ejected during the guard window";
    return RolloutDecision::RolledBack;
  }
  if (guard_canary_.size() < rollout_config_.guard_min_samples) {
    return RolloutDecision::NeedMoreTraffic;
  }
  const auto error_rate = [](const std::vector<Outcome>& window) {
    if (window.empty()) return 0.0;
    std::size_t failures = 0;
    for (const Outcome& o : window) failures += o.failed ? 1 : 0;
    return static_cast<double>(failures) /
           static_cast<double>(window.size());
  };
  const auto p99 = [](const std::vector<Outcome>& window) {
    std::vector<double> samples;
    samples.reserve(window.size());
    for (const Outcome& o : window) samples.push_back(o.total_ms);
    return latency_percentile(samples, 0.99);
  };
  const double canary_err = error_rate(guard_canary_);
  const double baseline_err = error_rate(guard_baseline_);
  if (canary_err > baseline_err + rollout_config_.max_error_rate_delta) {
    reason = strformat("canary error rate %.3f exceeds baseline %.3f + %.3f",
                       canary_err, baseline_err,
                       rollout_config_.max_error_rate_delta);
    return RolloutDecision::RolledBack;
  }
  if (rollout_config_.max_p99_ratio > 0.0 && !guard_baseline_.empty()) {
    const double canary_p99 = p99(guard_canary_);
    const double baseline_p99 = p99(guard_baseline_);
    if (baseline_p99 > 0.0 &&
        canary_p99 > rollout_config_.max_p99_ratio * baseline_p99) {
      reason = strformat("canary p99 %.2fms exceeds %.1fx baseline %.2fms",
                         canary_p99, rollout_config_.max_p99_ratio,
                         baseline_p99);
      return RolloutDecision::RolledBack;
    }
  }
  return RolloutDecision::Promoted;
}

RolloutDecision ServingFleet::advance_rollout() {
  std::string reason;
  RolloutDecision decision;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    switch (rollout_state_) {
      case RolloutState::Idle:
        return RolloutDecision::NeedMoreTraffic;  // nothing in flight
      case RolloutState::Promoted:
        return RolloutDecision::Promoted;
      case RolloutState::RolledBack:
      case RolloutState::CanaryRejected:
        return RolloutDecision::RolledBack;
      case RolloutState::Canarying:
        break;
    }
    decision = decide_rollout_locked(reason);
    if (decision == RolloutDecision::NeedMoreTraffic) return decision;

    // Record the guard measurements behind the decision and flip the
    // state *before* the reloads below, so a concurrent advance_rollout
    // sees a terminal state and never double-promotes.
    const auto error_rate = [](const std::vector<Outcome>& window) {
      if (window.empty()) return 0.0;
      std::size_t failures = 0;
      for (const Outcome& o : window) failures += o.failed ? 1 : 0;
      return static_cast<double>(failures) /
             static_cast<double>(window.size());
    };
    std::vector<double> canary_ms;
    std::vector<double> baseline_ms;
    for (const Outcome& o : guard_canary_) canary_ms.push_back(o.total_ms);
    for (const Outcome& o : guard_baseline_) {
      baseline_ms.push_back(o.total_ms);
    }
    rollout_report_.canary_samples = guard_canary_.size();
    rollout_report_.baseline_samples = guard_baseline_.size();
    rollout_report_.canary_error_rate = error_rate(guard_canary_);
    rollout_report_.baseline_error_rate = error_rate(guard_baseline_);
    rollout_report_.canary_p99_ms = latency_percentile(canary_ms, 0.99);
    rollout_report_.baseline_p99_ms = latency_percentile(baseline_ms, 0.99);
    rollout_report_.reason = reason;
    rollout_state_ = decision == RolloutDecision::Promoted
                         ? RolloutState::Promoted
                         : RolloutState::RolledBack;
    rollout_report_.state = rollout_state_;
  }
  finish_rollout(decision, reason);
  return decision;
}

void ServingFleet::finish_rollout(RolloutDecision decision,
                                  const std::string& reason) {
  (void)reason;
  if (decision == RolloutDecision::Promoted) {
    // The bundle survived probes and the live guard on the canary; push it
    // to every other replica through the same probe-validated reload.
    std::vector<ReloadReport> promotions;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      bool skip = false;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        skip = i == rollout_config_.canary || replicas_[i].dead;
      }
      if (skip) continue;
      promotions.push_back(hosts_[i]->reload_from_file(rollout_bundle_path_));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    rollout_report_.promotions = std::move(promotions);
    return;
  }
  // Roll the canary back to its pre-push bundle. The snapshot was taken
  // from a serving bundle, so this reload re-validates and swaps cleanly.
  std::string snapshot;
  std::size_t canary = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = rollout_snapshot_;
    canary = rollout_config_.canary;
  }
  ReloadReport restore;
  try {
    std::istringstream in(snapshot, std::ios::binary);
    restore = hosts_[canary]->reload(load_model_bundle(in));
  } catch (const std::exception& e) {
    restore.ok = false;
    restore.rolled_back = true;
    restore.error = e.what();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  rollout_report_.rollback = restore;
}

RolloutState ServingFleet::rollout_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rollout_state_;
}

RolloutReport ServingFleet::rollout_report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rollout_report_;
}

}  // namespace alba
