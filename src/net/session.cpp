#include "src/net/session.hpp"

#include <utility>

#include "src/testing/fault.hpp"

namespace vapro::net {

// --- TenantSession ---------------------------------------------------------

TenantSession::TenantSession(TenantOptions opts, IngestPlane* plane)
    : opts_(std::move(opts)),
      plane_(plane),
      queue_(opts_.queue_capacity, plane->clock()) {
  if (opts_.group_servers > 1) {
    backend_group_ = std::make_unique<core::ServerGroup>(
        opts_.ranks, opts_.group_servers, opts_.server);
  } else {
    backend_server_ =
        std::make_unique<core::AnalysisServer>(opts_.ranks, opts_.server);
  }
  if (opts_.threaded) consumer_ = std::thread([this] { consumer_loop(); });
}

TenantSession::~TenantSession() {
  queue_.close();
  if (consumer_.joinable()) consumer_.join();
}

AckStatus TenantSession::submit(std::uint64_t seq, core::FragmentBatch batch,
                                double drain_seconds) {
  std::lock_guard<std::mutex> lock(seq_mu_);
  ++stats_.submitted;
  if (seq < next_expected_ || pending_.count(seq)) {
    ++stats_.duplicates;
    if (plane_->opts_.obs)
      plane_->opts_.obs->metrics().counter("vapro.net.batches_deduped")->inc();
    return AckStatus::kDuplicate;
  }
  if (seq >= next_expected_ + opts_.reorder_window) {
    ++stats_.rejected;
    journal_net_drop(seq, batch.fragments.size(), "reorder_window_exceeded");
    return AckStatus::kRejected;
  }
  if (seq != next_expected_) ++stats_.reordered;
  Queued q;
  q.seq = seq;
  q.drain_seconds = drain_seconds;
  q.batch = std::move(batch);
  pending_.emplace(seq, std::move(q));
  return apply_ready_locked(seq);
}

AckStatus TenantSession::apply_ready_locked(std::uint64_t submitted_seq) {
  AckStatus result = AckStatus::kAdmitted;
  while (!pending_.empty() && pending_.begin()->first == next_expected_) {
    auto it = pending_.begin();
    Queued q = std::move(it->second);
    pending_.erase(it);
    ++next_expected_;
    const bool is_submitted = q.seq == submitted_seq;
    const AckStatus outcome = enqueue_locked(std::move(q));
    if (is_submitted) result = outcome;
  }
  return result;
}

AckStatus TenantSession::enqueue_locked(Queued q) {
  // net.slow_peer: the deterministic overload stand-in.  Shedding the
  // INCOMING batch (not a queue victim) keeps the shed set a pure function
  // of the fault plan — a real queue victim's identity depends on consumer
  // scheduling, which the equivalence harness cannot allow.
  const std::uint64_t seq = q.seq;
  const std::size_t fragments = q.batch.fragments.size();
  const std::size_t new_states = q.batch.new_states.size();
  switch (VAPRO_FAULT("net.slow_peer")) {
    case testing::FaultAction::kNone:
      break;
    default:
      journal_shed(seq, fragments, new_states, "forced");
      return AckStatus::kShed;
  }
  if (opts_.admission == AdmissionPolicy::kBlock) {
    note_inflight(+1);
    if (!queue_.push(std::move(q))) {
      // Closed during teardown: nothing will consume it — account it.
      note_inflight(-1);
      journal_shed(seq, fragments, new_states, "closed");
      return AckStatus::kShed;
    }
  } else {
    while (!queue_.try_push(std::move(q))) {
      if (queue_.closed()) {
        journal_shed(seq, fragments, new_states, "closed");
        return AckStatus::kShed;
      }
      if (auto victim = queue_.try_pop()) {
        note_inflight(-1);
        journal_shed(victim->seq, victim->batch.fragments.size(),
                     victim->batch.new_states.size(), "oldest");
      }
    }
    note_inflight(+1);
  }
  ++stats_.admitted;
  if (plane_->opts_.obs)
    plane_->opts_.obs->metrics().counter("vapro.net.batches_admitted")->inc();
  return AckStatus::kAdmitted;
}

void TenantSession::journal_shed(std::uint64_t seq, std::size_t fragments,
                                 std::size_t new_states, const char* policy) {
  ++stats_.shed;
  set_degraded(true);
  if (plane_->opts_.obs)
    plane_->opts_.obs->metrics().counter("vapro.net.batches_shed")->inc();
  if (obs::Journal* j = opts_.server.obs ? opts_.server.obs->journal()
                                         : nullptr) {
    // "batch_seq", not "seq": the journal writes its own monotonic "seq"
    // key into every line, and a duplicate key would desync readers.
    j->emit("shed", /*window=*/static_cast<std::int64_t>(seq),
            plane_->clock()->now_seconds(),
            {obs::JournalField::str("tenant", opts_.name),
             obs::JournalField::num("batch_seq", seq),
             obs::JournalField::num("fragments",
                                    static_cast<std::uint64_t>(fragments)),
             obs::JournalField::num("new_states",
                                    static_cast<std::uint64_t>(new_states)),
             obs::JournalField::str("policy", policy)});
  }
}

void TenantSession::journal_net_drop(std::uint64_t seq, std::size_t fragments,
                                     const char* reason) {
  if (plane_->opts_.obs)
    plane_->opts_.obs->metrics().counter("vapro.net.batches_rejected")->inc();
  if (obs::Journal* j = opts_.server.obs ? opts_.server.obs->journal()
                                         : nullptr) {
    j->emit("net_drop", /*window=*/static_cast<std::int64_t>(seq),
            plane_->clock()->now_seconds(),
            {obs::JournalField::str("tenant", opts_.name),
             obs::JournalField::num("batch_seq", seq),
             obs::JournalField::num("fragments",
                                    static_cast<std::uint64_t>(fragments)),
             obs::JournalField::str("reason", reason)});
  }
}

void TenantSession::process(Queued q) {
  if (backend_group_) {
    backend_group_->process_window(std::move(q.batch));
    backend_group_->sync();
  } else {
    backend_server_->process_window(std::move(q.batch), q.drain_seconds);
    backend_server_->sync();
  }
  // Publish the cleared flag before releasing the in-flight count: the
  // release wakes sync(), and a caller that returns from sync() must not
  // see a degraded tenant whose queue has already drained.
  if (queue_.depth() == 0) set_degraded(false);
  note_inflight(-1);
}

void TenantSession::consumer_loop() {
  while (auto q = queue_.pop()) process(std::move(*q));
}

void TenantSession::pump_all() {
  while (auto q = queue_.try_pop()) process(std::move(*q));
}

void TenantSession::sync() {
  if (!opts_.threaded) {
    pump_all();
  } else {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
  }
  if (backend_group_) backend_group_->sync();
  if (backend_server_) backend_server_->sync();
}

void TenantSession::note_inflight(int delta) {
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_ = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(inflight_) + delta);
    if (inflight_ == 0) inflight_cv_.notify_all();
  }
  plane_->note_inflight(delta);
}

void TenantSession::set_degraded(bool on) {
  if (degraded_.exchange(on, std::memory_order_relaxed) != on)
    plane_->note_degraded(on ? +1 : -1);
}

TenantStats TenantSession::stats() const {
  std::lock_guard<std::mutex> lock(seq_mu_);
  return stats_;
}

std::size_t TenantSession::windows_processed() const {
  return backend_group_ ? backend_group_->windows_processed()
                        : backend_server_->windows_processed();
}

std::size_t TenantSession::fragments_processed() const {
  return backend_group_ ? backend_group_->fragments_processed()
                        : backend_server_->fragments_processed();
}

void TenantSession::journal_detection_snapshot() const {
  if (backend_group_) {
    backend_group_->journal_detection_snapshot();
  } else {
    backend_server_->journal_detection_snapshot();
  }
}

// --- IngestPlane -----------------------------------------------------------

IngestPlane::IngestPlane(PlaneOptions opts)
    : opts_(opts), clock_(opts.clock ? opts.clock : util::real_clock()) {
  publish_static_gauges();
}

IngestPlane::~IngestPlane() = default;

TenantSession* IngestPlane::add_tenant(TenantOptions opts) {
  tenants_.push_back(std::make_unique<TenantSession>(std::move(opts), this));
  publish_static_gauges();
  return tenants_.back().get();
}

TenantSession* IngestPlane::find(const std::string& name) {
  for (auto& t : tenants_)
    if (t->name() == name) return t.get();
  return nullptr;
}

std::vector<std::string> IngestPlane::tenant_names() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& t : tenants_) names.push_back(t->name());
  return names;
}

void IngestPlane::sync_all() {
  for (auto& t : tenants_) t->sync();
}

std::uint64_t IngestPlane::shed_total() const {
  std::uint64_t total = 0;
  for (const auto& t : tenants_) total += t->stats().shed;
  return total;
}

void IngestPlane::note_degraded(int delta) {
  const int now = degraded_tenants_.fetch_add(delta) + delta;
  if (opts_.obs)
    opts_.obs->metrics().gauge("vapro.net.degraded")->set(now > 0 ? 1.0 : 0.0);
}

void IngestPlane::note_inflight(int delta) {
  const std::int64_t now = inflight_.fetch_add(delta) + delta;
  if (opts_.obs)
    opts_.obs->metrics()
        .gauge("vapro.net.queue_depth")
        ->set(static_cast<double>(now));
}

void IngestPlane::publish_static_gauges() {
  if (!opts_.obs) return;
  obs::MetricsRegistry& m = opts_.obs->metrics();
  m.gauge("vapro.net.tenants")->set(static_cast<double>(tenants_.size()));
  double capacity = 0.0;
  for (const auto& t : tenants_)
    capacity += static_cast<double>(t->queue_capacity());
  m.gauge("vapro.net.queue_capacity")->set(capacity);
  m.gauge("vapro.net.degraded")->set(degraded_tenants_.load() > 0 ? 1.0 : 0.0);
  m.gauge("vapro.net.queue_depth")
      ->set(static_cast<double>(inflight_.load()));
}

}  // namespace vapro::net
