#include "service/shard.hpp"

#include <utility>

namespace rfipad::service {

namespace {

void accumulate(core::OnlineStats& into, const core::OnlineStats& from) {
  into.accepted += from.accepted;
  into.dropped_invalid += from.dropped_invalid;
  into.dropped_late += from.dropped_late;
  into.dropped_unknown_tag += from.dropped_unknown_tag;
  into.duplicates += from.duplicates;
  into.reordered += from.reordered;
  into.dropped_future += from.dropped_future;
}

}  // namespace

Shard::Shard(ShardOptions options)
    : options_(options), ring_(options.queue_capacity) {}

RFIPAD_HOT_PATH
bool Shard::enqueue(SessionId session, std::vector<reader::TagReport> chunk) {
  IngestItem item{session, std::move(chunk)};
  for (;;) {
    if (ring_.tryEnqueue(item)) return true;
    if (options_.policy == OverflowPolicy::kRejectNew) {
      rejected_full_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // kDropOldest: the producer evicts the ring head itself (the ring is
    // MPMC-capable) and retries.  The loop terminates: each iteration
    // either frees a slot or another producer/the pump did.
    IngestItem evicted;
    if (ring_.tryDequeue(evicted))
      dropped_oldest_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool Shard::pump() {
  MutexLock state(state_mutex_);
  drain_.clear();
  // Drain at most one ring's worth per pass so a firehose producer cannot
  // capture the consumer forever (bounded pass, fair across shards).
  const std::size_t budget = ring_.capacity();
  IngestItem item;
  while (drain_.size() < budget && ring_.tryDequeue(item))
    drain_.push_back(std::move(item));
  if (drain_.empty()) return false;
  std::uint64_t chunks = 0;
  std::uint64_t reports = 0;
  std::uint64_t unknown = 0;
  for (IngestItem& it : drain_) {
    const auto found = sessions_.find(it.session);
    if (found == sessions_.end()) {
      ++unknown;
      continue;
    }
    reports += found->second->feed(it.reports, scratch_);
    ++chunks;
  }
  drain_.clear();
  chunks_processed_ += chunks;
  reports_processed_ += reports;
  unknown_session_ += unknown;
  // Release: a producer polling processedChunks() must also observe the
  // session state (letters) these chunks produced.
  accounted_chunks_.fetch_add(chunks + unknown, std::memory_order_release);
  return true;
}

void Shard::attach(SessionId id, SessionConfig config) {
  MutexLock state(state_mutex_);
  sessions_.emplace(id, std::make_unique<Session>(id, std::move(config)));
  ++attached_total_;
}

std::vector<LetterEvent> Shard::detach(SessionId id, bool* found,
                                       ServiceStats* final_stats) {
  MutexLock state(state_mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    if (found) *found = false;
    return {};
  }
  if (found) *found = true;
  Session& s = *it->second;
  s.finish(scratch_);
  if (final_stats) {
    final_stats->online = s.onlineStats();
    final_stats->letters_emitted = s.lettersEmitted();
    final_stats->events_evicted = s.eventsEvicted();
  }
  accumulate(retired_online_, s.onlineStats());
  retired_letters_ += s.lettersEmitted();
  retired_evicted_ += s.eventsEvicted();
  std::vector<LetterEvent> events = s.takeEvents();
  sessions_.erase(it);
  return events;
}

bool Shard::configure(SessionId id, fault::FaultPlan plan,
                      std::uint64_t salt) {
  MutexLock state(state_mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  it->second->setFault(std::move(plan), salt);
  return true;
}

bool Shard::subscribe(SessionId id, bool enabled) {
  MutexLock state(state_mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return false;
  it->second->setCollectEvents(enabled);
  return true;
}

std::vector<LetterEvent> Shard::poll(SessionId id) {
  MutexLock state(state_mutex_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) return {};
  return it->second->takeEvents();
}

void Shard::flushAll() {
  MutexLock state(state_mutex_);
  for (auto& [id, session] : sessions_) session->finish(scratch_);
}

std::size_t Shard::sessionCount() const {
  MutexLock state(state_mutex_);
  return sessions_.size();
}

bool Shard::stats(SessionId session, ServiceStats& out) const {
  MutexLock state(state_mutex_);
  // Snapshot order matters: consumer tallies first (under the same mutex
  // the pump bumps them under), then the producer atomics and ring
  // counters — every counter read later is at least as new, so the
  // snapshot always satisfies processed + unknown <= dequeued <= enqueued.
  core::IngestQueueStats q;
  q.chunks_processed = chunks_processed_;
  q.reports_processed = reports_processed_;
  q.rejected_unknown_session = unknown_session_;
  q.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  q.dropped_oldest = dropped_oldest_.load(std::memory_order_relaxed);
  const MpscRingCounters rc = ring_.counters();
  q.enqueued = rc.enqueued;
  q.high_watermark = rc.high_watermark;
  out.queue += q;
  if (session != kNoSession) {
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) return false;
    accumulate(out.online, it->second->onlineStats());
    out.letters_emitted += it->second->lettersEmitted();
    out.events_evicted += it->second->eventsEvicted();
    out.sessions_active += 1;
    return true;
  }
  out.sessions_active += sessions_.size();
  out.sessions_attached += attached_total_;
  accumulate(out.online, retired_online_);
  out.letters_emitted += retired_letters_;
  out.events_evicted += retired_evicted_;
  for (const auto& [id, s] : sessions_) {
    accumulate(out.online, s->onlineStats());
    out.letters_emitted += s->lettersEmitted();
    out.events_evicted += s->eventsEvicted();
  }
  return true;
}

}  // namespace rfipad::service
