// Sanitizer stress for the serving layer's concurrency seams (run under
// the tsan preset via the `san` label): many producer threads fan chunks
// into the sharded SessionManager while concurrent pumps and attach/detach
// churn run against the same shards, plus the multi-reader
// ConcurrentStreamSink fan-in feeding a served session.
//
// Assertions are deliberately about *accounting identities* and per-session
// determinism — under tsan the real check is that no data race is reported.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "reader/sample_stream.hpp"
#include "service/session_manager.hpp"
#include "sim/letters.hpp"
#include "sim/scenario.hpp"

namespace rfipad::service {
namespace {

struct Rig {
  sim::Scenario scenario;
  core::StaticProfile profile;
  core::OnlineOptions online;

  explicit Rig(std::uint64_t seed = 83)
      : scenario([&] {
          sim::ScenarioConfig cfg;
          cfg.seed = seed;
          return cfg;
        }()),
        profile(core::StaticProfile::calibrate(scenario.captureStatic(5.0),
                                               25)) {
    online.engine.rows = 5;
    online.engine.cols = 5;
    for (const auto& t : scenario.array().tags())
      online.engine.tag_xy.push_back({t.position.x, t.position.y});
  }

  sim::Capture writeLetter(char letter) {
    const double hw = 0.75 * scenario.padHalfExtent();
    const double hh = 0.95 * scenario.padHalfExtent();
    sim::TrajectoryBuilder b(sim::defaultUser(1), scenario.forkRng(7));
    b.hold(0.4);
    for (const auto& p : sim::letterPlans(letter, hw, hh)) b.stroke(p);
    b.retract().hold(2.4);
    return scenario.capture(b.build(), sim::defaultUser(1));
  }

  SessionConfig config() const {
    SessionConfig cfg;
    cfg.profile = profile;
    cfg.online = online;
    return cfg;
  }
};

std::vector<std::vector<reader::TagReport>> chunked(
    const reader::SampleStream& stream, double tick_s = 0.25) {
  const double t0 = stream.startTime();
  const double dur = stream.endTime() - t0;
  const std::size_t n = static_cast<std::size_t>(dur / tick_s) + 1;
  std::vector<std::vector<reader::TagReport>> chunks(n);
  for (const reader::TagReport& r : stream.reports()) {
    reader::TagReport shifted = r;
    shifted.time_s = r.time_s - t0;
    const std::size_t c = std::min(
        n - 1, static_cast<std::size_t>(shifted.time_s / tick_s));
    chunks[c].push_back(shifted);
  }
  return chunks;
}

std::string lettersOf(const std::vector<LetterEvent>& events) {
  std::string out;
  for (const auto& ev : events) out.push_back(ev.letter);
  return out;
}

/// What a plain OnlineRecognizer makes of the same chunk sequence — the
/// serving path must reproduce it exactly, concurrency notwithstanding.
std::string directLetters(
    const Rig& rig, const std::vector<std::vector<reader::TagReport>>& chunks) {
  core::OnlineRecognizer rec(rig.profile, rig.online);
  std::string letters;
  rec.onLetter([&](char c, const std::vector<core::StrokeEvent>&) {
    letters.push_back(c);
  });
  core::SegmentScratch scratch;
  for (const auto& chunk : chunks)
    for (const auto& r : chunk)
      if (rec.offer(r)) rec.processDue(scratch);
  rec.flushWith(scratch);
  return letters;
}

TEST(ServiceStress, ProducersPumpsAndChurnInterleave) {
  constexpr int kProducers = 8;
  constexpr int kPumpers = 2;
  constexpr int kChurners = 2;
  constexpr int kChurnRounds = 20;

  Rig rig;
  const auto chunks = chunked(rig.writeLetter('C').stream);

  SessionManager manager({/*num_shards=*/4, /*queue_capacity=*/4096,
                          OverflowPolicy::kDropOldest, /*threads=*/2});
  std::vector<SessionId> ids;
  for (int p = 0; p < kProducers; ++p) ids.push_back(manager.attach(rig.config()));

  std::atomic<bool> done{false};
  std::vector<std::thread> threads;

  // Producers: each owns one stable session and streams the letter into it
  // (single producer per session → per-session FIFO is preserved no matter
  // how pumps interleave).
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      const SessionId id = ids[static_cast<std::size_t>(p)];
      for (const auto& chunk : chunks) {
        EXPECT_TRUE(manager.ingest(id, chunk));
        if (p % 2 == 0) manager.pumpShard(manager.shardOf(id));
      }
    });
  }
  // Pumpers: sweep every shard until the producers are done.
  for (int q = 0; q < kPumpers; ++q) {
    threads.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        manager.pump();
        std::this_thread::yield();
      }
    });
  }
  // Churners: transient sessions attach, ingest, pump, detach — hammering
  // the shard state maps concurrently with the stable traffic.
  for (int c = 0; c < kChurners; ++c) {
    threads.emplace_back([&, c] {
      for (int round = 0; round < kChurnRounds; ++round) {
        const SessionId id = manager.attach(rig.config());
        EXPECT_NE(id, kNoSession);
        EXPECT_TRUE(manager.ingest(
            id,
            chunks[static_cast<std::size_t>(c + round) % chunks.size()]));
        manager.pump();
        ServiceStats stats;
        EXPECT_TRUE(manager.stats(id, stats));
        manager.detach(id);
      }
    });
  }

  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  done.store(true, std::memory_order_release);
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();
  manager.pump();

  // Accounting identity: every admitted chunk was either processed, evicted
  // (counted), or arrived for a session already detached (counted).
  ServiceStats stats;
  ASSERT_TRUE(manager.stats(kNoSession, stats));
  EXPECT_EQ(stats.queue.enqueued,
            stats.queue.chunks_processed + stats.queue.dropped_oldest +
                stats.queue.rejected_unknown_session);
  EXPECT_EQ(stats.queue.rejected_full, 0u);
  // Capacity 4096 never filled → stable sessions lost nothing, so each
  // recognises exactly its letter despite the concurrent churn.
  EXPECT_EQ(stats.queue.dropped_oldest, 0u);
  const std::string expected = directLetters(rig, chunks);
  for (SessionId id : ids) {
    const std::string letters = lettersOf(manager.detach(id));
    EXPECT_EQ(letters, expected) << "session " << id;
  }
  EXPECT_EQ(manager.sessionCount(), 0u);
}

TEST(ServiceStress, ConcurrentSinkFanInFeedsAServedSession) {
  constexpr int kProducers = 8;

  Rig rig;
  const sim::Capture cap = rig.writeLetter('C');
  const auto reports = cap.stream.reports();

  // Multi-reader fan-in: 8 pump threads push interleaved slices of the
  // capture into one sink; the merged stream must come out time-sorted.
  reader::ConcurrentStreamSink sink(cap.stream.numTags());
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = static_cast<std::size_t>(p); i < reports.size();
           i += kProducers)
        sink.push(reports[i]);
    });
  }
  for (auto& t : producers) t.join();

  const reader::SampleStream merged = sink.take();
  ASSERT_EQ(merged.size(), reports.size());
  double prev = merged.startTime();
  for (const reader::TagReport& r : merged.reports()) {
    EXPECT_GE(r.time_s, prev);
    prev = r.time_s;
  }

  // The merged capture drives a served session end to end.
  SessionManager manager({/*num_shards=*/2});
  const SessionId id = manager.attach(rig.config());
  const auto merged_chunks = chunked(merged);
  const std::string expected = directLetters(rig, merged_chunks);
  EXPECT_FALSE(expected.empty());
  std::string letters;
  for (const auto& chunk : merged_chunks) {
    ASSERT_TRUE(manager.ingest(id, chunk));
    manager.pump();
    letters += lettersOf(manager.poll(id));
  }
  letters += lettersOf(manager.detach(id));
  EXPECT_EQ(letters, expected);
}

}  // namespace
}  // namespace rfipad::service
