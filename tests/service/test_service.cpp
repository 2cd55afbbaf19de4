// Session serving layer: command API, backpressure policies, determinism
// across pump thread counts, fault-salt reproducibility.
#include "service/session_manager.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "sim/letters.hpp"
#include "sim/scenario.hpp"

namespace rfipad::service {
namespace {

struct Rig {
  sim::Scenario scenario;
  core::StaticProfile profile;
  core::OnlineOptions online;

  explicit Rig(std::uint64_t seed = 81)
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

  /// One letter capture with enough trailing quiet to close the letter.
  sim::Capture writeLetter(char letter) {
    const double hw = 0.12, hh = 0.114;
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

/// Cut a capture into fixed-span chunks of reports re-zeroed to t = 0.
std::vector<std::vector<reader::TagReport>> chunked(
    const sim::Capture& cap, double tick_s = 0.25) {
  const double t0 = cap.stream.startTime();
  const double dur = cap.stream.endTime() - t0;
  const std::size_t n = static_cast<std::size_t>(dur / tick_s) + 1;
  std::vector<std::vector<reader::TagReport>> chunks(n);
  for (const reader::TagReport& r : cap.stream.reports()) {
    reader::TagReport shifted = r;
    shifted.time_s = r.time_s - t0;
    const std::size_t c = std::min(
        n - 1, static_cast<std::size_t>(shifted.time_s / tick_s));
    chunks[c].push_back(shifted);
  }
  return chunks;
}

std::vector<reader::TagReport> chunkAt(double t) {
  reader::TagReport r;
  r.time_s = t;
  return {r};
}

std::string lettersOf(const std::vector<LetterEvent>& events) {
  std::string out;
  for (const auto& ev : events) out.push_back(ev.letter);
  return out;
}

/// Ground truth for the serving path: a plain OnlineRecognizer fed the very
/// same chunk sequence.  The service must add no distortion of its own
/// (classifier accuracy itself is test_online/test_classifier territory).
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

TEST(Service, AttachIngestPumpEmitsLetter) {
  Rig rig;
  SessionManager manager({/*num_shards=*/4});
  const SessionId id = manager.attach(rig.config());
  ASSERT_NE(id, kNoSession);
  EXPECT_EQ(manager.sessionCount(), 1u);

  const auto chunks = chunked(rig.writeLetter('C'));
  const std::string expected = directLetters(rig, chunks);
  ASSERT_EQ(expected.size(), 1u);  // one letter was written, one comes out
  std::string letters;
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(manager.ingest(id, chunk));
    manager.pump();
    letters += lettersOf(manager.poll(id));
  }
  bool found = false;
  letters += lettersOf(manager.detach(id, &found));
  EXPECT_TRUE(found);
  EXPECT_EQ(letters, expected);
  EXPECT_EQ(manager.sessionCount(), 0u);
}

TEST(Service, PerSessionLettersIdenticalAcrossPumpThreadCounts) {
  Rig rig;
  const auto cap_c = rig.writeLetter('C');
  const auto cap_l = rig.writeLetter('L');
  const std::vector<std::vector<std::vector<reader::TagReport>>> feeds = {
      chunked(cap_c), chunked(cap_l)};

  auto run = [&](int threads) {
    SessionManager manager({/*num_shards=*/4, /*queue_capacity=*/256,
                            OverflowPolicy::kRejectNew, threads});
    std::vector<SessionId> ids;
    for (int s = 0; s < 12; ++s) ids.push_back(manager.attach(rig.config()));
    std::vector<std::string> letters(ids.size());
    std::size_t rounds = 0;
    for (const auto& feed : feeds) rounds = std::max(rounds, feed.size());
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t s = 0; s < ids.size(); ++s) {
        const auto& feed = feeds[s % feeds.size()];
        if (r < feed.size()) {
          EXPECT_TRUE(manager.ingest(ids[s], feed[r]));
        }
      }
      manager.pump();
      for (std::size_t s = 0; s < ids.size(); ++s)
        letters[s] += lettersOf(manager.poll(ids[s]));
    }
    for (std::size_t s = 0; s < ids.size(); ++s)
      letters[s] += lettersOf(manager.detach(ids[s]));
    return letters;
  };

  const auto one = run(1);
  const auto eight = run(8);
  EXPECT_EQ(one, eight);
  const std::vector<std::string> expected = {directLetters(rig, feeds[0]),
                                             directLetters(rig, feeds[1])};
  ASSERT_EQ(expected[0].size(), 1u);
  ASSERT_EQ(expected[1].size(), 1u);
  for (std::size_t s = 0; s < one.size(); ++s) {
    EXPECT_EQ(one[s], expected[s % 2]) << "session " << s;
  }
}

TEST(Service, RejectNewPolicyRefusesWhenFull) {
  Rig rig;
  SessionManager manager({/*num_shards=*/1, /*queue_capacity=*/2,
                          OverflowPolicy::kRejectNew});
  const SessionId id = manager.attach(rig.config());
  const std::vector<reader::TagReport> chunk = chunkAt(0.1);

  EXPECT_TRUE(manager.ingest(id, chunk));
  EXPECT_TRUE(manager.ingest(id, chunk));
  EXPECT_FALSE(manager.ingest(id, chunk));  // full → rejected

  ServiceStats stats;
  ASSERT_TRUE(manager.stats(kNoSession, stats));
  EXPECT_EQ(stats.queue.enqueued, 2u);
  EXPECT_EQ(stats.queue.rejected_full, 1u);
  EXPECT_EQ(stats.queue.dropped_oldest, 0u);
  EXPECT_EQ(stats.queue.high_watermark, 2u);

  manager.pump();
  ASSERT_TRUE(manager.stats(kNoSession, stats));
  EXPECT_EQ(stats.queue.chunks_processed, 2u);
  // The queue drained; new chunks are admitted again.
  EXPECT_TRUE(manager.ingest(id, chunk));
}

TEST(Service, DropOldestPolicyEvictsButAdmits) {
  Rig rig;
  SessionManager manager({/*num_shards=*/1, /*queue_capacity=*/2,
                          OverflowPolicy::kDropOldest});
  const SessionId id = manager.attach(rig.config());

  EXPECT_TRUE(manager.ingest(id, chunkAt(0.1)));
  EXPECT_TRUE(manager.ingest(id, chunkAt(0.2)));
  EXPECT_TRUE(manager.ingest(id, chunkAt(0.3)));  // evicts the 0.1 chunk

  ServiceStats stats;
  ASSERT_TRUE(manager.stats(kNoSession, stats));
  EXPECT_EQ(stats.queue.enqueued, 3u);
  EXPECT_EQ(stats.queue.dropped_oldest, 1u);
  EXPECT_EQ(stats.queue.rejected_full, 0u);

  manager.pump();
  ASSERT_TRUE(manager.stats(kNoSession, stats));
  EXPECT_EQ(stats.queue.chunks_processed, 2u);
  EXPECT_EQ(stats.queue.reports_processed, 2u);
}

TEST(Service, IngestToUnknownSessionIsCountedAtPump) {
  Rig rig;
  SessionManager manager({/*num_shards=*/1});
  (void)manager.attach(rig.config());
  // Enqueue under an id that was never attached: admitted to the queue
  // (existence is a shard-state question), counted when the pump cannot
  // route it.
  EXPECT_TRUE(manager.ingest(12345, chunkAt(0.1)));
  manager.pump();
  ServiceStats stats;
  ASSERT_TRUE(manager.stats(kNoSession, stats));
  EXPECT_EQ(stats.queue.rejected_unknown_session, 1u);
  EXPECT_EQ(stats.queue.chunks_processed, 0u);
}

TEST(Service, CommandApiRoutesAndReportsErrors) {
  Rig rig;
  SessionManager manager({/*num_shards=*/2});

  CommandResult attach = manager.execute(AttachCmd{rig.config()});
  ASSERT_TRUE(attach.ok);
  ASSERT_NE(attach.session, kNoSession);

  fault::FaultPlan plan;
  plan.missread.p_good_to_bad = 0.05;
  EXPECT_TRUE(manager.execute(ConfigureCmd{attach.session, plan, 9}).ok);
  EXPECT_TRUE(manager.execute(SubscribeCmd{attach.session, false}).ok);

  CommandResult stats = manager.execute(StatsCmd{kNoSession});
  ASSERT_TRUE(stats.ok);
  EXPECT_EQ(stats.stats.sessions_active, 1u);
  EXPECT_EQ(stats.stats.sessions_attached, 1u);

  CommandResult bad = manager.execute(DetachCmd{777});
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  CommandResult detach = manager.execute(DetachCmd{attach.session});
  EXPECT_TRUE(detach.ok);
  EXPECT_EQ(manager.execute(StatsCmd{kNoSession}).stats.sessions_active, 0u);
}

TEST(Service, SubscribeOffDropsEventsButCountsLetters) {
  Rig rig;
  SessionManager manager({/*num_shards=*/1});
  const SessionId id = manager.attach(rig.config());
  ASSERT_TRUE(manager.subscribe(id, false));

  for (const auto& chunk : chunked(rig.writeLetter('C'))) {
    ASSERT_TRUE(manager.ingest(id, chunk));
    manager.pump();
  }
  EXPECT_TRUE(manager.poll(id).empty());
  ServiceStats stats;
  ASSERT_TRUE(manager.stats(id, stats));
  EXPECT_EQ(stats.letters_emitted, 1u);
}

TEST(Service, UnpolledEventsAreBoundedAndEvictOldestFirst) {
  // One letter replayed back to back, far past the retention bound: one
  // session is polled after every chunk, the other never.
  Rig rig;
  SessionManager manager({/*num_shards=*/2});
  const SessionId polled = manager.attach(rig.config());
  const SessionId idle = manager.attach(rig.config());
  const sim::Capture cap = rig.writeLetter('C');
  const double span_s = cap.stream.durationS() + 0.5;
  const auto chunks = chunked(cap);
  constexpr std::size_t kExcess = 7;
  std::vector<LetterEvent> all;
  for (std::size_t k = 0; all.size() < Session::kMaxRetainedEvents + kExcess;
       ++k) {
    ASSERT_LT(k, 2 * (Session::kMaxRetainedEvents + kExcess));
    for (auto chunk : chunks) {
      for (reader::TagReport& r : chunk) r.time_s += static_cast<double>(k) * span_s;
      ASSERT_TRUE(manager.ingest(polled, chunk));
      ASSERT_TRUE(manager.ingest(idle, chunk));
      manager.pump();
      for (const LetterEvent& ev : manager.poll(polled)) all.push_back(ev);
    }
  }
  const std::size_t excess = all.size() - Session::kMaxRetainedEvents;
  ServiceStats stats;
  ASSERT_TRUE(manager.stats(idle, stats));
  EXPECT_EQ(stats.letters_emitted, all.size());
  EXPECT_EQ(stats.events_evicted, excess);
  ASSERT_TRUE(manager.stats(polled, stats));
  EXPECT_EQ(stats.events_evicted, 0u);

  // The idle subscriber gets the newest kMaxRetainedEvents, oldest first.
  const std::vector<LetterEvent> kept = manager.poll(idle);
  ASSERT_EQ(kept.size(), Session::kMaxRetainedEvents);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].session, idle);
    EXPECT_EQ(kept[i].letter, all[excess + i].letter) << i;
    EXPECT_EQ(kept[i].stream_time_s, all[excess + i].stream_time_s) << i;
  }
  // Evictions stay counted after the session leaves.
  manager.detach(idle);
  manager.detach(polled);
  ASSERT_TRUE(manager.stats(kNoSession, stats));
  EXPECT_EQ(stats.events_evicted, excess);
}

TEST(Service, FaultSaltGivesReproducibleDegradation) {
  Rig rig;
  fault::FaultPlan plan;
  plan.missread.p_good_to_bad = 0.02;
  plan.missread.drop_prob_bad = 0.9;

  const auto chunks = chunked(rig.writeLetter('L'));
  auto run = [&](std::uint64_t salt) {
    SessionManager manager({/*num_shards=*/1});
    SessionConfig cfg = rig.config();
    cfg.fault = plan;
    cfg.fault_salt = salt;
    const SessionId id = manager.attach(std::move(cfg));
    for (const auto& chunk : chunks) {
      EXPECT_TRUE(manager.ingest(id, chunk));
      manager.pump();
    }
    ServiceStats stats;
    EXPECT_TRUE(manager.stats(id, stats));
    manager.detach(id);
    return stats.online.accepted;
  };

  const auto a1 = run(17);
  const auto a2 = run(17);
  const auto b = run(18);
  EXPECT_EQ(a1, a2);  // same salt → bit-identical degradation
  EXPECT_NE(a1, b);   // different salt → a different loss realisation
  // Degradation really removed reports vs the clean feed.
  std::size_t clean = 0;
  for (const auto& chunk : chunks) clean += chunk.size();
  EXPECT_LT(a1, clean);
}

TEST(Service, ServingNeverConstructsTransientPools) {
  Rig rig;
  const auto chunks = chunked(rig.writeLetter('C'));
  SessionManager manager({/*num_shards=*/4, /*queue_capacity=*/256,
                          OverflowPolicy::kRejectNew, /*threads=*/8});
  const SessionId id = manager.attach(rig.config());
  parallelFor(8, 2, [](std::size_t) {});  // warm the shared pool
  const std::uint64_t before = ThreadPool::constructedCount();
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(manager.ingest(id, chunk));
    manager.pump();
  }
  manager.flushAll();
  EXPECT_EQ(ThreadPool::constructedCount(), before);
}

}  // namespace
}  // namespace rfipad::service
