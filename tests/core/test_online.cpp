#include "core/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "letter_stream.hpp"
#include "sim/letters.hpp"
#include "sim/scenario.hpp"

namespace rfipad::core {
namespace {

struct Rig {
  sim::Scenario scenario;
  StaticProfile profile;
  OnlineOptions options;

  explicit Rig(std::uint64_t seed = 51)
      : scenario([&] {
          sim::ScenarioConfig cfg;
          cfg.seed = seed;
          return cfg;
        }()),
        profile(StaticProfile::calibrate(scenario.captureStatic(5.0), 25)) {
    options.engine.rows = 5;
    options.engine.cols = 5;
    for (const auto& t : scenario.array().tags())
      options.engine.tag_xy.push_back({t.position.x, t.position.y});
  }

  sim::Capture write(const std::vector<sim::StrokePlan>& plans) {
    sim::TrajectoryBuilder b(sim::defaultUser(1), scenario.forkRng(3));
    b.hold(0.5);
    for (const auto& p : plans) b.stroke(p);
    b.retract().hold(0.6);
    return scenario.capture(b.build(), sim::defaultUser(1));
  }
};

/// A recogniser driven through offer/processDue/flushWith with its own
/// scratch, collecting every emitted stroke.
struct Fed : OnlineRecognizer {
  SegmentScratch scratch;
  std::vector<StrokeEvent> strokes;

  Fed(const StaticProfile& profile, const OnlineOptions& options)
      : OnlineRecognizer(profile, options) {
    onStroke([this](const StrokeEvent& ev) { strokes.push_back(ev); });
  }
  void feed(const reader::TagReport& r) {
    if (offer(r)) processDue(scratch);
  }
  void finish() { flushWith(scratch); }
};

TEST(Online, EmitsStrokeShortlyAfterItEnds) {
  Rig rig;
  Fed rec(rig.profile, rig.options);
  std::vector<double> emit_times;
  rec.onStroke([&](const StrokeEvent& ev) {
    emit_times.push_back(ev.interval.t1);
  });

  const auto cap = rig.write(
      {sim::canonicalPlan({StrokeKind::kVLine, StrokeDir::kForward}, 0.1)});
  double last_pushed = 0.0;
  double emitted_at_push_time = -1.0;
  for (const auto& r : cap.stream.reports()) {
    rec.feed(r);
    last_pushed = r.time_s;
    if (!emit_times.empty() && emitted_at_push_time < 0.0) {
      emitted_at_push_time = last_pushed;
    }
  }
  rec.finish();
  ASSERT_FALSE(emit_times.empty());
  // The stroke was reported online — before the input stream ended, within
  // ~1 s of the window closing (the paper's online property).
  if (emitted_at_push_time > 0.0) {
    EXPECT_LT(emitted_at_push_time - emit_times.front(), 1.2);
  }
}

TEST(Online, MatchesBatchRecognitionForSingleStroke) {
  Rig rig;
  const auto cap = rig.write(
      {sim::canonicalPlan({StrokeKind::kHLine, StrokeDir::kForward}, 0.1)});

  Fed rec(rig.profile, rig.options);
  for (const auto& r : cap.stream.reports()) rec.feed(r);
  rec.finish();
  ASSERT_EQ(rec.strokes.size(), 1u);
  EXPECT_EQ(rec.strokes[0].observation.stroke.kind, StrokeKind::kHLine);

  const RecognitionEngine batch(rig.profile, rig.options.engine);
  const auto batch_events = batch.detectStrokes(cap.stream);
  ASSERT_EQ(batch_events.size(), 1u);
  EXPECT_EQ(batch_events[0].observation.stroke.kind,
            rec.strokes[0].observation.stroke.kind);
}

TEST(Online, ComposesLetterAfterQuietGap) {
  Rig rig(57);
  Fed rec(rig.profile, rig.options);
  char letter = '\0';
  std::size_t letter_strokes = 0;
  rec.onLetter([&](char c, const std::vector<StrokeEvent>& evs) {
    letter = c;
    letter_strokes = evs.size();
  });

  const auto cap = rig.write(sim::letterPlans('L', 0.12, 0.114));
  for (const auto& r : cap.stream.reports()) rec.feed(r);
  rec.finish();
  EXPECT_EQ(letter, 'L');
  // Two real strokes; an occasional transition residue may ride along (the
  // robust decoder discounts it).
  EXPECT_GE(letter_strokes, 2u);
  EXPECT_LE(letter_strokes, 3u);
}

TEST(Online, QuietStreamEmitsNothing) {
  Rig rig(58);
  Fed rec(rig.profile, rig.options);
  int strokes = 0, letters = 0;
  rec.onStroke([&](const StrokeEvent&) { ++strokes; });
  rec.onLetter([&](char, const std::vector<StrokeEvent>&) { ++letters; });
  const auto quiet = rig.scenario.captureStatic(3.0);
  for (const auto& r : quiet.reports()) rec.feed(r);
  rec.finish();
  EXPECT_EQ(strokes, 0);
  EXPECT_EQ(letters, 0);
}

TEST(Online, NoDuplicateEmission) {
  Rig rig(59);
  Fed rec(rig.profile, rig.options);
  const auto cap = rig.write(
      {sim::canonicalPlan({StrokeKind::kSlash, StrokeDir::kForward}, 0.1)});
  for (const auto& r : cap.stream.reports()) rec.feed(r);
  rec.finish();
  rec.finish();  // idempotent
  EXPECT_EQ(rec.strokes.size(), 1u);
}

TEST(Online, TwoStrokesTwoEvents) {
  Rig rig(60);
  Fed rec(rig.profile, rig.options);
  const auto cap = rig.write(
      {sim::canonicalPlan({StrokeKind::kVLine, StrokeDir::kForward}, 0.09),
       sim::canonicalPlan({StrokeKind::kHLine, StrokeDir::kForward}, 0.09)});
  for (const auto& r : cap.stream.reports()) rec.feed(r);
  rec.finish();
  EXPECT_EQ(rec.strokes.size(), 2u);
}

TEST(Online, RejectsInvalidReportsWithCountedDrop) {
  Rig rig(61);
  Fed rec(rig.profile, rig.options);

  reader::TagReport r;
  r.tag_index = 3;
  r.time_s = std::numeric_limits<double>::quiet_NaN();
  r.phase_rad = 1.0;
  r.rssi_dbm = -40.0;
  rec.feed(r);
  r.time_s = -0.5;
  rec.feed(r);
  r.time_s = 0.5;
  r.phase_rad = std::numeric_limits<double>::infinity();
  rec.feed(r);
  r.phase_rad = 1.0;
  r.rssi_dbm = std::numeric_limits<double>::quiet_NaN();
  rec.feed(r);
  EXPECT_EQ(rec.stats().dropped_invalid, 4u);
  EXPECT_EQ(rec.stats().accepted, 0u);

  // An out-of-range tag index (corrupted EPC) is dropped, not allocated.
  r.rssi_dbm = -40.0;
  r.tag_index = 1u << 20;
  rec.feed(r);
  EXPECT_EQ(rec.stats().dropped_unknown_tag, 1u);

  rec.finish();
  EXPECT_TRUE(rec.strokes.empty());
}

TEST(Online, ToleratesReorderAndDuplicateDelivery) {
  // Same capture, once delivered cleanly and once with transport disorder
  // (adjacent swaps + duplicates): the recognised stroke must match.
  Rig rig(62);
  const auto cap = rig.write(
      {sim::canonicalPlan({StrokeKind::kHLine, StrokeDir::kForward}, 0.1)});

  Fed clean(rig.profile, rig.options);
  for (const auto& r : cap.stream.reports()) clean.feed(r);
  clean.finish();

  Fed messy(rig.profile, rig.options);
  const auto& reports = cap.stream.reports();
  for (std::size_t i = 0; i + 1 < reports.size(); i += 2) {
    messy.feed(reports[i + 1]);  // swapped pair
    messy.feed(reports[i]);
    if (i % 10 == 0) messy.feed(reports[i]);  // occasional re-delivery
  }
  if (reports.size() % 2 == 1) messy.feed(reports.back());
  messy.finish();

  EXPECT_GT(messy.stats().reordered, 0u);
  EXPECT_GT(messy.stats().duplicates, 0u);
  ASSERT_EQ(messy.strokes.size(), clean.strokes.size());
  for (std::size_t i = 0; i < messy.strokes.size(); ++i) {
    EXPECT_EQ(messy.strokes[i].observation.stroke.kind,
              clean.strokes[i].observation.stroke.kind);
  }
}

TEST(Online, LateReportsBehindConsumedFrontierAreDropped) {
  Rig rig(63);
  Fed rec(rig.profile, rig.options);
  const auto cap = rig.write(
      {sim::canonicalPlan({StrokeKind::kVLine, StrokeDir::kForward}, 0.1)});
  for (const auto& r : cap.stream.reports()) rec.feed(r);
  rec.finish();
  ASSERT_FALSE(rec.strokes.empty());

  // Replay a report from deep inside the consumed window: it must be
  // dropped (counted), not re-open recognition.
  const std::size_t emitted = rec.strokes.size();
  rec.feed(cap.stream.reports().front());
  EXPECT_EQ(rec.stats().dropped_late, 1u);
  rec.finish();
  EXPECT_EQ(rec.strokes.size(), emitted);
}

TEST(Online, IsolatedFutureTimestampCannotStallTheClock) {
  // A bit-flipped wire clock yields a finite but absurd timestamp.  If it
  // dragged the watermark forward, the recogniser clock would never advance
  // again and every later stroke would be lost.  An isolated jump past the
  // buffer horizon must be dropped (counted), with recognition unaffected.
  Rig rig(64);
  const auto cap = rig.write(
      {sim::canonicalPlan({StrokeKind::kHLine, StrokeDir::kForward}, 0.1)});

  Fed clean(rig.profile, rig.options);
  for (const auto& r : cap.stream.reports()) clean.feed(r);
  clean.finish();

  Fed glitched(rig.profile, rig.options);
  const auto& reports = cap.stream.reports();
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (i == reports.size() / 3) {
      reader::TagReport bad = reports[i];
      bad.time_s = 9.2e12;  // 2^63 microseconds, as decoded from the wire
      glitched.feed(bad);
    }
    glitched.feed(reports[i]);
  }
  glitched.finish();

  EXPECT_EQ(glitched.stats().dropped_future, 1u);
  ASSERT_EQ(glitched.strokes.size(), clean.strokes.size());
  for (std::size_t i = 0; i < glitched.strokes.size(); ++i) {
    EXPECT_EQ(glitched.strokes[i].observation.stroke.kind,
              clean.strokes[i].observation.stroke.kind);
  }
}

TEST(Online, CorroboratedClockJumpIsAccepted) {
  // A genuine far-future jump (reader resumed after a long gap) delivers
  // *consecutive* reports at the new time; the second one corroborates the
  // first and the stream continues at the jumped clock.
  Rig rig(65);
  Fed rec(rig.profile, rig.options);
  reader::TagReport r;
  r.tag_index = 3;
  r.phase_rad = 1.0;
  r.rssi_dbm = -40.0;
  for (int i = 0; i < 10; ++i) {
    r.time_s = 0.1 * i;
    rec.feed(r);
    r.phase_rad += 0.01;  // avoid the duplicate filter
  }
  const double jump = 500.0;
  for (int i = 0; i < 10; ++i) {
    r.time_s = jump + 0.1 * i;
    rec.feed(r);
    r.phase_rad += 0.01;
  }
  // Only the first post-jump report is held for corroboration.
  EXPECT_EQ(rec.stats().dropped_future, 1u);
  EXPECT_EQ(rec.stats().accepted, 19u);
}

TEST(Online, SharedScratchMatchesOwnScratch) {
  // The serving layer drives every session of a shard with one shared
  // SegmentScratch, while each recogniser keeps its segmentation state.
  // Two recognisers fed different letter streams, interleaved report by
  // report on one scratch, must emit exactly what each emits with a
  // scratch of its own: nothing may leak between the two through it.
  const testing::LetterStream a = testing::buildLetterStream(/*seed=*/1);
  const testing::LetterStream b = testing::buildLetterStream(/*seed=*/2);
  const OnlineOptions opt_a = testing::servingOptions(a.options);
  const OnlineOptions opt_b = testing::servingOptions(b.options);

  struct Output {
    std::string letters;
    std::vector<Interval> strokes;
  };
  auto record = [](OnlineRecognizer& rec, Output& out) {
    rec.onLetter([&out](char c, const std::vector<StrokeEvent>&) { out.letters += c; });
    rec.onStroke([&out](const StrokeEvent& ev) { out.strokes.push_back(ev.interval); });
  };
  auto own = [&](const testing::LetterStream& ls, const OnlineOptions& opt) {
    OnlineRecognizer rec(ls.profile, opt);
    Output out;
    record(rec, out);
    SegmentScratch scratch;
    for (const auto& r : ls.reports)
      if (rec.offer(r)) rec.processDue(scratch);
    rec.flushWith(scratch);
    return out;
  };
  const Output own_a = own(a, opt_a);
  const Output own_b = own(b, opt_b);

  OnlineRecognizer rec_a(a.profile, opt_a);
  OnlineRecognizer rec_b(b.profile, opt_b);
  Output shared_a, shared_b;
  record(rec_a, shared_a);
  record(rec_b, shared_b);
  SegmentScratch shared;
  for (std::size_t k = 0; k < std::max(a.reports.size(), b.reports.size()); ++k) {
    if (k < a.reports.size() && rec_a.offer(a.reports[k])) rec_a.processDue(shared);
    if (k < b.reports.size() && rec_b.offer(b.reports[k])) rec_b.processDue(shared);
  }
  rec_a.flushWith(shared);
  rec_b.flushWith(shared);

  EXPECT_FALSE(own_a.letters.empty());
  EXPECT_NE(own_a.letters, own_b.letters);
  EXPECT_EQ(shared_a.letters, own_a.letters);
  EXPECT_EQ(shared_b.letters, own_b.letters);
  for (const auto& [shared_out, own_out] :
       {std::pair{&shared_a, &own_a}, std::pair{&shared_b, &own_b}}) {
    ASSERT_EQ(shared_out->strokes.size(), own_out->strokes.size());
    for (std::size_t i = 0; i < own_out->strokes.size(); ++i) {
      EXPECT_EQ(shared_out->strokes[i].t0, own_out->strokes[i].t0);
      EXPECT_EQ(shared_out->strokes[i].t1, own_out->strokes[i].t1);
    }
  }
}

}  // namespace
}  // namespace rfipad::core
