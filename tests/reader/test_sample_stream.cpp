#include "reader/sample_stream.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace rfipad::reader {
namespace {

TagReport report(std::uint32_t tag, double t, double phase = 1.0,
                 double rssi = -40.0) {
  TagReport r;
  r.tag_index = tag;
  r.time_s = t;
  r.phase_rad = phase;
  r.rssi_dbm = rssi;
  r.epc = "EPC";
  return r;
}

TEST(SampleStream, PushAndBasics) {
  SampleStream s(4);
  EXPECT_TRUE(s.empty());
  s.push(report(0, 0.1));
  s.push(report(3, 0.2));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.numTags(), 4u);
  EXPECT_DOUBLE_EQ(s.startTime(), 0.1);
  EXPECT_DOUBLE_EQ(s.endTime(), 0.2);
  EXPECT_DOUBLE_EQ(s.durationS(), 0.1);
}

TEST(SampleStream, ReinsertsTimeTravelAtItsTimestamp) {
  // An out-of-order arrival (transport reordering) is merged back at its
  // timestamp and counted, instead of throwing.
  SampleStream s(2);
  s.push(report(0, 1.0));
  EXPECT_EQ(s.push(report(1, 0.5)), PushOutcome::kReordered);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0].time_s, 0.5);
  EXPECT_DOUBLE_EQ(s[1].time_s, 1.0);
  EXPECT_EQ(s.reorderCount(), 1u);
}

TEST(SampleStream, InOrderPushesCountNoReorders) {
  SampleStream s(1);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(s.push(report(0, i * 0.1)), PushOutcome::kAppended);
  EXPECT_EQ(s.reorderCount(), 0u);
  EXPECT_EQ(s.duplicateCount(), 0u);
  EXPECT_EQ(s.invalidCount(), 0u);
}

TEST(SampleStream, DropsExactDuplicates) {
  SampleStream s(2);
  const auto r = report(0, 0.5, 2.0, -45.0);
  EXPECT_EQ(s.push(r), PushOutcome::kAppended);
  EXPECT_EQ(s.push(r), PushOutcome::kDuplicate);
  s.push(report(1, 0.7));
  // A late re-delivery of an older report is also recognised.
  EXPECT_EQ(s.push(r), PushOutcome::kDuplicate);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.duplicateCount(), 2u);
  // Same timestamp but different payload is a distinct read, kept.
  EXPECT_EQ(s.push(report(0, 0.5, 2.5, -45.0)), PushOutcome::kReordered);
  EXPECT_EQ(s.size(), 3u);
}

TEST(SampleStream, DropsNonFiniteTimestamps) {
  SampleStream s(1);
  EXPECT_EQ(s.push(report(0, std::numeric_limits<double>::quiet_NaN())),
            PushOutcome::kInvalid);
  EXPECT_EQ(s.push(report(0, std::numeric_limits<double>::infinity())),
            PushOutcome::kInvalid);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.invalidCount(), 2u);
}

TEST(SampleStream, GrowsNumTags) {
  SampleStream s;
  s.push(report(7, 0.0));
  EXPECT_EQ(s.numTags(), 8u);
}

TEST(SampleStream, SeriesExtraction) {
  SampleStream s(3);
  s.push(report(0, 0.0, 1.0, -40));
  s.push(report(1, 0.1, 2.0, -41));
  s.push(report(0, 0.2, 3.0, -42));
  const auto series = s.seriesFor(0);
  ASSERT_EQ(series.times.size(), 2u);
  EXPECT_DOUBLE_EQ(series.phases[0], 1.0);
  EXPECT_DOUBLE_EQ(series.phases[1], 3.0);
  EXPECT_DOUBLE_EQ(series.rssi[1], -42.0);
  EXPECT_TRUE(s.seriesFor(2).times.empty());
}

TEST(SampleStream, AllSeriesCoversEveryTag) {
  SampleStream s(3);
  s.push(report(1, 0.0));
  const auto all = s.allSeries();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[1].times.size(), 1u);
  EXPECT_TRUE(all[0].times.empty());
  EXPECT_EQ(all[2].tag_index, 2u);
}

TEST(SampleStream, CountAndRate) {
  SampleStream s(2);
  for (int i = 0; i < 10; ++i) s.push(report(i % 2, i * 0.1));
  EXPECT_EQ(s.countFor(0), 5u);
  EXPECT_NEAR(s.readRateHz(), 10.0 / 0.9, 1e-9);
}

TEST(SampleStream, SliceHalfOpen) {
  SampleStream s(1);
  for (int i = 0; i < 10; ++i) s.push(report(0, i * 0.1));
  const auto sub = s.slice(0.2, 0.5);
  ASSERT_EQ(sub.size(), 3u);  // 0.2, 0.3, 0.4
  EXPECT_DOUBLE_EQ(sub.startTime(), 0.2);
  EXPECT_LT(sub.endTime(), 0.5);
  EXPECT_EQ(sub.numTags(), 1u);
}

TEST(SampleStream, AppendMergesAtTimestamps) {
  SampleStream a(1), b(1);
  a.push(report(0, 0.0));
  b.push(report(0, 1.0));
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
  // Appending the older stream merges its fresh report back in time order
  // (the shared report is recognised as a duplicate).
  b.append(a);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b[0].time_s, 0.0);
  EXPECT_DOUBLE_EQ(b[1].time_s, 1.0);
  EXPECT_EQ(b.reorderCount(), 1u);
  EXPECT_EQ(b.duplicateCount(), 1u);
}

TEST(SampleStream, EmptyStreamDefaults) {
  const SampleStream s;
  EXPECT_DOUBLE_EQ(s.startTime(), 0.0);
  EXPECT_DOUBLE_EQ(s.durationS(), 0.0);
  EXPECT_DOUBLE_EQ(s.readRateHz(), 0.0);
}

TEST(SampleStream, DropBeforeAdvancesWindow) {
  SampleStream s(2);
  for (int i = 0; i < 10; ++i) s.push(report(0, i * 0.1));
  s.dropBefore(0.45);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_DOUBLE_EQ(s.startTime(), 0.5);
  EXPECT_DOUBLE_EQ(s.endTime(), 0.9);
  ASSERT_EQ(s.reports().size(), 5u);
  EXPECT_DOUBLE_EQ(s.reports().front().time_s, 0.5);
  // A report exactly at the bound survives (drop is "time < t").
  s.dropBefore(0.7);
  EXPECT_DOUBLE_EQ(s.startTime(), 0.7);
  EXPECT_EQ(s.size(), 3u);
  // Dropping everything resets to an empty (but usable) stream.
  s.dropBefore(10.0);
  EXPECT_TRUE(s.empty());
  s.push(report(1, 11.0));
  EXPECT_DOUBLE_EQ(s.startTime(), 11.0);
  EXPECT_EQ(s.numTags(), 2u);
}

TEST(SampleStream, DropBeforeLeavesSeriesConsistent) {
  SampleStream s(2);
  for (int i = 0; i < 20; ++i)
    s.push(report(static_cast<std::uint32_t>(i % 2), i * 0.1, 1.0 + i));
  s.dropBefore(1.0);  // keep reports 10..19
  EXPECT_EQ(s.countFor(0), 5u);
  EXPECT_EQ(s.countFor(1), 5u);
  const auto series = s.seriesFor(1);
  ASSERT_EQ(series.times.size(), 5u);
  EXPECT_DOUBLE_EQ(series.times.front(), 1.1);
  const auto flat = s.flatSeries();
  EXPECT_EQ(flat.times.size(), s.size());
  // Push after the drop: appends stay in order relative to the window.
  s.push(report(0, 2.5));
  EXPECT_DOUBLE_EQ(s.endTime(), 2.5);
  EXPECT_EQ(s.reorderCount(), 0u);
}

TEST(SampleStream, DropBeforeNothingIsANoOp) {
  SampleStream s(1);
  for (int i = 0; i < 10; ++i) s.push(report(0, 1.0 + i * 0.1));
  const TagReport* base = s.reports().data();
  // A bound at (or before) the window start drops nothing and must not
  // touch the storage — the live-window pointer stays put.
  s.dropBefore(1.0);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(s.reports().data(), base);
  s.dropBefore(0.0);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(s.reports().data(), base);
  s.dropBefore(-5.0);
  EXPECT_EQ(s.size(), 10u);
  EXPECT_EQ(s.reports().data(), base);
}

TEST(SampleStream, RepeatedDropsAtTheSameWatermarkAreIdempotent) {
  SampleStream s(1);
  for (int i = 0; i < 20; ++i) s.push(report(0, i * 0.1));
  s.dropBefore(0.95);
  const std::size_t size_after_first = s.size();
  const double start_after_first = s.startTime();
  const TagReport* data_after_first = s.reports().data();
  ASSERT_EQ(size_after_first, 10u);
  // Re-issuing the same watermark (the segmenter does this every pass
  // while the window start is stationary) is a pure no-op: no size
  // change, no pointer movement, no compaction churn.
  for (int k = 0; k < 5; ++k) {
    s.dropBefore(0.95);
    EXPECT_EQ(s.size(), size_after_first);
    EXPECT_DOUBLE_EQ(s.startTime(), start_after_first);
    EXPECT_EQ(s.reports().data(), data_after_first);
  }
}

TEST(SampleStream, DropAllResetsStorageAndStreamStaysUsable) {
  SampleStream s(2);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i)
      s.push(report(static_cast<std::uint32_t>(i % 2),
                    round * 100.0 + i * 0.1));
    EXPECT_EQ(s.size(), 50u);
    // Drop-all clears the backing vector outright (front index back to 0)
    // rather than leaving a fully-dead prefix around.
    s.dropBefore(round * 100.0 + 10.0);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.countFor(0), 0u);
    EXPECT_EQ(s.countFor(1), 0u);
    EXPECT_DOUBLE_EQ(s.startTime(), 0.0);
  }
}

TEST(SampleStream, CompactionTriggersOnlyWhenDeadPrefixDominates) {
  // Pin the amortised-O(1) contract: small drops advance the front index
  // inside the same allocation (pointer moves forward, no element moves);
  // only once the dead prefix is >= 64 AND >= half the storage does one
  // erase pay the whole prefix back.
  SampleStream s(1);
  for (int i = 0; i < 300; ++i) s.push(report(0, i * 0.1));
  const TagReport* base = s.reports().data();

  // front_ = 100: >= 64 but 200 < 300 → no compaction, window slides.
  s.dropBefore(10.0);
  EXPECT_EQ(s.size(), 200u);
  EXPECT_EQ(s.reports().data(), base + 100);

  // front_ = 160: 320 >= 300 → compacts back to the buffer start.
  s.dropBefore(16.0);
  EXPECT_EQ(s.size(), 140u);
  EXPECT_EQ(s.reports().data(), base);
  EXPECT_DOUBLE_EQ(s.startTime(), 16.0);

  // Below the 64-element floor nothing compacts even when the dead
  // prefix is more than half the storage (60 × 2 >= 100 but 60 < 64).
  SampleStream small(1);
  for (int i = 0; i < 100; ++i) small.push(report(0, i * 0.1));
  const TagReport* small_base = small.reports().data();
  small.dropBefore(6.0);
  EXPECT_EQ(small.size(), 40u);
  EXPECT_EQ(small.reports().data(), small_base + 60);
}

TEST(SampleStream, DropInterleavedWithFlatSeriesStaysConsistent) {
  SampleStream s(3);
  for (int i = 0; i < 120; ++i)
    s.push(report(static_cast<std::uint32_t>(i % 3), i * 0.05, 1.0 + i));
  for (int k = 1; k <= 6; ++k) {
    s.dropBefore(k * 0.8);
    // The SoA extraction must always reflect exactly the live window —
    // same sample count, window-start time, and per-tag partitioning.
    const FlatSeries flat = s.flatSeries();
    ASSERT_EQ(flat.times.size(), s.size());
    std::size_t total = 0;
    for (std::uint32_t tag = 0; tag < 3; ++tag) total += s.countFor(tag);
    EXPECT_EQ(total, s.size());
    if (!s.empty()) {
      EXPECT_GE(s.startTime(), k * 0.8);
    }
  }
  // Everything below the final watermark is gone for good; a fresh push
  // after heavy interleaving still lands cleanly in order.
  s.push(report(0, 100.0));
  EXPECT_DOUBLE_EQ(s.endTime(), 100.0);
  EXPECT_EQ(s.reorderCount(), 0u);
}

TEST(SampleStream, ManyIncrementalDropsMatchOneBigDrop) {
  // The compaction threshold must never change what the window contains:
  // trimming in 50 small steps and in a single step give identical views.
  SampleStream steps(1), once(1);
  for (int i = 0; i < 500; ++i) {
    steps.push(report(0, i * 0.01, 1.0 + i));
    once.push(report(0, i * 0.01, 1.0 + i));
  }
  for (int k = 1; k <= 50; ++k) steps.dropBefore(k * 0.06);
  once.dropBefore(50 * 0.06);
  ASSERT_EQ(steps.size(), once.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_DOUBLE_EQ(steps[i].time_s, once[i].time_s);
    EXPECT_DOUBLE_EQ(steps[i].phase_rad, once[i].phase_rad);
  }
}

}  // namespace
}  // namespace rfipad::reader
