// StreamSegmenter: differential check against the whole-buffer segmenter,
// and a work bound on the online passes.
//
// The differential test drives seeded random operation sequences — in-order
// appends, bounded out-of-order inserts, duplicates, trims at arbitrary and
// mid-frame times, inserts before the start, a corroborated clock jump,
// emptying the buffer — and after every pass compares the streaming trace
// and intervals bit for bit with Segmenter::segmentWith over the same
// buffer, in fixed- and adaptive-threshold mode, on the scalar and the
// native SIMD tier.
#include "core/stream_segmenter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/angles.hpp"
#include "common/rng.hpp"
#include "common/simd_dispatch.hpp"
#include "letter_stream.hpp"

namespace rfipad::core {
namespace {

/// Pins the dispatcher to a tier for one scope; restores auto-detection.
class TierGuard {
 public:
  explicit TierGuard(simd::Tier t) { simd::setTierOverrideForTest(t); }
  ~TierGuard() { simd::clearTierOverrideForTest(); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
};

constexpr int kProfileTags = 9;
/// One more tag than the profile knows: its reads calibrate against 0.
constexpr int kStreamTags = kProfileTags + 1;

StaticProfile neutralProfile() {
  std::vector<TagProfile> p(kProfileTags);
  for (int i = 0; i < kProfileTags; ++i) {
    p[static_cast<std::size_t>(i)].mean_phase = 1.0 + 0.3 * i;
    p[static_cast<std::size_t>(i)].deviation_bias = 0.03;
    p[static_cast<std::size_t>(i)].samples = 100;
  }
  return StaticProfile(std::move(p));
}

/// Quiet reads around each tag's static phase, except in every other 2 s
/// span, where three tags swing by up to 3.5 rad — across ±π, so
/// unwrapping matters — and the segmenter finds strokes.
reader::TagReport readAt(Rng& rng, double t, int num_tags) {
  reader::TagReport r;
  r.tag_index = static_cast<std::uint32_t>(rng.uniformInt(0, num_tags - 1));
  const int i = static_cast<int>(r.tag_index);
  double phase = 1.0 + 0.3 * i + rng.normal(0.0, 0.03);
  if (static_cast<long>(std::floor(t / 2.0)) % 2 == 1 && i >= 3 && i <= 5)
    phase += 3.5 * std::sin(kTwoPi * 1.5 * t + i);
  r.phase_rad = wrapTwoPi(phase);
  r.rssi_dbm = -40.0;
  r.time_s = t;
  return r;
}

::testing::AssertionResult sameBits(const std::vector<double>& got,
                                    const std::vector<double>& want,
                                    const char* what) {
  if (got.size() != want.size())
    return ::testing::AssertionFailure()
           << what << ": " << got.size() << " vs " << want.size() << " entries";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) != std::bit_cast<std::uint64_t>(want[i]))
      return ::testing::AssertionFailure()
             << what << "[" << i << "]: " << got[i] << " vs " << want[i];
  }
  return ::testing::AssertionSuccess();
}

/// One pass of the streaming state, compared with a whole-buffer pass.  Both
/// use the same scratch, so the state cannot lean on anything left in it.
void expectMatchesBatch(StreamSegmenter& seg, SegmentScratch& scratch, int step) {
  SCOPED_TRACE(::testing::Message() << "step " << step << ", "
                                    << seg.stream().size() << " reports");
  std::vector<double> intervals;
  for (const Interval& iv : seg.segmentWith(scratch)) {
    intervals.push_back(iv.t0);
    intervals.push_back(iv.t1);
  }
  std::vector<double> want_intervals;
  for (const Interval& iv : seg.segmenter().segmentWith(seg.stream(), scratch)) {
    want_intervals.push_back(iv.t0);
    want_intervals.push_back(iv.t1);
  }
  const SegmentationTrace& got = seg.trace();
  const SegmentationTrace& want = scratch.trace;
  ASSERT_TRUE(sameBits(got.frame_times, want.frame_times, "frame_times"));
  ASSERT_TRUE(sameBits(got.frame_rms, want.frame_rms, "frame_rms"));
  ASSERT_TRUE(sameBits(got.window_times, want.window_times, "window_times"));
  ASSERT_TRUE(sameBits(got.window_std, want.window_std, "window_std"));
  ASSERT_TRUE(sameBits(got.window_peak, want.window_peak, "window_peak"));
  ASSERT_TRUE(sameBits({got.threshold_used}, {want.threshold_used}, "threshold_used"));
  ASSERT_TRUE(sameBits(intervals, want_intervals, "intervals"));
}

struct Coverage {
  int intervals = 0;
  int partial_passes = 0;
};

void runRandomOps(const SegmenterOptions& options, std::uint64_t seed,
                  Coverage& cov) {
  Rng rng(seed);
  StreamSegmenter seg(neutralProfile(), options);
  SegmentScratch scratch;
  double clock = 0.0;  // newest in-order report time
  for (int step = 0; step < 1500; ++step) {
    const reader::SampleStream& s = seg.stream();
    // The extra tag first reports mid-sequence, growing the tag set.
    const int tags = step < 400 ? kProfileTags : kStreamTags;
    auto readAt = [&](Rng& r, double t) { return core::readAt(r, t, tags); };
    const double op = rng.uniform();
    if (op < 0.55 || s.empty()) {
      // In-order appends, ~250 reads/s over the array.
      for (std::int64_t k = rng.uniformInt(1, 40); k > 0; --k) {
        clock += rng.exponential(0.004);
        seg.push(readAt(rng, clock));
      }
    } else if (op < 0.65) {
      // Bounded out-of-order arrival, within 0.6 s of the newest report.
      const double t = std::max(s.startTime(), s.endTime() - rng.uniform(0.0, 0.6));
      seg.push(readAt(rng, t));
    } else if (op < 0.70) {
      const reader::TagReport dup = s[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(s.size()) - 1))];
      EXPECT_EQ(seg.push(dup), reader::PushOutcome::kDuplicate);
    } else if (op < 0.75) {
      seg.dropBefore(s.startTime() + rng.uniform(0.0, 0.6) * s.durationS());
    } else if (op < 0.79) {
      // Trim at a frame centre of the current grid.
      const double frames = std::ceil(s.durationS() / options.frame_s);
      const double f = std::floor(rng.uniform(0.0, frames));
      seg.dropBefore(s.startTime() + (f + 0.5) * options.frame_s);
    } else if (op < 0.82) {
      const double t = s.startTime() - rng.uniform(0.01, 0.3);
      if (t >= 0.0) {
        EXPECT_EQ(seg.push(readAt(rng, t)), reader::PushOutcome::kReordered);
      }
    } else if (op < 0.83) {
      // A reader resuming after a long pause (OnlineRecognizer accepts such
      // a jump once a second report corroborates it).
      clock += 30.0;
      seg.push(readAt(rng, clock));
      clock += 0.01;
      seg.push(readAt(rng, clock));
    } else if (op < 0.84) {
      // Empty the buffer, then refill it from exactly its old start, so
      // the new first report sits where the old grid was anchored.
      const double start = s.startTime();
      seg.dropBefore(s.endTime() + 1.0);
      clock = start;
      seg.push(readAt(rng, clock));
    }
    // Keep the buffer near an online horizon, as OnlineRecognizer does.
    if (!s.empty() && s.durationS() > 8.0) seg.dropBefore(s.endTime() - 5.0);
    if (rng.chance(0.6)) {
      expectMatchesBatch(seg, scratch, step);
      if (::testing::Test::HasFatalFailure()) return;
      cov.intervals += static_cast<int>(scratch.merged.size());
      cov.partial_passes += seg.work().last_full ? 0 : 1;
    }
  }
}

void runBothModes(simd::Tier tier) {
  TierGuard guard(tier);
  SegmenterOptions fixed;
  SegmenterOptions adaptive;
  adaptive.threshold = 0.0;
  adaptive.core_fraction = 0.5;
  for (const SegmenterOptions& options : {fixed, adaptive}) {
    for (std::uint64_t seed : {11u, 12u}) {
      SCOPED_TRACE(::testing::Message() << simd::tierName(tier) << " threshold "
                                        << options.threshold << " seed " << seed);
      Coverage cov;
      runRandomOps(options, seed, cov);
      if (::testing::Test::HasFatalFailure()) return;
      // The sequence must have exercised strokes and incremental passes.
      EXPECT_GT(cov.intervals, 0);
      EXPECT_GT(cov.partial_passes, 100);
    }
  }
}

TEST(StreamSegmenter, MatchesWholeBufferSegmentationScalarTier) {
  runBothModes(simd::Tier::kScalar);
}

TEST(StreamSegmenter, MatchesWholeBufferSegmentationNativeTier) {
  runBothModes(simd::detectTier());
}

TEST(StreamSegmenter, EmptyBufferYieldsEmptyTrace) {
  StreamSegmenter seg(neutralProfile());
  SegmentScratch scratch;
  EXPECT_TRUE(seg.segmentWith(scratch).empty());
  EXPECT_TRUE(seg.trace().frame_rms.empty());
  EXPECT_EQ(seg.trace().threshold_used, 0.0);
}

TEST(StreamSegmenter, OnlinePassesRecomputeOnlyTheChangedTail) {
  // 60 s of the serving bench's letter stream under serving options.  A
  // pass that follows no trim redoes at most the new frames plus the
  // previous last frame (the bound leaves a window of slack); passes after
  // a trim redo everything.  Re-segmenting the whole buffer every pass
  // costs about 10x the stream's frame count; the streaming state must
  // stay within 3x.
  const testing::LetterStream ls = testing::buildLetterStream(/*seed=*/1, /*rounds=*/2);
  const OnlineOptions options = testing::servingOptions(ls.options);
  const SegmenterOptions& seg = options.engine.segmenter;
  const double span_s = 60.0;
  const double t_end = ls.reports.front().time_s + span_s;
  const std::size_t per_pass_bound =
      static_cast<std::size_t>(seg.window_frames) +
      static_cast<std::size_t>(std::ceil(options.process_interval_s / seg.frame_s)) + 1;

  OnlineRecognizer rec(ls.profile, options);
  SegmentScratch scratch;
  std::uint64_t incremental_passes = 0;
  for (const reader::TagReport& r : ls.reports) {
    if (r.time_s > t_end) break;
    if (!rec.offer(r)) continue;
    rec.processDue(scratch);
    const SegmentWork& w = rec.segmentation().work();
    if (w.last_full) continue;
    ++incremental_passes;
    EXPECT_LE(w.last_frames, per_pass_bound) << "pass " << w.passes;
  }
  rec.flushWith(scratch);

  const SegmentWork& w = rec.segmentation().work();
  const double stream_frames = std::ceil(span_s / seg.frame_s);
  RecordProperty("frames_per_stream_frame",
                 std::to_string(static_cast<double>(w.frames) / stream_frames));
  EXPECT_LE(static_cast<double>(w.frames), 3.0 * stream_frames);
  EXPECT_GT(w.full_passes, 0u);
  EXPECT_GT(incremental_passes, w.full_passes);
}

}  // namespace
}  // namespace rfipad::core
