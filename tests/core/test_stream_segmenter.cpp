// StreamSegmenter: differential check against the whole-buffer segmenter,
// and a work bound on the online passes.
//
// The differential test drives seeded random operation sequences — in-order
// appends, bounded out-of-order inserts, duplicates, non-finite timestamps,
// trims at arbitrary and mid-frame times, inserts before the start, a
// corroborated clock jump, emptying the buffer — into both the
// StreamSegmenter and a mirror reader::SampleStream.  Every push outcome
// must agree; after every pass the compact buffer must hold the mirror's
// reads (and rebuild the mirror's window slices), and the streaming trace
// and intervals must equal Segmenter::segmentWith over the mirror bit for
// bit, in fixed- and adaptive-threshold mode, on the scalar and the native
// SIMD tier.
#include "core/stream_segmenter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
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
  r.rssi_dbm = -40.0 - 0.5 * static_cast<double>(rng.uniformInt(0, 8));
  r.channel_mhz = rng.chance(0.5) ? 922.38 : 924.88;
  r.imputed = rng.chance(0.1);
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

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The fields a BufferedRead keeps, compared bit for bit with a report.
::testing::AssertionResult sameRead(const BufferedRead& got,
                                    const reader::TagReport& want) {
  if (got.tag_index == want.tag_index && sameBits(got.time_s, want.time_s) &&
      sameBits(got.phase_rad, want.phase_rad) &&
      sameBits(got.rssi_dbm, want.rssi_dbm) &&
      sameBits(got.channel_mhz, want.channel_mhz) &&
      got.imputed == want.imputed)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "read (tag " << got.tag_index << ", t " << got.time_s << ") vs (tag "
         << want.tag_index << ", t " << want.time_s << ")";
}

/// A StreamSegmenter and a mirror SampleStream given the same operations.
struct Mirrored {
  StreamSegmenter seg;
  reader::SampleStream mirror;

  reader::PushOutcome push(const reader::TagReport& r) {
    const reader::PushOutcome want = mirror.push(r);
    EXPECT_EQ(seg.push(r), want) << "push at t " << r.time_s;
    return want;
  }
  void dropBefore(double t) {
    seg.dropBefore(t);
    mirror.dropBefore(t);
  }
};

/// The compact buffer against the mirror: window, counters, every read, and
/// the TagReports rebuilt for one window.
void expectBufferMatchesMirror(const Mirrored& m, Rng& rng) {
  const ReportBuffer& b = m.seg.buffer();
  const reader::SampleStream& s = m.mirror;
  ASSERT_EQ(b.size(), s.size());
  ASSERT_EQ(b.numTags(), s.numTags());
  ASSERT_TRUE(sameBits(b.startTime(), s.startTime()));
  ASSERT_TRUE(sameBits(b.endTime(), s.endTime()));
  ASSERT_EQ(b.reorderCount(), s.reorderCount());
  ASSERT_EQ(b.duplicateCount(), s.duplicateCount());
  ASSERT_EQ(b.invalidCount(), s.invalidCount());
  for (std::size_t i = 0; i < b.size(); ++i)
    ASSERT_TRUE(sameRead(b.reads()[i], s[i])) << i;

  const double t0 = s.startTime() + rng.uniform(-0.1, 1.0) * s.durationS();
  const double t1 = t0 + rng.uniform(-0.1, 0.5) * s.durationS();
  const reader::SampleStream got = b.slice(t0, t1);
  const reader::SampleStream want = s.slice(t0, t1);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.numTags(), want.numTags());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const reader::TagReport& r = got[i];
    ASSERT_TRUE(sameRead({r.time_s, r.phase_rad, r.rssi_dbm, r.channel_mhz,
                          r.tag_index, r.imputed},
                         want[i]));
    // The fields recognition never reads take their defaults.
    const reader::TagReport defaults;
    ASSERT_TRUE(r.epc == defaults.epc);
    ASSERT_EQ(r.antenna_id, defaults.antenna_id);
    ASSERT_TRUE(sameBits(r.doppler_hz, defaults.doppler_hz));
  }
}

/// One pass of the streaming state, compared with a whole-buffer pass over
/// the mirror.  Both use the same scratch, so the state cannot lean on
/// anything left in it.
void expectMatchesBatch(Mirrored& m, SegmentScratch& scratch, Rng& rng,
                        int step) {
  SCOPED_TRACE(::testing::Message() << "step " << step << ", "
                                    << m.mirror.size() << " reports");
  expectBufferMatchesMirror(m, rng);
  if (::testing::Test::HasFatalFailure()) return;
  std::vector<double> intervals;
  for (const Interval& iv : m.seg.segmentWith(scratch)) {
    intervals.push_back(iv.t0);
    intervals.push_back(iv.t1);
  }
  std::vector<double> want_intervals;
  for (const Interval& iv : m.seg.segmenter().segmentWith(m.mirror, scratch)) {
    want_intervals.push_back(iv.t0);
    want_intervals.push_back(iv.t1);
  }
  const SegmentationTrace& got = m.seg.trace();
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
  int reordered = 0;
  int duplicates = 0;
  int invalid = 0;
};

void runRandomOps(const SegmenterOptions& options, std::uint64_t seed,
                  Coverage& cov) {
  Rng rng(seed);
  Mirrored m{StreamSegmenter(neutralProfile(), options), reader::SampleStream()};
  SegmentScratch scratch;
  double clock = 0.0;  // newest in-order report time
  auto count = [&](reader::PushOutcome outcome) {
    cov.reordered += outcome == reader::PushOutcome::kReordered ? 1 : 0;
    cov.duplicates += outcome == reader::PushOutcome::kDuplicate ? 1 : 0;
    cov.invalid += outcome == reader::PushOutcome::kInvalid ? 1 : 0;
  };
  for (int step = 0; step < 1500; ++step) {
    const reader::SampleStream& s = m.mirror;
    // The extra tag first reports mid-sequence, growing the tag set.
    const int tags = step < 400 ? kProfileTags : kStreamTags;
    auto readAt = [&](Rng& r, double t) { return core::readAt(r, t, tags); };
    const double op = rng.uniform();
    if (op < 0.55 || s.empty()) {
      // In-order appends, ~250 reads/s over the array.
      for (std::int64_t k = rng.uniformInt(1, 40); k > 0; --k) {
        clock += rng.exponential(0.004);
        count(m.push(readAt(rng, clock)));
      }
    } else if (op < 0.65) {
      // Bounded out-of-order arrival, within 0.6 s of the newest report.
      const double t = std::max(s.startTime(), s.endTime() - rng.uniform(0.0, 0.6));
      count(m.push(readAt(rng, t)));
    } else if (op < 0.70) {
      const reader::TagReport dup = s[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(s.size()) - 1))];
      EXPECT_EQ(m.push(dup), reader::PushOutcome::kDuplicate);
      ++cov.duplicates;
    } else if (op < 0.72) {
      // A read with a non-finite timestamp (a corrupted wire clock).
      reader::TagReport bad = readAt(rng, clock);
      bad.time_s = rng.chance(0.5) ? std::numeric_limits<double>::quiet_NaN()
                                   : std::numeric_limits<double>::infinity();
      count(m.push(bad));
    } else if (op < 0.75) {
      m.dropBefore(s.startTime() + rng.uniform(0.0, 0.6) * s.durationS());
    } else if (op < 0.79) {
      // Trim at a frame centre of the current grid.
      const double frames = std::ceil(s.durationS() / options.frame_s);
      const double f = std::floor(rng.uniform(0.0, frames));
      m.dropBefore(s.startTime() + (f + 0.5) * options.frame_s);
    } else if (op < 0.82) {
      const double t = s.startTime() - rng.uniform(0.01, 0.3);
      if (t >= 0.0) {
        EXPECT_EQ(m.push(readAt(rng, t)), reader::PushOutcome::kReordered);
      }
    } else if (op < 0.83) {
      // A reader resuming after a long pause (OnlineRecognizer accepts such
      // a jump once a second report corroborates it).
      clock += 30.0;
      count(m.push(readAt(rng, clock)));
      clock += 0.01;
      count(m.push(readAt(rng, clock)));
    } else if (op < 0.84) {
      // Empty the buffer, then refill it from exactly its old start, so
      // the new first report sits where the old grid was anchored.
      const double start = s.startTime();
      m.dropBefore(s.endTime() + 1.0);
      clock = start;
      count(m.push(readAt(rng, clock)));
    }
    // Keep the buffer near an online horizon, as OnlineRecognizer does.
    if (!s.empty() && s.durationS() > 8.0) m.dropBefore(s.endTime() - 5.0);
    if (rng.chance(0.6)) {
      expectMatchesBatch(m, scratch, rng, step);
      if (::testing::Test::HasFatalFailure()) return;
      cov.intervals += static_cast<int>(scratch.merged.size());
      cov.partial_passes += m.seg.work().last_full ? 0 : 1;
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
      // The sequence must have exercised strokes, incremental passes and
      // every push outcome.
      EXPECT_GT(cov.intervals, 0);
      EXPECT_GT(cov.partial_passes, 100);
      EXPECT_GT(cov.reordered, 0);
      EXPECT_GT(cov.duplicates, 0);
      EXPECT_GT(cov.invalid, 0);
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
