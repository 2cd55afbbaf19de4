// Online (streaming) recognition.
//
// The batch RecognitionEngine assumes a complete capture; a deployment
// receives LLRP reports one at a time and must react "instantly" (§I).
// OnlineRecognizer buffers reports in a StreamSegmenter, re-segments the
// changed tail of the (bounded) buffer as time advances, and emits a
// StrokeEvent as soon as a stroke window has been quiet for
// `close_after_s` — the latency the paper measures in Fig. 24.  When the
// pad stays quiet for `letter_gap_s` after one or more strokes, they are
// composed into a letter.
#pragma once

#include <functional>
#include <vector>

#include "core/engine.hpp"
#include "core/segmenter.hpp"
#include "core/stream_segmenter.hpp"

namespace rfipad::core {

struct OnlineOptions {
  EngineOptions engine{};
  /// A stroke window is final once this much quiet follows it.
  double close_after_s = 0.45;
  /// Re-run segmentation at most this often (simulated time).
  double process_interval_s = 0.15;
  /// Quiet gap that ends a letter (the user dropped the hand).
  double letter_gap_s = 1.9;
  /// Buffer horizon; reports older than this behind the newest are dropped
  /// once consumed.
  double buffer_horizon_s = 12.0;
};

// OnlineStats (the input-hygiene counters stats() returns) lives in
// core/metrics.hpp so reporting code can use it without this header.

class OnlineRecognizer {
 public:
  using StrokeCallback = std::function<void(const StrokeEvent&)>;
  using LetterCallback =
      std::function<void(char, const std::vector<StrokeEvent>&)>;

  OnlineRecognizer(StaticProfile profile, OnlineOptions options = {});

  void onStroke(StrokeCallback cb) { stroke_cb_ = std::move(cb); }
  void onLetter(LetterCallback cb) { letter_cb_ = std::move(cb); }

  /// Buffer one report.  Tolerates real-transport untidiness: bounded
  /// out-of-order arrivals are reinserted at their timestamp, exact
  /// duplicates are dropped, and reports with non-finite/negative times,
  /// non-finite phase/RSSI or an out-of-range tag index are rejected with a
  /// counted drop (see stats()) instead of corrupting recognition state.
  /// Returns true when a segmentation pass is due: the caller then runs it
  /// with processDue() and its scratch.  This is how the session serving
  /// layer shares one SegmentScratch across every co-resident session on a
  /// shard.
  bool offer(const reader::TagReport& report);
  /// Run the segmentation pass recorded by offer() (no-op when none is
  /// pending).  The scratch holds only per-pass buffers; everything kept
  /// between passes lives in this recogniser.
  void processDue(SegmentScratch& scratch);

  /// End of input: finalise any pending stroke and letter.
  void flushWith(SegmentScratch& scratch);

  /// Input hygiene counters (see core/metrics.hpp; format with
  /// formatOnlineStats for reporting).
  const OnlineStats& stats() const { return stats_; }

  /// The wrapped batch engine (letter-hypothesis decoding, options
  /// inspection).
  const RecognitionEngine& engine() const { return engine_; }
  /// The report buffer and its streaming segmentation state.
  const StreamSegmenter& segmentation() const { return segmentation_; }

 private:
  void process(double now, bool flushing, SegmentScratch& scratch);
  void maybeEmitLetter(double now, bool flushing);

  RecognitionEngine engine_;
  OnlineOptions options_;
  StrokeCallback stroke_cb_;
  LetterCallback letter_cb_;

  /// The report buffer plus what segmentation keeps between passes.
  StreamSegmenter segmentation_;
  /// Set by offer() when a segmentation pass is due; cleared by
  /// processDue().
  bool process_pending_ = false;
  OnlineStats stats_;
  /// Sentinel threshold: clocks below this are "not yet initialised".
  static constexpr double kClockUnset = -1e17;
  /// Newest report time seen — the recogniser clock.  A late (out-of-order)
  /// report must not rewind it.
  double watermark_ = -1e18;
  /// Forward-jump corroboration state: a report beyond the buffer horizon
  /// of the watermark is held here until a second report agrees with it.
  bool future_pending_ = false;
  double future_candidate_ = 0.0;
  double last_process_ = -1e18;
  /// Everything before this reader-clock time has been consumed.
  double consumed_until_ = -1e18;
  /// End of the most recent segmented activity (even if not yet closed).
  double last_activity_end_ = -1e18;

  std::vector<StrokeEvent> letter_pending_;
};

}  // namespace rfipad::core
