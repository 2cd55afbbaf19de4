// The end-to-end RFIPad recognition engine: segmentation → activation
// imaging → Otsu → stroke classification → direction estimation → letter
// composition.  This is the public entry point a deployment would use.
#pragma once

#include <vector>

#include "core/activation.hpp"
#include "core/direction.hpp"
#include "core/grammar.hpp"
#include "core/metrics.hpp"
#include "core/recovery.hpp"
#include "core/segmenter.hpp"
#include "core/static_profile.hpp"
#include "core/stroke_classifier.hpp"
#include "core/templates.hpp"
#include "imgproc/graymap.hpp"
#include "reader/sample_stream.hpp"

namespace rfipad::core {

struct EngineOptions {
  int rows = 5;
  int cols = 5;
  /// Pad-plane (x, y) position of each tag, row-major tag indexing; used by
  /// the RSS direction estimator.  Leave empty to synthesise a unit grid.
  std::vector<Vec2> tag_xy;
  SegmenterOptions segmenter{};
  ActivationOptions activation{};
  ClassifierOptions classifier{};
  DirectionOptions direction{};
  /// Trim applied to each end of a detected interval before classification
  /// (capped at a quarter of the interval).  Detected windows include the
  /// hand's descent/lift-off transitions, which would otherwise dominate
  /// the endpoint pixels of the activation image.
  double window_trim_s = 0.0;
  /// Use the matched-filter template classifier (core/templates.hpp) as the
  /// primary shape recogniser; disable to fall back to the moments-based
  /// classifier (ablation).
  bool use_matched_filter = true;
  TemplateMatchOptions template_match{};
  /// Weight of the RSS-trough image in fused template matching (0 = phase
  /// activation only).
  double trough_weight = 0.45;
  /// When the profile holds dead tags, fill their grid cells with the mean
  /// of their live 8-neighbours before Otsu/template matching.  A dead
  /// cell's hard zero would otherwise punch a hole through any stroke that
  /// crosses it and skew the Otsu threshold; interpolation lets the
  /// surviving tags carry the shape.  No effect on a fully-live array.
  bool inpaint_dead = true;
  /// Missing-data recovery pipeline (DESIGN.md §9).  Default-constructed
  /// (all stages off), every code path below is byte-exact pre-recovery
  /// behaviour; RecoveryConfig::full() enables temporal + spatial
  /// imputation, confidence weighting and hypothesis decoding.
  RecoveryConfig recovery{};
};

/// One recognised stroke, with everything the pipeline derived about it.
struct StrokeEvent {
  Interval interval;
  StrokeObservation observation;
  DirectionResult direction;
  imgproc::GrayMap graymap;
  /// CPU time spent processing this stroke after its window closed — the
  /// response-time metric of Fig. 24.
  double processing_time_s = 0.0;
};

class RecognitionEngine {
 public:
  RecognitionEngine(StaticProfile profile, EngineOptions options = {});

  const StaticProfile& profile() const { return profile_; }
  const EngineOptions& options() const { return options_; }

  /// Segment the stream and classify every detected stroke window.
  std::vector<StrokeEvent> detectStrokes(const reader::SampleStream& stream) const;

  /// Classify one known stroke window (no segmentation) — the path used by
  /// the motion-detection experiments where each capture holds one motion.
  StrokeEvent classifyWindow(const reader::SampleStream& window) const;

  /// Full letter recognition over a stream containing one letter.
  /// Returns '\0' when no grammar entry matches.
  char recognizeLetter(const reader::SampleStream& stream) const;
  char recognizeLetter(const std::vector<StrokeEvent>& events) const;

  /// Ranked letter hypotheses for one letter's stroke events (best first) —
  /// the per-position input of WordRecognizer::decode.  Uses the recovery
  /// decode options when enabled (top_k / max_cost), sensible defaults
  /// otherwise; hypotheses[0].letter always equals recognizeLetter(events)
  /// when that is non-'\0'.
  std::vector<LetterGrammar::LetterHypothesis> letterHypotheses(
      const std::vector<StrokeEvent>& events) const;

  /// Convert an event into the grammar's observation record.
  static ObservedStroke toObserved(const StrokeEvent& event);

 private:
  /// options_.tag_xy, or a unit grid in row-major tag order when empty;
  /// resolved once by the constructor.
  const std::vector<Vec2>& effectiveTagXy() const { return tag_xy_; }

  StaticProfile profile_;
  EngineOptions options_;
  std::vector<Vec2> tag_xy_;
};

}  // namespace rfipad::core
