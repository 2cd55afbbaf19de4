#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/templates.hpp"
#include "imgproc/binary_map.hpp"

namespace rfipad::core {

namespace {

/// Replace each dead tag's cell by the mean of its live in-bounds
/// 8-neighbours (0 when every neighbour is also dead).
void inpaintDeadCells(imgproc::GrayMap& map, const StaticProfile& profile,
                      int rows, int cols) {
  for (std::uint32_t i = 0; i < profile.numTags(); ++i) {
    if (!profile.tag(i).dead) continue;
    const int r = static_cast<int>(i) / cols;
    const int c = static_cast<int>(i) % cols;
    double sum = 0.0;
    int n = 0;
    for (int dr = -1; dr <= 1; ++dr) {
      for (int dc = -1; dc <= 1; ++dc) {
        if (dr == 0 && dc == 0) continue;
        const int nr = r + dr;
        const int nc = c + dc;
        if (nr < 0 || nr >= rows || nc < 0 || nc >= cols) continue;
        const auto ni = static_cast<std::uint32_t>(nr * cols + nc);
        if (ni < profile.numTags() && profile.tag(ni).dead) continue;
        sum += map.at(nr, nc);
        ++n;
      }
    }
    map.at(r, c) = n > 0 ? sum / n : 0.0;
  }
}

}  // namespace

RecognitionEngine::RecognitionEngine(StaticProfile profile, EngineOptions options)
    : profile_(std::move(profile)), options_(std::move(options)) {
  if (options_.rows <= 0 || options_.cols <= 0)
    throw std::invalid_argument("RecognitionEngine: non-positive grid");
  const std::size_t n =
      static_cast<std::size_t>(options_.rows) * options_.cols;
  if (profile_.numTags() != n)
    throw std::invalid_argument("RecognitionEngine: profile/grid size mismatch");
  if (!options_.tag_xy.empty() && options_.tag_xy.size() != n)
    throw std::invalid_argument("RecognitionEngine: tag_xy size mismatch");
  tag_xy_ = options_.tag_xy;
  if (tag_xy_.empty()) {
    // Unit grid matching the row-major tag layout.
    tag_xy_.reserve(n);
    for (int r = 0; r < options_.rows; ++r)
      for (int c = 0; c < options_.cols; ++c)
        tag_xy_.push_back({static_cast<double>(c), static_cast<double>(r)});
  }
}

StrokeEvent RecognitionEngine::classifyWindow(
    const reader::SampleStream& window) const {
  const auto start = std::chrono::steady_clock::now();

  const RecoveryConfig& rec = options_.recovery;

  // Recovery stage 1: bridge short per-tag read gaps before imaging, so a
  // miss-read burst does not masquerade as the hand leaving the cell.
  reader::SampleStream imputed;
  const reader::SampleStream* src = &window;
  if (rec.temporal.enabled) {
    imputed = reader::imputeGaps(window, rec.temporal);
    src = &imputed;
  }

  StrokeEvent ev{.interval = {src->startTime(), src->endTime()},
                 .observation = {},
                 .direction = {},
                 .graymap = activationImage(*src, profile_, options_.rows,
                                            options_.cols, options_.activation),
                 .processing_time_s = 0.0};

  // Recovery stage 2: per-cell observation confidence, consumed by spatial
  // inpainting and the weighted Otsu/NCC below.
  const bool use_conf = rec.confidence.enabled || rec.spatial.enabled;
  imgproc::GrayMap conf(options_.rows, options_.cols, 1.0);
  if (use_conf)
    conf = observationConfidence(*src, profile_, options_.rows, options_.cols,
                                 rec.confidence);

  const bool inpaint = options_.inpaint_dead && profile_.deadCount() > 0;
  if (rec.spatial.enabled) {
    // Recovery stage 3 generalises the dead-cell patch: any low-confidence
    // cell (dead cells score exactly 0) is rebuilt from confident
    // neighbours, so the legacy pass below is subsumed.
    inpaintLowConfidence(ev.graymap, conf, rec.spatial);
  } else if (inpaint) {
    inpaintDeadCells(ev.graymap, profile_, options_.rows, options_.cols);
  }

  const imgproc::BinaryMap binary =
      rec.confidence.enabled ? imgproc::otsuBinarizeWeighted(ev.graymap, conf)
                             : imgproc::otsuBinarize(ev.graymap);

  if (options_.use_matched_filter) {
    // RSS troughs across all tags: deep troughs mark the visited cells and
    // build the second (sharper) image for fused template matching.
    ev.direction = estimateDirection(*src, effectiveTagXy(), {},
                                     options_.direction);
    imgproc::GrayMap trough_map(options_.rows, options_.cols);
    double max_depth = 0.0;
    for (const auto& tr : ev.direction.ordered)
      max_depth = std::max(max_depth, tr.depth_db);
    for (const auto& tr : ev.direction.ordered) {
      if (tr.depth_db < 0.35 * max_depth) continue;
      trough_map.at(static_cast<int>(tr.tag_index) / options_.cols,
                    static_cast<int>(tr.tag_index) % options_.cols) =
          tr.depth_db;
    }
    if (rec.spatial.enabled) {
      inpaintLowConfidence(trough_map, conf, rec.spatial);
    } else if (inpaint) {
      inpaintDeadCells(trough_map, profile_, options_.rows, options_.cols);
    }

    const TemplateMatch match =
        rec.confidence.enabled
            ? matchTemplateFusedWeighted(ev.graymap, trough_map,
                                         options_.trough_weight, conf,
                                         TemplateLibrary::standard5x5(),
                                         options_.template_match)
            : matchTemplateFused(ev.graymap, trough_map,
                                 options_.trough_weight,
                                 TemplateLibrary::standard5x5(),
                                 options_.template_match);
    if (match.valid) {
      StrokeDir dir = StrokeDir::kForward;
      const double travel_conf =
          resolveTravel(*match.shape, ev.direction.ordered, options_.cols, &dir);

      auto& obs = ev.observation;
      obs.valid = true;
      obs.stroke = {match.shape->kind,
                    match.shape->kind == StrokeKind::kClick ? StrokeDir::kForward
                                                            : dir};
      obs.confidence = std::max(0.0, match.score) *
                       (0.5 + 0.5 * travel_conf);
      for (const imgproc::Cell& c : binary.largestComponent().foreground())
        obs.cells.push_back(c);
      if (!obs.cells.empty()) obs.moments = imgproc::computeMoments(obs.cells);
      const bool fwd = dir == StrokeDir::kForward;
      obs.start_cell = fwd ? match.shape->start : match.shape->end;
      obs.end_cell = fwd ? match.shape->end : match.shape->start;
      Vec2 centroid{};
      for (const Vec2& p : match.shape->path) centroid = centroid + p;
      obs.centroid = centroid / static_cast<double>(match.shape->path.size());
    }
  } else {
    // Ablation path: moments-based classification on the Otsu image.
    std::vector<std::uint32_t> candidates;
    for (const imgproc::Cell& c : binary.foreground()) {
      candidates.push_back(
          static_cast<std::uint32_t>(c.row * options_.cols + c.col));
    }
    ev.direction = estimateDirection(*src, effectiveTagXy(), candidates,
                                     options_.direction);
    ev.observation = classifyStrokeBinary(binary, ev.direction,
                                          options_.classifier);
  }

  ev.processing_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return ev;
}

std::vector<StrokeEvent> RecognitionEngine::detectStrokes(
    const reader::SampleStream& stream) const {
  // Impute the whole capture before segmentation: a miss-read burst inside
  // a stroke otherwise splits one window into two.  classifyWindow's own
  // imputation pass then finds the slice already gap-free (bridged gaps sit
  // under the jitter threshold) and leaves it unchanged.
  reader::SampleStream imputed;
  const reader::SampleStream* src = &stream;
  if (options_.recovery.temporal.enabled) {
    imputed = reader::imputeGaps(stream, options_.recovery.temporal);
    src = &imputed;
  }
  const Segmenter segmenter(profile_, options_.segmenter);
  std::vector<StrokeEvent> events;
  for (const Interval& iv : segmenter.segment(*src)) {
    const double trim = std::min(options_.window_trim_s, 0.25 * iv.duration());
    StrokeEvent ev = classifyWindow(src->slice(iv.t0 + trim, iv.t1 - trim));
    ev.interval = iv;
    if (ev.observation.valid) events.push_back(std::move(ev));
  }
  return events;
}

ObservedStroke RecognitionEngine::toObserved(const StrokeEvent& event) {
  return ObservedStroke{event.observation.stroke.kind,
                        event.observation.stroke.dir,
                        event.observation.start_cell,
                        event.observation.end_cell,
                        event.observation.centroid};
}

namespace {

/// Shared stroke filtering for letter composition.  Transition residues
/// occasionally survive segmentation; they are short *and* weakly matched,
/// while genuine letter strokes are neither (the separation is wide:
/// spurious p90 conf 0.41 / 0.9 s vs real p10 conf 0.40 / 1.15 s).
void observedSequence(const std::vector<StrokeEvent>& events,
                      std::vector<ObservedStroke>* observed,
                      std::vector<double>* confidences) {
  std::vector<const StrokeEvent*> kept;
  for (const auto& ev : events) {
    const bool weak = ev.observation.confidence < 0.35 &&
                      ev.interval.duration() < 0.95;
    if (!weak) kept.push_back(&ev);
  }
  if (kept.empty()) {
    for (const auto& ev : events) kept.push_back(&ev);
  }
  observed->reserve(kept.size());
  confidences->reserve(kept.size());
  for (const auto* ev : kept) {
    observed->push_back(RecognitionEngine::toObserved(*ev));
    confidences->push_back(ev->observation.confidence);
  }
}

}  // namespace

char RecognitionEngine::recognizeLetter(
    const std::vector<StrokeEvent>& events) const {
  std::vector<ObservedStroke> observed;
  std::vector<double> confidences;
  observedSequence(events, &observed, &confidences);
  // Exact sequence first; otherwise weighted edit-distance decoding that
  // tolerates stroke confusions, splits and missed strokes (extension
  // beyond the paper's exact tree lookup; see DESIGN.md §5).
  return LetterGrammar::instance().recognizeRobust(observed, confidences);
}

std::vector<LetterGrammar::LetterHypothesis>
RecognitionEngine::letterHypotheses(
    const std::vector<StrokeEvent>& events) const {
  std::vector<ObservedStroke> observed;
  std::vector<double> confidences;
  observedSequence(events, &observed, &confidences);
  const LetterDecodeOptions& d = options_.recovery.decode;
  const std::size_t k = d.enabled ? d.top_k : LetterDecodeOptions{}.top_k;
  const double max_cost = d.enabled ? d.max_cost : LetterDecodeOptions{}.max_cost;
  return LetterGrammar::instance().topKLetters(observed, confidences, k,
                                               max_cost);
}

char RecognitionEngine::recognizeLetter(const reader::SampleStream& stream) const {
  return recognizeLetter(detectStrokes(stream));
}

}  // namespace rfipad::core
