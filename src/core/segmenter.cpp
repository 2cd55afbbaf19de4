#include "core/segmenter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/stats.hpp"
#include "common/vkernels.hpp"
#include "core/report_buffer.hpp"

namespace rfipad::core {

Segmenter::Segmenter(StaticProfile profile, SegmenterOptions options)
    : profile_(std::move(profile)), options_(options) {
  if (options.frame_s <= 0.0)
    throw std::invalid_argument("Segmenter: non-positive frame length");
  if (options.window_frames < 2)
    throw std::invalid_argument("Segmenter: window needs >= 2 frames");
}

SegmentationTrace Segmenter::trace(const reader::SampleStream& stream) const {
  SegmentScratch scratch;
  traceInto(stream, scratch);
  return std::move(scratch.trace);
}

const SegmentationTrace& Segmenter::traceInto(const reader::SampleStream& stream,
                                              SegmentScratch& scratch) const {
  SegmentationTrace& tr = scratch.trace;
  tr.frame_times.clear();
  tr.frame_rms.clear();
  tr.window_times.clear();
  tr.window_std.clear();
  tr.window_peak.clear();
  tr.threshold_used = 0.0;
  if (stream.empty()) return tr;

  const double t0 = stream.startTime();
  const FrameRange range{t0, numFrames(t0, stream.endTime()), 0, 0};
  FrameCarry& carry = scratch.carry;
  carry.first = carry.end = 0;
  carry.seeds.assign(stream.numTags(), UnwrapSeed{});
  frameRange(stream.reports(), range, carry, scratch, tr);
  windowRange(range, scratch, tr);
  tr.threshold_used = resolveThreshold(tr.window_std, scratch.sorted);
  return tr;
}

std::size_t Segmenter::numFrames(double t0, double t1) const {
  // Reports are kept time-sorted and finite; the frame math (bucket index
  // = (t - t0)/frame_s) is only meaningful under that invariant.
  RFIPAD_INVARIANT(t1 >= t0, "stream end precedes its start");
  return static_cast<std::size_t>(
      std::max(1, static_cast<int>(std::ceil((t1 - t0) / options_.frame_s))));
}

std::size_t Segmenter::frameOf(double t, double t0,
                               std::size_t num_frames) const {
  const int g = static_cast<int>((t - t0) / options_.frame_s);
  return static_cast<std::size_t>(
      std::clamp(g, 0, static_cast<int>(num_frames) - 1));
}

template <class Read>
void Segmenter::frameRange(std::span<const Read> reports,
                           const FrameRange& range, FrameCarry& carry,
                           SegmentScratch& scratch,
                           SegmentationTrace& tr) const {
  RFIPAD_INVARIANT(range.first <= range.dirty && range.dirty < range.num_frames,
                   "dirty frames must lie inside the pass");
  RFIPAD_INVARIANT(carry.first == range.first && carry.end <= range.dirty,
                   "the carry must cover the pass's clean frames from its first");
  // Bucket the samples by (tag, frame) into one flat plane: tag-major, and
  // time-ordered inside each tag (reports arrive time-sorted and the frame
  // index is monotone in time).  starts[i·(G+1) + g] is where tag i's
  // samples of frame first+g begin (G = the pass's frame count), so every
  // (tag, frame) bucket — and every (tag, window) pool, [g, g+w) — is one
  // contiguous slice of `theta`.  The bucket counts (carried ones, then a
  // count pass over the reports) and an inclusive prefix sum over the
  // tag-major table place the buckets; the carried samples are copied in
  // and a scatter pass fills in the reports.
  const std::size_t num_tags = carry.seeds.size();
  const std::size_t G = range.num_frames - range.first;
  const std::size_t row = G + 1;
  const std::size_t carried = carry.end - carry.first;
  std::vector<std::size_t>& starts = scratch.starts;
  std::vector<std::uint32_t>& frame_of = scratch.frame_of;
  starts.assign(num_tags * row, 0);
  for (std::size_t i = 0; i < num_tags; ++i)
    std::copy_n(carry.counts.data() + i * carried, carried,
                starts.data() + i * row + 1);
  frame_of.resize(reports.size());
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const Read& r = reports[k];
    RFIPAD_INVARIANT(r.tag_index < num_tags, "report tag outside the pass");
    const std::size_t g =
        frameOf(r.time_s, range.t0, range.num_frames) - range.first;
    RFIPAD_INVARIANT(g >= carried && g < G,
                     "report outside the pass's new frames");
    frame_of[k] = static_cast<std::uint32_t>(g);
    ++starts[r.tag_index * row + g + 1];
  }
  std::partial_sum(starts.begin(), starts.end(), starts.begin());
  std::vector<double>& theta = scratch.theta;
  theta.resize(starts.empty() ? 0 : starts.back());
  const double* carried_theta = carry.theta.data();
  for (std::size_t i = 0; i < num_tags; ++i) {
    const std::size_t* bounds = starts.data() + i * row;
    const std::size_t n = bounds[carried] - bounds[0];
    std::copy_n(carried_theta, n, theta.data() + bounds[0]);
    carried_theta += n;
  }
  std::vector<std::size_t>& cursor = scratch.cursor;
  cursor.assign(starts.begin(), starts.end());
  for (std::size_t k = 0; k < reports.size(); ++k) {
    const Read& r = reports[k];
    theta[cursor[r.tag_index * row + frame_of[k]]++] = r.phase_rad;
  }

  // The next pass redoes this pass's last frame, and its windows reach
  // window_frames − 1 frames further back.
  const std::size_t w = static_cast<std::size_t>(options_.window_frames);
  const std::size_t next_end = range.num_frames - 1;
  const std::size_t next_first = next_end >= w - 1 ? next_end - (w - 1) : 0;

  // Calibrate (Eq. 8) and unwrap each tag's new samples in place,
  // continuing from its seed; keep the seed at the start of frame next_end.
  for (std::size_t i = 0; i < num_tags; ++i) {
    const double mean_phase =
        i < profile_.numTags()
            ? profile_.tag(static_cast<std::uint32_t>(i)).mean_phase
            : 0.0;
    UnwrapSeed& seed = carry.seeds[i];
    auto calibrate = [&](std::size_t j0, std::size_t j1) {
      for (std::size_t j = j0; j < j1; ++j) {
        const double raw = angleDiff(theta[j], mean_phase);
        if (seed.primed) {
          theta[j] = seed.unwrap.next(raw);
        } else {
          seed = {PhaseUnwrapper{raw}, true};
          theta[j] = raw;
        }
      }
    };
    const std::size_t* bounds = starts.data() + i * row;
    calibrate(bounds[carried], bounds[next_end - range.first]);
    const UnwrapSeed at_next_end = seed;
    calibrate(bounds[next_end - range.first], bounds[G]);
    seed = at_next_end;
  }

  // The carry for the next pass: frames [next_first, next_end).
  const std::size_t g0 = next_first - range.first;
  const std::size_t g1 = next_end - range.first;
  carry.first = next_first;
  carry.end = next_end;
  carry.counts.resize(num_tags * (g1 - g0));
  carry.theta.clear();
  for (std::size_t i = 0; i < num_tags; ++i) {
    const std::size_t* bounds = starts.data() + i * row;
    for (std::size_t g = g0; g < g1; ++g)
      carry.counts[i * (g1 - g0) + (g - g0)] =
          static_cast<std::uint32_t>(bounds[g + 1] - bounds[g]);
    carry.theta.insert(carry.theta.end(), theta.data() + bounds[g0],
                       theta.data() + bounds[g1]);
  }

  // Eq. 11: rms(f) = Σ_i sqrt(Σ_j p_ij² / n).  For the spatial-peakiness
  // refinement we use the per-tag RMS of *successive differences* (motion
  // energy) so a tag merely holding a phase offset does not count.
  tr.frame_times.resize(range.num_frames);
  tr.frame_rms.resize(range.num_frames);
  for (std::size_t f = range.dirty; f < range.num_frames; ++f) {
    const std::size_t g = f - range.first;
    double sum = 0.0;
    for (std::size_t i = 0; i < num_tags; ++i) {
      const std::size_t* bounds = starts.data() + i * row;
      const std::size_t len = bounds[g + 1] - bounds[g];
      if (len > 0) sum += rms(theta.data() + bounds[g], len);
    }
    tr.frame_times[f] =
        range.t0 + (static_cast<double>(f) + 0.5) * options_.frame_s;
    tr.frame_rms[f] = sum;
  }
}

template void Segmenter::frameRange(std::span<const reader::TagReport>,
                                    const FrameRange&, FrameCarry&,
                                    SegmentScratch&, SegmentationTrace&) const;
template void Segmenter::frameRange(std::span<const BufferedRead>,
                                    const FrameRange&, FrameCarry&,
                                    SegmentScratch&, SegmentationTrace&) const;

void Segmenter::windowRange(const FrameRange& range,
                            const SegmentScratch& scratch,
                            SegmentationTrace& tr) const {
  // Sliding window of `window_frames` frames, stride one frame.  The
  // per-window spatial peak pools each tag's samples across the whole
  // window (frames alone hold too few reads for a stable estimate); the
  // pooled first-difference RMS reduces over the contiguous slice via the
  // dispatched Σ(Δx)² kernel without materialising the diffs.
  const int w = options_.window_frames;
  const std::size_t uw = static_cast<std::size_t>(w);
  const std::size_t num_windows =
      range.num_frames >= uw ? range.num_frames - uw + 1 : 0;
  tr.window_times.resize(num_windows);
  tr.window_std.resize(num_windows);
  tr.window_peak.resize(num_windows);
  const std::size_t first_window = range.dirty >= uw ? range.dirty - uw + 1 : 0;
  RFIPAD_INVARIANT(first_window >= range.first || num_windows == 0,
                   "window pools must lie inside the pass's planes");
  const std::size_t row = range.num_frames - range.first + 1;
  const std::size_t num_tags = scratch.starts.size() / row;
  for (std::size_t f = first_window; f < num_windows; ++f) {
    const std::size_t g = f - range.first;
    tr.window_times[f] =
        range.t0 + (static_cast<double>(f) + w / 2.0) * options_.frame_s;
    tr.window_std[f] = stddev(tr.frame_rms.data() + f, uw);
    double peak = 0.0;
    for (std::size_t i = 0; i < num_tags; ++i) {
      const std::size_t* bounds = scratch.starts.data() + i * row;
      const std::size_t len = bounds[g + uw] - bounds[g];
      if (len >= 3) {
        const double ssd =
            vk::sumSquaredDiffs(scratch.theta.data() + bounds[g], len);
        peak = std::max(peak, std::sqrt(ssd / static_cast<double>(len - 1)));
      }
    }
    tr.window_peak[f] = peak;
  }
}

double Segmenter::resolveThreshold(const std::vector<double>& window_std,
                                   std::vector<double>& sort_buffer) const {
  if (options_.threshold > 0.0) return options_.threshold;
  if (window_std.empty()) return options_.adaptive_floor;
  sort_buffer.assign(window_std.begin(), window_std.end());
  const double floor_est = percentileInPlace(sort_buffer, 20.0);
  return std::max(options_.adaptive_floor,
                  options_.adaptive_factor * floor_est);
}

std::vector<Interval> Segmenter::segment(const reader::SampleStream& stream) const {
  SegmentScratch scratch;
  return segmentWith(stream, scratch);
}

const std::vector<Interval>& Segmenter::segmentWith(
    const reader::SampleStream& stream, SegmentScratch& scratch) const {
  return intervalsFrom(traceInto(stream, scratch), scratch);
}

const std::vector<Interval>& Segmenter::intervalsFrom(
    const SegmentationTrace& tr, SegmentScratch& scratch) const {
  std::vector<Interval>& intervals = scratch.intervals;
  std::vector<Interval>& merged = scratch.merged;
  intervals.clear();
  merged.clear();
  if (tr.window_std.empty()) return merged;
  const double thr = tr.threshold_used;
  const double half_window = options_.window_frames * options_.frame_s / 2.0;

  // Collect active windows as intervals, then merge.  Each active window
  // contributes only its centre frame: padding by the full half-window
  // would bridge the short adjustment gaps between letter strokes.
  bool open = false;
  Interval cur;
  for (std::size_t i = 0; i < tr.window_std.size(); ++i) {
    const bool active = tr.window_std[i] > thr;
    const double w0 = tr.window_times[i] - options_.frame_s / 2.0;
    const double w1 = tr.window_times[i] + options_.frame_s / 2.0;
    if (active && !open) {
      cur = {w0, w1};
      open = true;
    } else if (active && open) {
      cur.t1 = w1;
    } else if (!active && open) {
      intervals.push_back(cur);
      open = false;
    }
  }
  if (open) intervals.push_back(cur);

  // Merge near-adjacent intervals, and intervals whose separating gap
  // never becomes properly quiet (hysteresis: a lull inside one stroke).
  const double off_thr = options_.off_fraction * thr;
  auto gapIsQuiet = [&](double g0, double g1) {
    for (std::size_t i = 0; i < tr.window_std.size(); ++i) {
      const double t = tr.window_times[i];
      if (t < g0 || t > g1) continue;
      if (tr.window_std[i] <= off_thr) return true;
    }
    return false;
  };
  for (const Interval& iv : intervals) {
    const bool near = !merged.empty() &&
                      iv.t0 - merged.back().t1 < options_.merge_gap_s;
    const bool loud_gap = !merged.empty() &&
                          !gapIsQuiet(merged.back().t1, iv.t0);
    if (near || loud_gap) {
      merged.back().t1 = iv.t1;
    } else {
      merged.push_back(iv);
    }
  }

  // Spatial-peakiness refinement: keep the span where at least one tag
  // shows strong motion energy (hand at writing height).  An interval with
  // *no* such window is a far-hand transition (approach/retract with the
  // arm raised), not a stroke — drop it entirely.  The pre-merge list is
  // dead at this point, so it doubles as the kept-interval buffer.
  if (options_.peak_threshold > 0.0) {
    std::vector<Interval>& kept = intervals;
    kept.clear();
    for (const Interval& iv : merged) {
      double core0 = iv.t1, core1 = iv.t0;
      for (std::size_t i = 0; i < tr.window_peak.size(); ++i) {
        const double t = tr.window_times[i];
        if (t < iv.t0 - half_window || t > iv.t1 + half_window) continue;
        if (tr.window_peak[i] < options_.peak_threshold) continue;
        core0 = std::min(core0, t - half_window);
        core1 = std::max(core1, t + half_window);
      }
      if (core1 > core0)
        kept.push_back({std::max(core0, iv.t0 - half_window),
                        std::min(core1, iv.t1 + half_window)});
    }
    std::swap(merged, kept);
  }

  // Core refinement: shrink each interval to the span where window std
  // reaches a fraction of its in-interval peak.
  if (options_.core_fraction > 0.0) {
    for (Interval& iv : merged) {
      double peak = 0.0;
      for (std::size_t i = 0; i < tr.window_std.size(); ++i) {
        if (tr.window_times[i] >= iv.t0 && tr.window_times[i] <= iv.t1)
          peak = std::max(peak, tr.window_std[i]);
      }
      const double gate = std::max(thr, options_.core_fraction * peak);
      double core0 = iv.t1, core1 = iv.t0;
      for (std::size_t i = 0; i < tr.window_std.size(); ++i) {
        const double t = tr.window_times[i];
        if (t < iv.t0 || t > iv.t1 || tr.window_std[i] < gate) continue;
        core0 = std::min(core0, t - half_window);
        core1 = std::max(core1, t + half_window);
      }
      if (core1 > core0) iv = {core0, core1};
    }
  }

  // Refinement can expand adjacent intervals into overlap; clamp so the
  // output is strictly ordered and disjoint.
  for (std::size_t i = 1; i < merged.size(); ++i) {
    if (merged[i].t0 < merged[i - 1].t1) merged[i].t0 = merged[i - 1].t1;
    RFIPAD_INVARIANT(merged[i].t0 >= merged[i - 1].t1,
                     "segment intervals must stay disjoint after clamping");
  }

  // Length gate, in place (erase-remove keeps the buffer's capacity).
  merged.erase(std::remove_if(merged.begin(), merged.end(),
                              [&](const Interval& iv) {
                                return iv.duration() < options_.min_stroke_s;
                              }),
               merged.end());
  return merged;
}

}  // namespace rfipad::core
