#include "reader/sample_stream.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "common/angles.hpp"
#include "common/contracts.hpp"
#include "common/stats.hpp"

namespace rfipad::reader {

namespace {

bool sameRead(const TagReport& a, const TagReport& b) {
  return a.tag_index == b.tag_index && a.time_s == b.time_s &&
         a.phase_rad == b.phase_rad && a.rssi_dbm == b.rssi_dbm;
}

}  // namespace

RFIPAD_HOT_PATH
PushOutcome SampleStream::push(TagReport report) {
  if (!std::isfinite(report.time_s)) {
    ++invalid_count_;
    return PushOutcome::kInvalid;
  }
  if (report.tag_index >= num_tags_) num_tags_ = report.tag_index + 1;
  if (empty() || report.time_s >= reports_.back().time_s) {
    // Fast path: in time order.  An exact re-delivery of the newest report
    // (duplication after a link hiccup) is dropped here.
    if (!empty() && sameRead(report, reports_.back())) {
      ++duplicate_count_;
      return PushOutcome::kDuplicate;
    }
    reports_.push_back(std::move(report));
    return PushOutcome::kAppended;
  }
  // Out-of-order arrival: insert at its timestamp so the time-sorted
  // invariant (slice(), series extraction) survives transport disorder.
  // The insertion never lands before the dropBefore() frontier: at worst
  // it sits at the front of the live window.
  const auto live_begin =
      reports_.begin() + static_cast<std::ptrdiff_t>(front_);
  const auto it = std::upper_bound(
      live_begin, reports_.end(), report.time_s,
      [](double t, const TagReport& r) { return t < r.time_s; });
  for (auto back = it; back != live_begin;) {
    --back;
    if (back->time_s != report.time_s) break;
    if (sameRead(report, *back)) {
      ++duplicate_count_;
      return PushOutcome::kDuplicate;
    }
  }
  ++reorder_count_;
  reports_.insert(it, std::move(report));
  return PushOutcome::kReordered;
}

void SampleStream::dropBefore(double t) {
  RFIPAD_ASSERT(!std::isnan(t), "dropBefore bound must not be NaN");
  const auto live_begin =
      reports_.begin() + static_cast<std::ptrdiff_t>(front_);
  const auto keep = std::lower_bound(
      live_begin, reports_.end(), t,
      [](const TagReport& r, double bound) { return r.time_s < bound; });
  front_ = static_cast<std::size_t>(keep - reports_.begin());
  if (front_ == reports_.size()) {
    reports_.clear();
    front_ = 0;
    return;
  }
  // Compact only once the dead prefix dominates the storage: each erased
  // report then pays for at most two elements moved, keeping the per-drop
  // cost amortised O(1) while the high-water allocation stays bounded by
  // 2× the live window.
  if (front_ >= 64 && front_ * 2 >= reports_.size()) {
    reports_.erase(reports_.begin(),
                   reports_.begin() + static_cast<std::ptrdiff_t>(front_));
    front_ = 0;
  }
}

TagSeries SampleStream::seriesFor(std::uint32_t tagIndex) const {
  TagSeries s;
  s.tag_index = tagIndex;
  const std::size_t n = countFor(tagIndex);
  s.times.reserve(n);
  s.phases.reserve(n);
  s.rssi.reserve(n);
  for (const auto& r : reports()) {
    if (r.tag_index != tagIndex) continue;
    s.times.push_back(r.time_s);
    s.phases.push_back(r.phase_rad);
    s.rssi.push_back(r.rssi_dbm);
  }
  return s;
}

std::vector<TagSeries> SampleStream::allSeries() const {
  std::vector<TagSeries> all(num_tags_);
  std::vector<std::size_t> counts(num_tags_, 0);
  for (const auto& r : reports()) {
    // push() maintains num_tags_ > every stored index; a violation here
    // means the stream was deserialised or spliced by hand incorrectly.
    RFIPAD_INVARIANT(r.tag_index < num_tags_,
                     "stored report index outside the declared tag count");
    ++counts[r.tag_index];
  }
  for (std::uint32_t i = 0; i < num_tags_; ++i) {
    all[i].tag_index = i;
    all[i].times.reserve(counts[i]);
    all[i].phases.reserve(counts[i]);
    all[i].rssi.reserve(counts[i]);
  }
  for (const auto& r : reports()) {
    auto& s = all[r.tag_index];
    s.times.push_back(r.time_s);
    s.phases.push_back(r.phase_rad);
    s.rssi.push_back(r.rssi_dbm);
  }
  return all;
}

FlatSeries SampleStream::flatSeries() const {
  const std::span<const TagReport> live = reports();
  FlatSeries out;
  out.num_tags = num_tags_;
  out.offsets.assign(static_cast<std::size_t>(num_tags_) + 1, 0);
  for (const auto& r : live) {
    RFIPAD_INVARIANT(r.tag_index < num_tags_,
                     "stored report index outside the declared tag count");
    ++out.offsets[r.tag_index + 1];
  }
  for (std::size_t i = 1; i <= num_tags_; ++i) out.offsets[i] += out.offsets[i - 1];
  out.times.resize(live.size());
  out.phases.resize(live.size());
  out.rssi.resize(live.size());
  // Scatter pass: reports are time-sorted, so writing each at its tag's
  // running cursor keeps time order within every tag slice.
  std::vector<std::size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (const auto& r : live) {
    const std::size_t k = cursor[r.tag_index]++;
    out.times[k] = r.time_s;
    out.phases[k] = r.phase_rad;
    out.rssi[k] = r.rssi_dbm;
  }
  return out;
}

std::size_t SampleStream::countFor(std::uint32_t tagIndex) const {
  const std::span<const TagReport> live = reports();
  return static_cast<std::size_t>(
      std::count_if(live.begin(), live.end(),
                    [&](const TagReport& r) { return r.tag_index == tagIndex; }));
}

double SampleStream::readRateHz() const {
  const double d = durationS();
  return d > 0.0 ? static_cast<double>(size()) / d : 0.0;
}

SampleStream SampleStream::slice(double t0, double t1) const {
  RFIPAD_ASSERT(!std::isnan(t0) && !std::isnan(t1),
                "slice bounds must not be NaN");
  if (t1 < t0) return SampleStream(num_tags_);  // inverted window == empty
  // Reports are time-ordered (push() enforces it), so the window is a
  // contiguous range — binary-search the bounds instead of scanning and
  // re-pushing one report at a time.
  const std::span<const TagReport> live = reports();
  const auto lo = std::lower_bound(
      live.begin(), live.end(), t0,
      [](const TagReport& r, double t) { return r.time_s < t; });
  const auto hi = std::lower_bound(
      lo, live.end(), t1,
      [](const TagReport& r, double t) { return r.time_s < t; });
  SampleStream out(num_tags_);
  out.reports_.assign(lo, hi);
  return out;
}

SampleStream SampleStream::filterChannel(double channel_mhz) const {
  SampleStream out(num_tags_);
  for (const auto& r : reports()) {
    if (std::abs(r.channel_mhz - channel_mhz) < 1e-3) out.push(r);
  }
  return out;
}

std::vector<double> SampleStream::channels() const {
  std::vector<double> out;
  for (const auto& r : reports()) {
    bool seen = false;
    for (double c : out) {
      if (std::abs(c - r.channel_mhz) < 1e-3) seen = true;
    }
    if (!seen) out.push_back(r.channel_mhz);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void SampleStream::append(const SampleStream& other) {
  reserve(size() + other.size());
  for (const auto& r : other.reports()) push(r);
}

SampleStream imputeGaps(const SampleStream& in, const GapImputeOptions& options,
                        GapImputeStats* stats) {
  if (stats != nullptr) *stats = GapImputeStats{};
  if (!options.enabled || in.size() < 2 || in.numTags() == 0) return in;
  RFIPAD_ASSERT(std::isfinite(options.max_gap_s) && options.max_gap_s >= 0.0,
                "imputeGaps: max_gap_s must be finite and non-negative");

  // Group report indices by tag — the counting-sort pass of flatSeries(),
  // but over indices so each gap's endpoint TagReports can be copied whole
  // (EPC, antenna, channel) into the synthetic reads.
  const std::span<const TagReport> reports = in.reports();
  const std::uint32_t num_tags = in.numTags();
  std::vector<std::size_t> offsets(static_cast<std::size_t>(num_tags) + 1, 0);
  for (const auto& r : reports) {
    RFIPAD_INVARIANT(r.tag_index < num_tags,
                     "stored report index outside the declared tag count");
    ++offsets[r.tag_index + 1];
  }
  for (std::size_t i = 1; i <= num_tags; ++i) offsets[i] += offsets[i - 1];
  std::vector<std::size_t> index(reports.size());
  {
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t k = 0; k < reports.size(); ++k) {
      index[cursor[reports[k].tag_index]++] = k;
    }
  }

  std::vector<TagReport> synthetic;
  std::vector<double> spacings;  // per-tag scratch
  for (std::uint32_t tag = 0; tag < num_tags; ++tag) {
    const std::size_t begin = offsets[tag];
    const std::size_t end = offsets[tag + 1];
    if (end - begin < 2) continue;
    double dt = options.target_dt_s;
    if (!(dt > 0.0)) {
      spacings.clear();
      for (std::size_t j = begin + 1; j < end; ++j) {
        spacings.push_back(reports[index[j]].time_s -
                           reports[index[j - 1]].time_s);
      }
      // Low-quantile spacing ≈ the clean read rate even under heavy loss:
      // bursty loss widens the upper spacings but leaves runs of
      // back-to-back clean reads at the nominal rate.
      const double q = std::clamp(options.spacing_quantile, 0.0, 1.0);
      const auto pos = static_cast<std::size_t>(
          q * static_cast<double>(spacings.size() - 1));
      std::nth_element(spacings.begin(),
                       spacings.begin() + static_cast<std::ptrdiff_t>(pos),
                       spacings.end());
      dt = spacings[pos];
    }
    if (!(dt > 0.0) || !std::isfinite(dt)) continue;
    for (std::size_t j = begin + 1; j < end; ++j) {
      const TagReport& a = reports[index[j - 1]];
      const TagReport& b = reports[index[j]];
      const double gap = b.time_s - a.time_s;
      // A gap only modestly above the nominal spacing is Gen2 scheduling
      // jitter, not a missed read; require burst-sized headroom before
      // inventing samples (see GapImputeOptions::min_gap_factor).
      if (gap <= options.min_gap_factor * dt) continue;
      if (gap > options.max_gap_s) {
        if (stats != nullptr) ++stats->gaps_too_long;
        continue;
      }
      if (std::abs(a.channel_mhz - b.channel_mhz) > 1e-3) {
        if (stats != nullptr) ++stats->gaps_cross_channel;
        continue;
      }
      const auto want = static_cast<std::size_t>(gap / dt + 0.5);
      const std::size_t k =
          std::min(want > 0 ? want - 1 : std::size_t{0},
                   options.max_inserted_per_gap);
      if (k == 0) continue;
      // Phase travels along the shortest circular arc between the endpoint
      // reads; a real quarter-wavelength of motion inside the gap is lost,
      // which is why max_gap_s must stay short and wide arcs are refused.
      const double arc = angleDiff(b.phase_rad, a.phase_rad);
      if (std::abs(arc) > options.max_arc_rad) {
        if (stats != nullptr) ++stats->gaps_arc_too_wide;
        continue;
      }
      if (stats != nullptr) {
        ++stats->gaps_bridged;
        stats->reports_inserted += k;
      }
      for (std::size_t g = 1; g <= k; ++g) {
        const double u =
            static_cast<double>(g) / static_cast<double>(k + 1);
        TagReport r = a;  // copies EPC / antenna / channel from the earlier end
        r.time_s = a.time_s + u * gap;
        r.phase_rad = wrapTwoPi(a.phase_rad + u * arc);
        r.rssi_dbm = a.rssi_dbm + u * (b.rssi_dbm - a.rssi_dbm);
        r.doppler_hz = 0.0;
        r.imputed = true;
        synthetic.push_back(r);
      }
    }
  }
  if (synthetic.empty()) return in;

  // Deterministic merge: synthetics ordered by (time, tag); std::merge takes
  // from the original range first when neither compares less, so real reads
  // precede synthetic ones at equal timestamps.
  std::sort(synthetic.begin(), synthetic.end(),
            [](const TagReport& x, const TagReport& y) {
              if (x.time_s < y.time_s) return true;
              if (y.time_s < x.time_s) return false;
              return x.tag_index < y.tag_index;
            });
  std::vector<TagReport> merged;
  merged.reserve(reports.size() + synthetic.size());
  std::merge(reports.begin(), reports.end(), synthetic.begin(),
             synthetic.end(), std::back_inserter(merged),
             [](const TagReport& x, const TagReport& y) {
               return x.time_s < y.time_s;
             });
  SampleStream out(num_tags);
  out.reserve(merged.size());
  for (auto& r : merged) out.push(std::move(r));
  return out;
}

}  // namespace rfipad::reader
