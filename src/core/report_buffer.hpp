// The online recogniser's report buffer, reduced to what recognition reads.
//
// A reader::TagReport is 96 bytes: a 32-byte inline EPC, the antenna port,
// a Doppler estimate and padding ride along with every read.  Recognition
// reads only the timestamp and phase (segmentation and activation, paper
// §III-B/C), the RSS (trough direction), the hop channel (imputeGaps'
// cross-channel check), the tag index and the imputed flag.  A serving
// session holds a few seconds of reads, and its buffer's capacity is what a
// resident session costs, so ReportBuffer stores one 40-byte BufferedRead
// per report and rebuilds TagReports only for the window being classified.
//
// push(), dropBefore() and the counters behave exactly as reader::
// SampleStream's: the same PushOutcome for every report, the same numTags()
// growth, the same front-index window and compaction rule.  A StreamSegmenter
// over this buffer is therefore bit-identical to Segmenter::segmentWith over
// a SampleStream fed the same operations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "reader/sample_stream.hpp"
#include "reader/tag_report.hpp"

namespace rfipad::core {

/// The fields of one reader::TagReport that recognition reads.
struct BufferedRead {
  double time_s = 0.0;
  double phase_rad = 0.0;
  double rssi_dbm = 0.0;
  double channel_mhz = 0.0;
  std::uint32_t tag_index = 0;
  bool imputed = false;
};
static_assert(sizeof(BufferedRead) <= 40, "a buffered read must stay compact");

class ReportBuffer {
 public:
  /// SampleStream::push: in-order append; an out-of-order report is
  /// inserted at its timestamp; an exact duplicate (tag, time, phase, RSSI)
  /// and a non-finite timestamp are dropped.  Each outcome is counted.
  reader::PushOutcome push(const reader::TagReport& report);
  /// SampleStream::dropBefore: discard every read with time < t by
  /// advancing a front index; the dead prefix is erased once it is half
  /// the storage.  Counters and numTags() are unaffected.
  void dropBefore(double t);

  std::uint64_t reorderCount() const { return reorder_count_; }
  std::uint64_t duplicateCount() const { return duplicate_count_; }
  std::uint64_t invalidCount() const { return invalid_count_; }

  std::size_t size() const { return reads_.size() - front_; }
  bool empty() const { return size() == 0; }
  /// The live window in time order; invalidated by any mutation.
  std::span<const BufferedRead> reads() const {
    return {reads_.data() + front_, size()};
  }
  std::uint32_t numTags() const { return num_tags_; }

  double startTime() const { return empty() ? 0.0 : reads_[front_].time_s; }
  double endTime() const { return empty() ? 0.0 : reads_.back().time_s; }

  /// Bytes the buffer's storage holds (capacity, live or not).
  std::size_t storageBytes() const {
    return reads_.capacity() * sizeof(BufferedRead);
  }

  /// The reads in [t0, t1) as a SampleStream of numTags() tags — what
  /// SampleStream::slice gives on the stream this buffer mirrors, except
  /// that the fields recognition never reads (EPC, antenna, Doppler) take
  /// their TagReport defaults.  Bounds must not be NaN.
  reader::SampleStream slice(double t0, double t1) const;

 private:
  std::vector<BufferedRead> reads_;
  std::size_t front_ = 0;
  std::uint32_t num_tags_ = 0;
  std::uint64_t reorder_count_ = 0;
  std::uint64_t duplicate_count_ = 0;
  std::uint64_t invalid_count_ = 0;
};

}  // namespace rfipad::core
