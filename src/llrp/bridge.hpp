// Bridges the in-memory report stream and the LLRP wire format, so the
// recognition pipeline can be driven from actual RO_ACCESS_REPORT frames —
// the same byte stream a real Impinj reader would deliver over TCP 5084.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>

#include "llrp/messages.hpp"
#include "reader/sample_stream.hpp"

namespace rfipad::llrp {

/// Outcome of a lenient frame-vector decode: what survived, what was
/// skipped, and why.  Every counter is monotone so callers can diff across
/// calls to attribute loss.
struct DecodeStats {
  std::uint64_t frames = 0;            ///< frames presented
  std::uint64_t frames_malformed = 0;  ///< frames skipped whole (bad header/type)
  std::uint64_t reports = 0;           ///< reports delivered downstream
  std::uint64_t reports_malformed = 0; ///< reports skipped (bad parameter body)
  std::uint64_t reports_bad_index = 0; ///< reports with an EPC index out of range

  void merge(const DecodeStats& o) {
    frames += o.frames;
    frames_malformed += o.frames_malformed;
    reports += o.reports;
    reports_malformed += o.reports_malformed;
    reports_bad_index += o.reports_bad_index;
  }
};

/// Maps an EPC (upper-case hex) to a dense tag index; may throw to reject.
using EpcResolver = std::function<std::uint32_t(const std::string&)>;

/// Convert one in-memory report to its wire form.  Quantisation matches the
/// Impinj conventions: phase in 2π/4096 steps, fine RSSI in 1/100 dBm,
/// Doppler in 1/16 Hz, timestamps in µs UTC.
TagReportData toWire(const reader::TagReport& report);

/// Convert a wire report back; `epcToIndex` maps the EPC hex string to the
/// dense tag index.  Without one the index is the EPC's last four bytes,
/// big-endian (the suffix of EPCs minted by tag::makeEpc), and no string
/// is built.
reader::TagReport fromWire(const TagReportData& wire,
                           const EpcResolver& epcToIndex = {});

/// Encode a capture as a sequence of RO_ACCESS_REPORT frames with at most
/// `reportsPerMessage` tag reports per frame (readers batch similarly).
std::vector<Bytes> encodeStream(const reader::SampleStream& stream,
                                std::size_t reportsPerMessage = 16,
                                std::uint32_t firstMessageId = 1);

inline constexpr std::uint32_t kAnyTagIndex =
    std::numeric_limits<std::uint32_t>::max();

/// Decode one RO_ACCESS_REPORT frame *leniently*, appending its reports to
/// `out`: a reader hiccup must degrade the capture, not crash the
/// pipeline.  A malformed frame (bad header, wrong type, truncated) counts
/// in `frames_malformed`; a malformed report in an otherwise good frame is
/// skipped and counts in `reports_malformed`.  Reports whose tag index
/// exceeds `max_tag_index` (a flipped EPC bit could otherwise inflate
/// downstream per-tag allocations without bound) are dropped and counted in
/// `reports_bad_index`.  Returns the frame's first fault.  Allocation-free
/// once `out` has room.
DecodeFault decodeFrame(const Bytes& frame, reader::SampleStream& out,
                        DecodeStats& stats,
                        std::uint32_t max_tag_index = kAnyTagIndex);

/// The same decode with no index cap, handing each report to `emit` in
/// wire order.
DecodeFault decodeFrame(const Bytes& frame, DecodeStats& stats,
                        const std::function<void(const reader::TagReport&)>& emit);

/// decodeFrame over a vector of frames into a new stream.  A custom
/// `epcToIndex` gets the EPC hex string; a report it throws on counts in
/// `reports_malformed`.
reader::SampleStream decodeFrames(const std::vector<Bytes>& frames,
                                  const EpcResolver& epcToIndex = {},
                                  DecodeStats* stats = nullptr,
                                  std::uint32_t max_tag_index = kAnyTagIndex);

}  // namespace rfipad::llrp
