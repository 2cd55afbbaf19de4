#include "llrp/bridge.hpp"

#include <cmath>

#include "common/angles.hpp"
#include "common/contracts.hpp"

namespace rfipad::llrp {

TagReportData toWire(const reader::TagReport& report) {
  TagReportData t;
  t.epc = TagReportData::epcFromHex(report.epc.str());
  t.antenna_id = report.antenna_id;
  t.peak_rssi_dbm = static_cast<std::int8_t>(std::lround(report.rssi_dbm));
  t.first_seen_utc_us =
      static_cast<std::uint64_t>(std::llround(report.time_s * 1e6));
  t.impinj_phase_angle = static_cast<std::uint16_t>(
      std::lround(wrapTwoPi(report.phase_rad) / kTwoPi * 4096.0)) % 4096;
  t.impinj_doppler_16hz =
      static_cast<std::int16_t>(std::lround(report.doppler_hz * 16.0));
  t.impinj_rssi_centidbm =
      static_cast<std::int16_t>(std::lround(report.rssi_dbm * 100.0));
  return t;
}

namespace {

/// fromWire with the tag index already known: allocation-free.
reader::TagReport toTagReport(const TagReportData& wire,
                              std::uint32_t tag_index) {
  reader::TagReport r;
  char hex[24];
  epcHexInto(wire.epc, hex);
  r.epc = std::string_view(hex, sizeof(hex));
  r.tag_index = tag_index;
  r.antenna_id = wire.antenna_id;
  r.time_s = static_cast<double>(wire.first_seen_utc_us) / 1e6;
  if (wire.impinj_phase_angle)
    r.phase_rad = static_cast<double>(*wire.impinj_phase_angle) / 4096.0 * kTwoPi;
  r.rssi_dbm = wire.impinj_rssi_centidbm
                   ? static_cast<double>(*wire.impinj_rssi_centidbm) / 100.0
                   : wire.peak_rssi_dbm;
  if (wire.impinj_doppler_16hz)
    r.doppler_hz = static_cast<double>(*wire.impinj_doppler_16hz) / 16.0;
  return r;
}

/// The lenient walk behind every decodeFrame: `indexFor(wire, tag)`
/// returns false to reject a report.
template <class IndexFor, class Emit>
DecodeFault walkReports(const Bytes& frame, DecodeStats& stats,
                        std::uint32_t max_tag_index, IndexFor&& indexFor,
                        Emit&& emit) {
  ++stats.frames;
  RoAccessReportWalker walk(frame);
  if (walk.frameFault() != DecodeFault::kNone) ++stats.frames_malformed;
  DecodeFault first = walk.frameFault();
  TagReportData wire;
  while (!walk.atEnd()) {
    const DecodeFault fault = walk.nextReport(wire);
    std::uint32_t tag = 0;
    if (fault != DecodeFault::kNone || !indexFor(wire, tag)) {
      ++stats.reports_malformed;
      if (first == DecodeFault::kNone) first = fault;
    } else if (tag > max_tag_index) {
      ++stats.reports_bad_index;
    } else {
      ++stats.reports;
      emit(toTagReport(wire, tag));
    }
  }
  return first;
}

/// The default index, as tag::makeEpc mints it: the EPC's last four bytes,
/// big-endian.
bool epcSuffixIndex(const TagReportData& wire, std::uint32_t& tag) {
  tag = std::uint32_t{wire.epc[8]} << 24 | std::uint32_t{wire.epc[9]} << 16 |
        std::uint32_t{wire.epc[10]} << 8 | wire.epc[11];
  return true;
}

}  // namespace

reader::TagReport fromWire(const TagReportData& wire,
                           const EpcResolver& epcToIndex) {
  std::uint32_t tag = 0;
  if (!epcToIndex) epcSuffixIndex(wire, tag);
  return toTagReport(wire, epcToIndex ? epcToIndex(wire.epcHex()) : tag);
}

std::vector<Bytes> encodeStream(const reader::SampleStream& stream,
                                std::size_t reportsPerMessage,
                                std::uint32_t firstMessageId) {
  if (reportsPerMessage == 0)
    throw std::invalid_argument("encodeStream: zero batch size");
  std::vector<Bytes> frames;
  RoAccessReport batch;
  std::uint32_t id = firstMessageId;
  for (const auto& r : stream.reports()) {
    batch.reports.push_back(toWire(r));
    if (batch.reports.size() == reportsPerMessage) {
      frames.push_back(encodeRoAccessReport(id++, batch));
      batch.reports.clear();
    }
  }
  if (!batch.reports.empty()) {
    frames.push_back(encodeRoAccessReport(id, batch));
  }
  return frames;
}

RFIPAD_HOT_PATH
DecodeFault decodeFrame(const Bytes& frame, reader::SampleStream& out,
                        DecodeStats& stats, std::uint32_t max_tag_index) {
  return walkReports(frame, stats, max_tag_index, epcSuffixIndex,
                     [&out](const reader::TagReport& r) { out.push(r); });
}

DecodeFault decodeFrame(const Bytes& frame, DecodeStats& stats,
                        const std::function<void(const reader::TagReport&)>& emit) {
  return walkReports(frame, stats, kAnyTagIndex, epcSuffixIndex, emit);
}

reader::SampleStream decodeFrames(const std::vector<Bytes>& frames,
                                  const EpcResolver& epcToIndex,
                                  DecodeStats* stats,
                                  std::uint32_t max_tag_index) {
  std::size_t bytes = 0;
  for (const Bytes& frame : frames) bytes += frame.size();
  reader::SampleStream stream;
  stream.reserve(bytes / 73);  // 73 bytes per report as encodeStream writes it
  DecodeStats local;
  const auto indexFor = [&epcToIndex](const TagReportData& wire, std::uint32_t& tag) {
    if (!epcToIndex) return epcSuffixIndex(wire, tag);
    try {
      tag = epcToIndex(wire.epcHex());
      return true;
    } catch (const std::exception&) {
      return false;
    }
  };
  for (const Bytes& frame : frames)
    walkReports(frame, stats != nullptr ? *stats : local, max_tag_index, indexFor,
                [&stream](const reader::TagReport& r) { stream.push(r); });
  return stream;
}

}  // namespace rfipad::llrp
