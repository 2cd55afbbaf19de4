#include "llrp/messages.hpp"

#include <cstring>

namespace rfipad::llrp {

namespace {

constexpr std::uint8_t kVersion = 1;  // LLRP protocol version 1.x
constexpr auto kRoAccessReportType =
    static_cast<std::uint16_t>(MessageType::kRoAccessReport);

/// Write an LLRP message header; returns the length-slot offset.
std::size_t beginMessage(BufferWriter& w, MessageType type,
                         std::uint32_t messageId) {
  // 3 reserved bits, 3 version bits, 10 type bits.
  const std::uint16_t first =
      static_cast<std::uint16_t>((kVersion << 10) |
                                 (static_cast<std::uint16_t>(type) & 0x3FF));
  w.u16(first);
  const std::size_t slot = w.reserveLength32();
  w.u32(messageId);
  return slot;
}

/// TLV parameter header; returns the length-slot offset.
std::size_t beginTlv(BufferWriter& w, std::uint16_t type) {
  w.u16(type & 0x3FF);
  return w.reserveLength16();
}

void endTlv(BufferWriter& w, std::size_t slot) {
  // TLV length counts from the type field (4 bytes before the slot end).
  w.patchLength16(slot, slot - 2);
}

void writeLlrpStatus(BufferWriter& w, const LlrpStatus& st) {
  const std::size_t slot = beginTlv(w, kParamLlrpStatus);
  w.u16(st.code);
  w.u16(static_cast<std::uint16_t>(st.description.size()));
  for (char c : st.description) w.u8(static_cast<std::uint8_t>(c));
  endTlv(w, slot);
}

void writeImpinjCustom(BufferWriter& w, std::uint32_t subtype,
                       std::int32_t value, bool sixteenBit) {
  const std::size_t slot = beginTlv(w, kParamCustom);
  w.u32(kImpinjVendorId);
  w.u32(subtype);
  if (sixteenBit) {
    w.u16(static_cast<std::uint16_t>(value));
  } else {
    w.u32(static_cast<std::uint32_t>(value));
  }
  endTlv(w, slot);
}

void writeTagReportData(BufferWriter& w, const TagReportData& t) {
  const std::size_t slot = beginTlv(w, kParamTagReportData);

  // EPC-96: TV-encoded parameter (high bit set, 7-bit type).
  w.u8(0x80 | kParamEpc96);
  for (std::uint8_t b : t.epc) w.u8(b);

  w.u8(0x80 | kParamAntennaId);
  w.u16(t.antenna_id);

  w.u8(0x80 | kParamPeakRssi);
  w.s8(t.peak_rssi_dbm);

  w.u8(0x80 | kParamFirstSeenUtc);
  w.u64(t.first_seen_utc_us);

  if (t.impinj_phase_angle) {
    writeImpinjCustom(w, kImpinjPhaseSubtype, *t.impinj_phase_angle, true);
  }
  if (t.impinj_doppler_16hz) {
    writeImpinjCustom(w, kImpinjDopplerSubtype, *t.impinj_doppler_16hz, true);
  }
  if (t.impinj_rssi_centidbm) {
    writeImpinjCustom(w, kImpinjPeakRssiSubtype, *t.impinj_rssi_centidbm, true);
  }
  endTlv(w, slot);
}

}  // namespace

void epcHexInto(const Epc96& epc, char* out) {
  static constexpr char kNibble[] = "0123456789ABCDEF";
  for (std::uint8_t b : epc) {
    *out++ = kNibble[b >> 4];
    *out++ = kNibble[b & 0xF];
  }
}

std::string TagReportData::epcHex() const {
  std::string out(2 * epc.size(), '0');
  epcHexInto(epc, out.data());
  return out;
}

Epc96 TagReportData::epcFromHex(const std::string& hex) {
  if (hex.size() != 24)
    throw std::invalid_argument("EPC-96 hex must be 24 chars");
  Epc96 out{};
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(i * 2, 2), nullptr, 16));
  }
  return out;
}

Bytes encodeAddRospec(std::uint32_t messageId, const Rospec& rospec) {
  BufferWriter w;
  const std::size_t msg = beginMessage(w, MessageType::kAddRospec, messageId);

  const std::size_t ro = beginTlv(w, kParamRospec);
  w.u32(rospec.rospec_id);
  w.u8(rospec.priority);
  w.u8(rospec.state);

  // ROBoundarySpec-ish: just the triggers, flattened for our subset.
  {
    const std::size_t t = beginTlv(w, kParamRospecStartTrigger);
    w.u8(rospec.start.type);
    endTlv(w, t);
  }
  {
    const std::size_t t = beginTlv(w, kParamRospecStopTrigger);
    w.u8(rospec.stop.type);
    endTlv(w, t);
  }
  // AISpec: antenna list.
  {
    const std::size_t t = beginTlv(w, kParamAispec);
    w.u16(static_cast<std::uint16_t>(rospec.antenna_ids.size()));
    for (std::uint16_t a : rospec.antenna_ids) w.u16(a);
    endTlv(w, t);
  }
  endTlv(w, ro);

  w.patchLength32(msg, 0);
  return w.take();
}

Bytes encodeAddRospecResponse(std::uint32_t messageId, const LlrpStatus& st) {
  BufferWriter w;
  const std::size_t msg =
      beginMessage(w, MessageType::kAddRospecResponse, messageId);
  writeLlrpStatus(w, st);
  w.patchLength32(msg, 0);
  return w.take();
}

namespace {
Bytes encodeRospecIdMessage(MessageType type, std::uint32_t messageId,
                            std::uint32_t rospecId) {
  BufferWriter w;
  const std::size_t msg = beginMessage(w, type, messageId);
  w.u32(rospecId);
  w.patchLength32(msg, 0);
  return w.take();
}
}  // namespace

Bytes encodeEnableRospec(std::uint32_t messageId, std::uint32_t rospecId) {
  return encodeRospecIdMessage(MessageType::kEnableRospec, messageId, rospecId);
}

Bytes encodeStartRospec(std::uint32_t messageId, std::uint32_t rospecId) {
  return encodeRospecIdMessage(MessageType::kStartRospec, messageId, rospecId);
}

Bytes encodeRoAccessReport(std::uint32_t messageId, const RoAccessReport& r) {
  BufferWriter w;
  const std::size_t msg =
      beginMessage(w, MessageType::kRoAccessReport, messageId);
  for (const auto& t : r.reports) writeTagReportData(w, t);
  w.patchLength32(msg, 0);
  return w.take();
}

Bytes encodeKeepalive(std::uint32_t messageId) {
  BufferWriter w;
  const std::size_t msg = beginMessage(w, MessageType::kKeepalive, messageId);
  w.patchLength32(msg, 0);
  return w.take();
}

Bytes encodeKeepaliveAck(std::uint32_t messageId) {
  BufferWriter w;
  const std::size_t msg = beginMessage(w, MessageType::kKeepaliveAck, messageId);
  w.patchLength32(msg, 0);
  return w.take();
}

Bytes encodeReaderEventNotification(std::uint32_t messageId,
                                    std::uint64_t utc_us) {
  BufferWriter w;
  const std::size_t msg =
      beginMessage(w, MessageType::kReaderEventNotification, messageId);
  const std::size_t ev = beginTlv(w, kParamReaderEventData);
  {
    const std::size_t ts = beginTlv(w, kParamUtcTimestamp);
    w.u64(utc_us);
    endTlv(w, ts);
  }
  endTlv(w, ev);
  w.patchLength32(msg, 0);
  return w.take();
}

MessageHeader decodeHeader(BufferReader& reader, std::uint32_t* length) {
  const std::uint16_t first = reader.u16();
  const std::uint8_t version = (first >> 10) & 0x7;
  if (version != kVersion) throw DecodeError("unsupported LLRP version");
  MessageHeader h;
  h.type = static_cast<MessageType>(first & 0x3FF);
  const std::uint32_t len = reader.u32();
  if (len < 10) throw DecodeError("LLRP message length < header size");
  h.id = reader.u32();
  if (length != nullptr) *length = len;
  return h;
}

const char* describe(DecodeFault fault) {
  static constexpr const char* kText[] = {
      "no fault", "LLRP frame truncated", "unsupported LLRP version",
      "LLRP message length < header size", "not an RO_ACCESS_REPORT",
      "unexpected parameter in RO_ACCESS_REPORT", "bad TLV length",
      "unknown TV parameter in TagReportData"};
  return kText[static_cast<std::size_t>(fault)];
}

namespace {

std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t be32(const std::uint8_t* p) {
  return std::uint32_t{be16(p)} << 16 | be16(p + 2);
}

/// The TLV parameter at p[0..n): its type, and its length once it fits.
DecodeFault tlvHeader(const std::uint8_t* p, std::size_t n, unsigned& type,
                      std::size_t& len) {
  if (n < 4) return DecodeFault::kTruncated;
  type = be16(p) & 0x3FF;
  len = be16(p + 2);
  return len < 4 || len > n ? DecodeFault::kBadTlvLength : DecodeFault::kNone;
}

/// The `n` body bytes of one TagReportData.  Later fields overwrite earlier
/// ones; unknown TLVs and foreign custom parameters are skipped.
DecodeFault parseTagReportData(const std::uint8_t* p, std::size_t n,
                               TagReportData& t) {
  t = TagReportData{};
  for (std::size_t i = 0; i < n;) {
    const std::uint8_t tv = p[i] & 0x7F;
    if (p[i] & 0x80) {
      const std::size_t width = tv == kParamEpc96 ? 12
                                : tv == kParamAntennaId ? 2
                                : tv == kParamPeakRssi ? 1
                                : tv == kParamFirstSeenUtc ? 8 : 0;
      if (width == 0) return DecodeFault::kUnknownTv;
      if (n - i - 1 < width) return DecodeFault::kTruncated;
      const std::uint8_t* v = p + i + 1;
      i += 1 + width;
      if (tv == kParamEpc96) std::memcpy(t.epc.data(), v, 12);
      if (tv == kParamAntennaId) t.antenna_id = be16(v);
      if (tv == kParamPeakRssi) t.peak_rssi_dbm = static_cast<std::int8_t>(v[0]);
      if (tv == kParamFirstSeenUtc)
        t.first_seen_utc_us = std::uint64_t{be32(v)} << 32 | be32(v + 4);
      continue;
    }
    unsigned type = 0;
    std::size_t len = 0;
    const DecodeFault fault = tlvHeader(p + i, n - i, type, len);
    if (fault != DecodeFault::kNone) return fault;
    const std::uint8_t* v = p + i + 4;
    i += len;
    if (type != kParamCustom) continue;
    if (len < 12) return DecodeFault::kTruncated;  // vendor + subtype
    const std::uint32_t subtype = be32(v + 4);
    if (be32(v) != kImpinjVendorId ||
        (subtype != kImpinjPhaseSubtype && subtype != kImpinjDopplerSubtype &&
         subtype != kImpinjPeakRssiSubtype))
      continue;
    if (len < 14) return DecodeFault::kTruncated;
    const std::uint16_t value = be16(v + 8);
    if (subtype == kImpinjPhaseSubtype) t.impinj_phase_angle = value;
    if (subtype == kImpinjDopplerSubtype)
      t.impinj_doppler_16hz = static_cast<std::int16_t>(value);
    if (subtype == kImpinjPeakRssiSubtype)
      t.impinj_rssi_centidbm = static_cast<std::int16_t>(value);
  }
  return DecodeFault::kNone;
}

/// decodeHeader's checks, in its order, for an RO_ACCESS_REPORT.
DecodeFault headerFault(const Bytes& f) {
  if (f.size() < 2) return DecodeFault::kTruncated;
  if ((f[0] >> 2 & 0x7) != kVersion) return DecodeFault::kBadVersion;
  if (f.size() < 6) return DecodeFault::kTruncated;
  if (be32(&f[2]) < 10) return DecodeFault::kBadMessageLength;
  if (f.size() < 10) return DecodeFault::kTruncated;
  if ((be16(&f[0]) & 0x3FF) != kRoAccessReportType)
    return DecodeFault::kWrongMessageType;
  return DecodeFault::kNone;
}

}  // namespace

RoAccessReportWalker::RoAccessReportWalker(const Bytes& frame)
    : frame_(frame), frame_fault_(headerFault(frame)) {
  pos_ = frame_fault_ == DecodeFault::kNone ? 10 : frame.size();
}

DecodeFault RoAccessReportWalker::nextReport(TagReportData& out) {
  const std::uint8_t* p = frame_.data() + pos_;
  const std::size_t n = frame_.size() - pos_;
  pos_ = frame_.size();  // unless the parameter's length is sound
  // A TV parameter has no length field: nothing after it can be found.
  if (n >= 4 && (p[0] & 0x80)) return DecodeFault::kUnexpectedParameter;
  unsigned type = 0;
  std::size_t len = 0;
  const DecodeFault fault = tlvHeader(p, n, type, len);
  if (fault != DecodeFault::kNone) return fault;
  pos_ -= n - len;
  if (type != kParamTagReportData) return DecodeFault::kUnexpectedParameter;
  return parseTagReportData(p + 4, len - 4, out);
}

RoAccessReport decodeRoAccessReport(const Bytes& frame) {
  RoAccessReportWalker walk(frame);
  if (walk.frameFault() != DecodeFault::kNone)
    throw DecodeError(describe(walk.frameFault()));
  RoAccessReport report;
  while (!walk.atEnd()) {
    const DecodeFault fault = walk.nextReport(report.reports.emplace_back());
    if (fault != DecodeFault::kNone) throw DecodeError(describe(fault));
  }
  return report;
}

Rospec decodeAddRospec(const Bytes& frame, std::uint32_t* messageId) {
  BufferReader r(frame);
  std::uint32_t len = 0;
  const MessageHeader h = decodeHeader(r, &len);
  if (h.type != MessageType::kAddRospec) throw DecodeError("not ADD_ROSPEC");
  if (messageId != nullptr) *messageId = h.id;

  const std::uint16_t type = r.u16() & 0x3FF;
  if (type != kParamRospec) throw DecodeError("ROSpec parameter expected");
  const std::uint16_t plen = r.u16();
  BufferReader body = r.sub(plen - 4);

  Rospec spec;
  spec.rospec_id = body.u32();
  spec.priority = body.u8();
  spec.state = body.u8();
  while (!body.atEnd()) {
    const std::uint16_t ptype = body.u16() & 0x3FF;
    const std::uint16_t len2 = body.u16();
    BufferReader sub = body.sub(len2 - 4);
    if (ptype == kParamRospecStartTrigger) {
      spec.start.type = sub.u8();
    } else if (ptype == kParamRospecStopTrigger) {
      spec.stop.type = sub.u8();
    } else if (ptype == kParamAispec) {
      const std::uint16_t n = sub.u16();
      spec.antenna_ids.clear();
      for (std::uint16_t i = 0; i < n; ++i) spec.antenna_ids.push_back(sub.u16());
    }
  }
  return spec;
}

std::uint32_t decodeRospecIdMessage(const Bytes& frame) {
  BufferReader r(frame);
  std::uint32_t len = 0;
  const MessageHeader h = decodeHeader(r, &len);
  if (h.type != MessageType::kEnableRospec &&
      h.type != MessageType::kStartRospec)
    throw DecodeError("not an ENABLE/START_ROSPEC");
  return r.u32();
}

std::vector<Bytes> splitFrames(Bytes& stream) {
  std::vector<Bytes> frames;
  std::size_t pos = 0;
  while (stream.size() - pos >= 10) {
    BufferReader peek(stream.data() + pos, stream.size() - pos);
    peek.skip(2);
    const std::uint32_t len = peek.u32();
    if (len < 10) throw DecodeError("LLRP message length < header size");
    if (stream.size() - pos < len) break;  // partial frame
    frames.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(pos),
                        stream.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }
  stream.erase(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(pos));
  return frames;
}

}  // namespace rfipad::llrp
