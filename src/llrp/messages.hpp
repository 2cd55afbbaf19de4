// A working subset of the LLRP 1.1 wire format — the protocol the paper's
// software uses to talk to the Impinj Speedway ("adopting the LLRP [12]
// protocol for communicating with the reader", §IV-A).
//
// Implemented messages:
//   ADD_ROSPEC / ADD_ROSPEC_RESPONSE     — install a reader operation spec
//   ENABLE_ROSPEC / START_ROSPEC          — arm it
//   RO_ACCESS_REPORT                      — the tag report stream
//   KEEPALIVE / KEEPALIVE_ACK
//   READER_EVENT_NOTIFICATION
//
// TagReportData carries EPC-96, AntennaID, PeakRSSI and
// FirstSeenTimestampUTC per the core spec, plus the Impinj *custom*
// parameters (vendor 25882) for the low-level data RFIPad needs:
// ImpinjRFPhaseAngle (subtype 24) and ImpinjRFDopplerFrequency (30) — the
// fields the paper unlocked by modifying the Octane SDK.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "llrp/buffer.hpp"

namespace rfipad::llrp {

// -- constants ------------------------------------------------------------

enum class MessageType : std::uint16_t {
  kAddRospec = 20,
  kAddRospecResponse = 30,
  kEnableRospec = 24,
  kEnableRospecResponse = 34,
  kStartRospec = 22,
  kStartRospecResponse = 32,
  kRoAccessReport = 61,
  kKeepalive = 62,
  kKeepaliveAck = 72,
  kReaderEventNotification = 63,
};

inline constexpr std::uint32_t kImpinjVendorId = 25882;
inline constexpr std::uint32_t kImpinjPhaseSubtype = 24;
inline constexpr std::uint32_t kImpinjDopplerSubtype = 30;
inline constexpr std::uint32_t kImpinjPeakRssiSubtype = 57;

// Parameter type numbers (TLV unless noted).
inline constexpr std::uint16_t kParamRospec = 177;
inline constexpr std::uint16_t kParamRospecStartTrigger = 179;
inline constexpr std::uint16_t kParamRospecStopTrigger = 182;
inline constexpr std::uint16_t kParamAispec = 183;
inline constexpr std::uint16_t kParamTagReportData = 240;
inline constexpr std::uint16_t kParamEpc96 = 13;          // TV-encoded
inline constexpr std::uint16_t kParamAntennaId = 1;        // TV
inline constexpr std::uint16_t kParamPeakRssi = 6;         // TV
inline constexpr std::uint16_t kParamFirstSeenUtc = 2;     // TV
inline constexpr std::uint16_t kParamLlrpStatus = 287;
inline constexpr std::uint16_t kParamCustom = 1023;
inline constexpr std::uint16_t kParamUtcTimestamp = 128;
inline constexpr std::uint16_t kParamReaderEventData = 246;

// -- data model -----------------------------------------------------------

struct MessageHeader {
  MessageType type = MessageType::kKeepalive;
  std::uint32_t id = 0;
};

using Epc96 = std::array<std::uint8_t, 12>;

/// One singulation as reported on the wire.
struct TagReportData {
  /// EPC-96 (all zero if the report carried none).
  Epc96 epc{};
  std::uint16_t antenna_id = 1;
  /// Core-spec PeakRSSI, whole dBm (coarse).
  std::int8_t peak_rssi_dbm = 0;
  /// Microseconds since the UTC epoch.
  std::uint64_t first_seen_utc_us = 0;
  /// Impinj custom: phase angle in units of 2π/4096 (0..4095).
  std::optional<std::uint16_t> impinj_phase_angle;
  /// Impinj custom: Doppler in units of 1/16 Hz.
  std::optional<std::int16_t> impinj_doppler_16hz;
  /// Impinj custom: RSSI in units of 1/100 dBm (fine-grained).
  std::optional<std::int16_t> impinj_rssi_centidbm;

  std::string epcHex() const;
  static Epc96 epcFromHex(const std::string& hex);
};

/// The 24 upper-case hex digits of `epc` into `out` (no terminator).
void epcHexInto(const Epc96& epc, char* out);

struct RoAccessReport {
  std::vector<TagReportData> reports;
};

struct RospecStartTrigger {
  std::uint8_t type = 1;  // immediate
};

struct RospecStopTrigger {
  std::uint8_t type = 0;  // none
};

struct Rospec {
  std::uint32_t rospec_id = 1;
  std::uint8_t priority = 0;
  std::uint8_t state = 0;  // disabled
  RospecStartTrigger start;
  RospecStopTrigger stop;
  std::vector<std::uint16_t> antenna_ids = {1};
};

struct LlrpStatus {
  std::uint16_t code = 0;  // M_Success
  std::string description;
};

// -- encoding -------------------------------------------------------------

Bytes encodeAddRospec(std::uint32_t messageId, const Rospec& rospec);
Bytes encodeAddRospecResponse(std::uint32_t messageId, const LlrpStatus& st);
Bytes encodeEnableRospec(std::uint32_t messageId, std::uint32_t rospecId);
Bytes encodeStartRospec(std::uint32_t messageId, std::uint32_t rospecId);
Bytes encodeRoAccessReport(std::uint32_t messageId, const RoAccessReport& r);
Bytes encodeKeepalive(std::uint32_t messageId);
Bytes encodeKeepaliveAck(std::uint32_t messageId);
Bytes encodeReaderEventNotification(std::uint32_t messageId,
                                    std::uint64_t utc_us);

// -- decoding -------------------------------------------------------------

/// Parse just the 10-byte header; returns total message length via out-param.
MessageHeader decodeHeader(BufferReader& reader, std::uint32_t* length);

/// Why a frame, or one parameter in it, did not decode.
/// kUnexpectedParameter: a top-level parameter other than TagReportData.
enum class DecodeFault : std::uint8_t {
  kNone, kTruncated, kBadVersion, kBadMessageLength, kWrongMessageType,
  kUnexpectedParameter, kBadTlvLength, kUnknownTv,
};
const char* describe(DecodeFault fault);

/// One non-throwing, allocation-free pass over an RO_ACCESS_REPORT frame.
/// frameFault() is a bad header or message type (the walk is then empty).
/// nextReport() decodes the next parameter in wire order: kNone with `out`
/// filled, or the fault of one skipped parameter.  A fault with no length
/// to resynchronise on (bad top-level length, TV parameter, short header)
/// ends the walk.  Parameters run to the end of the frame; the header's
/// length field is only checked against the header size.
class RoAccessReportWalker {
 public:
  explicit RoAccessReportWalker(const Bytes& frame);  ///< frame outlives it
  explicit RoAccessReportWalker(Bytes&&) = delete;
  DecodeFault frameFault() const { return frame_fault_; }
  bool atEnd() const { return pos_ == frame_.size(); }
  DecodeFault nextReport(TagReportData& out);  ///< requires !atEnd()

 private:
  const Bytes& frame_;
  std::size_t pos_ = 0;
  DecodeFault frame_fault_ = DecodeFault::kNone;
};

/// Full-message decoders; each expects the complete frame (header included)
/// and throws DecodeError on the first fault.
RoAccessReport decodeRoAccessReport(const Bytes& frame);
Rospec decodeAddRospec(const Bytes& frame, std::uint32_t* messageId = nullptr);
std::uint32_t decodeRospecIdMessage(const Bytes& frame);  // ENABLE/START

/// Frame splitter for a byte stream: extracts complete frames, leaving any
/// trailing partial frame in `stream`.
std::vector<Bytes> splitFrames(Bytes& stream);

}  // namespace rfipad::llrp
