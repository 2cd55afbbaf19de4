// Malformed-LLRP corpus (ISSUE satellite): decodeFrames must never throw or
// read out of bounds, whatever bytes arrive — truncated headers, lying
// length fields, wrong message types, flipped EPC bits, random bit soup.
// Built to run under ASan/UBSan (label `san`), where any OOB read aborts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "llrp/bridge.hpp"
#include "llrp/messages.hpp"

namespace rfipad::llrp {
namespace {

/// EPC hex in the tag::makeEpc shape: index in the last 8 hex digits.
std::string epcForIndex(std::uint32_t index) {
  char buf[25];
  std::snprintf(buf, sizeof(buf), "AABBCCDDEEFF0011%08X", index);
  return buf;
}

reader::TagReport cleanReport(std::uint32_t tag, double t) {
  reader::TagReport r;
  r.epc = epcForIndex(tag);
  r.tag_index = tag;
  r.antenna_id = 1;
  r.time_s = t;
  r.phase_rad = 1.25;
  r.rssi_dbm = -47.5;
  return r;
}

std::vector<Bytes> cleanFrames(int tags = 4, int reads = 8) {
  reader::SampleStream s(static_cast<std::uint32_t>(tags));
  for (int j = 0; j < reads; ++j)
    for (int i = 0; i < tags; ++i)
      s.push(cleanReport(static_cast<std::uint32_t>(i), j * 0.1 + i * 0.01));
  return encodeStream(s);
}

TEST(MalformedLlrp, CleanFramesRoundTripWithoutLoss) {
  const auto frames = cleanFrames();
  DecodeStats st;
  const auto stream = decodeFrames(frames, {}, &st);
  EXPECT_EQ(st.frames, frames.size());
  EXPECT_EQ(st.frames_malformed, 0u);
  EXPECT_EQ(st.reports_malformed, 0u);
  EXPECT_EQ(st.reports_bad_index, 0u);
  EXPECT_EQ(stream.size(), 32u);
  // And identical to the stats-free decode (the clean path).
  const auto plain = decodeFrames(frames);
  EXPECT_EQ(plain.size(), stream.size());
}

TEST(MalformedLlrp, TruncatedHeaderSkippedAndCounted) {
  auto frames = cleanFrames();
  frames[0].resize(6);  // header needs 10 bytes
  frames[1].resize(0);  // empty frame
  DecodeStats st;
  const auto stream = decodeFrames(frames, {}, &st);
  EXPECT_EQ(st.frames_malformed, 2u);
  EXPECT_EQ(stream.size(), 32u - 2u * 16u);
}

TEST(MalformedLlrp, TruncatedMidParameterKeepsEarlierReports) {
  auto frames = cleanFrames();
  // Chop the frame inside the second TagReportData: the first report must
  // survive, the rest of the frame is counted malformed.
  const std::size_t keep = frames[0].size() / 2;
  frames[0].resize(keep);
  DecodeStats st;
  const auto stream = decodeFrames(frames, {}, &st);
  EXPECT_GT(st.reports_malformed, 0u);
  EXPECT_GT(stream.size(), 0u);
  EXPECT_LT(stream.size(), 32u);
}

TEST(MalformedLlrp, BadLengthFieldDoesNotOverread) {
  auto frames = cleanFrames();
  // The first TagReportData TLV begins right after the 10-byte header; its
  // 16-bit length lives at offset 12.  Claim far more bytes than exist.
  frames[0][12] = 0xFF;
  frames[0][13] = 0xFF;
  DecodeStats st;
  const auto stream = decodeFrames(frames, {}, &st);
  EXPECT_GE(st.reports_malformed, 1u);
  EXPECT_LT(stream.size(), 32u);

  // A length below the 4-byte TLV header is equally invalid.
  auto frames2 = cleanFrames();
  frames2[0][12] = 0x00;
  frames2[0][13] = 0x02;
  DecodeStats st2;
  const auto stream2 = decodeFrames(frames2, {}, &st2);
  EXPECT_GE(st2.reports_malformed, 1u);
  EXPECT_LT(stream2.size(), 32u);
}

TEST(MalformedLlrp, UnknownMessageTypeSkipsWholeFrame) {
  auto frames = cleanFrames();
  frames.insert(frames.begin(), encodeKeepalive(9));
  frames.push_back(encodeReaderEventNotification(10, 123456));
  DecodeStats st;
  const auto stream = decodeFrames(frames, {}, &st);
  EXPECT_EQ(st.frames_malformed, 2u);
  EXPECT_EQ(stream.size(), 32u);
}

TEST(MalformedLlrp, FlippedEpcBitsCannotInflateTagIndex) {
  // Corrupt the EPC index suffix so it decodes to a huge tag index: with a
  // max_tag_index cap the report is dropped and counted instead of blowing
  // up downstream per-tag allocations.
  RoAccessReport report;
  auto t = toWire(cleanReport(0, 0.5));
  t.epc = TagReportData::epcFromHex("AABBCCDDEEFF0011FFFFFFFF");
  report.reports.push_back(t);
  const std::vector<Bytes> frames = {encodeRoAccessReport(1, report)};

  DecodeStats st;
  const auto stream = decodeFrames(frames, {}, &st, /*max_tag_index=*/24);
  EXPECT_EQ(stream.size(), 0u);
  EXPECT_EQ(st.reports_bad_index, 1u);
  EXPECT_LE(stream.numTags(), 25u);
}

TEST(MalformedLlrp, StrictDecodeStillThrows) {
  // The historical contract survives: with no stats object a malformed
  // frame throws instead of being skipped.
  auto frames = cleanFrames();
  frames[0][12] = 0xFF;
  frames[0][13] = 0xFF;
  EXPECT_THROW(decodeRoAccessReport(frames[0]), DecodeError);
  DecodeStats st;
  reader::SampleStream out;
  DecodeFault fault = DecodeFault::kNone;
  EXPECT_NO_THROW(fault = decodeFrame(frames[0], out, st));
  EXPECT_EQ(fault, DecodeFault::kBadTlvLength);
  EXPECT_EQ(st.reports_malformed, 1u);
}

TEST(MalformedLlrp, BitFlipFuzzNeverThrows) {
  // Seeded fuzz: flip 1–8 random bits per frame across many rounds.  The
  // lenient decoder must survive every mutation without throwing; under
  // ASan/UBSan this also proves no out-of-bounds access.
  Rng rng(0xFBADF00D);
  for (int round = 0; round < 300; ++round) {
    auto frames = cleanFrames(3, 6);
    for (auto& f : frames) {
      const int flips = static_cast<int>(rng.uniformInt(1, 8));
      for (int k = 0; k < flips; ++k) {
        const auto byte = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(f.size()) - 1));
        f[byte] ^= static_cast<std::uint8_t>(1u << rng.uniformInt(0, 7));
      }
    }
    DecodeStats st;
    const auto stream = decodeFrames(frames, {}, &st, /*max_tag_index=*/8);
    EXPECT_EQ(st.frames, frames.size());
    for (const auto& r : stream.reports()) EXPECT_LE(r.tag_index, 8u);
  }
}

TEST(MalformedLlrp, TruncationFuzzNeverThrows) {
  Rng rng(0x7A11);
  for (int round = 0; round < 200; ++round) {
    auto frames = cleanFrames(3, 6);
    for (auto& f : frames) {
      if (!rng.chance(0.7)) continue;
      f.resize(static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(f.size()) - 1)));
    }
    DecodeStats st;
    EXPECT_NO_THROW(decodeFrames(frames, {}, &st, 8));
  }
}

}  // namespace
}  // namespace rfipad::llrp
