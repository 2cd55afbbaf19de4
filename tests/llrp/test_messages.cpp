#include "llrp/messages.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace rfipad::llrp {
namespace {

TagReportData sampleReport() {
  TagReportData t;
  t.epc = TagReportData::epcFromHex("3000AA00BB00CC0000000007");
  t.antenna_id = 2;
  t.peak_rssi_dbm = -41;
  t.first_seen_utc_us = 1234567890123ull;
  t.impinj_phase_angle = 2048;
  t.impinj_doppler_16hz = -24;
  t.impinj_rssi_centidbm = -4150;
  return t;
}

TEST(Messages, EpcHexRoundTrip) {
  const std::string hex = "3000AA00BB00CC0000000007";
  EXPECT_EQ(TagReportData::epcFromHex(hex).size(), 12u);
  TagReportData t;
  t.epc = TagReportData::epcFromHex(hex);
  EXPECT_EQ(t.epcHex(), hex);
  EXPECT_THROW(TagReportData::epcFromHex("1234"), std::invalid_argument);
}

TEST(Messages, EpcHexMatchesPrintfForEveryByte) {
  for (unsigned b = 0; b < 256; ++b) {
    TagReportData t;
    std::string expected;
    for (std::size_t i = 0; i < t.epc.size(); ++i) {
      // Every byte value at every position, over the 256 iterations.
      t.epc[i] = static_cast<std::uint8_t>(b + 37 * i);
      char buf[3];
      std::snprintf(buf, sizeof(buf), "%02X", t.epc[i]);
      expected += buf;
    }
    EXPECT_EQ(t.epcHex(), expected) << b;
  }
}

TEST(Messages, EpcFromHexRoundTripsAndNormalisesCase) {
  for (const std::string hex :
       {"000000000000000000000000", "FFFFFFFFFFFFFFFFFFFFFFFF",
        "0123456789ABCDEF01234567", "3000AA00BB00CC00FFFFFFFF"}) {
    TagReportData t;
    t.epc = TagReportData::epcFromHex(hex);
    EXPECT_EQ(t.epcHex(), hex);
  }
  TagReportData t;
  t.epc = TagReportData::epcFromHex("3000aa00bb00cc000000beef");
  EXPECT_EQ(t.epcHex(), "3000AA00BB00CC000000BEEF");
  EXPECT_THROW(TagReportData::epcFromHex(std::string(26, 'A')), std::invalid_argument);
}

TEST(Messages, RoAccessReportRoundTrip) {
  RoAccessReport in;
  in.reports.push_back(sampleReport());
  in.reports.push_back(sampleReport());
  in.reports[1].impinj_phase_angle.reset();  // optional param omitted

  const Bytes frame = encodeRoAccessReport(77, in);
  const RoAccessReport out = decodeRoAccessReport(frame);
  ASSERT_EQ(out.reports.size(), 2u);
  const auto& a = out.reports[0];
  EXPECT_EQ(a.epcHex(), "3000AA00BB00CC0000000007");
  EXPECT_EQ(a.antenna_id, 2);
  EXPECT_EQ(a.peak_rssi_dbm, -41);
  EXPECT_EQ(a.first_seen_utc_us, 1234567890123ull);
  ASSERT_TRUE(a.impinj_phase_angle.has_value());
  EXPECT_EQ(*a.impinj_phase_angle, 2048);
  ASSERT_TRUE(a.impinj_doppler_16hz.has_value());
  EXPECT_EQ(*a.impinj_doppler_16hz, -24);
  ASSERT_TRUE(a.impinj_rssi_centidbm.has_value());
  EXPECT_EQ(*a.impinj_rssi_centidbm, -4150);
  EXPECT_FALSE(out.reports[1].impinj_phase_angle.has_value());
}

TEST(Messages, HeaderRoundTrip) {
  const Bytes frame = encodeKeepalive(42);
  BufferReader r(frame);
  std::uint32_t len = 0;
  const MessageHeader h = decodeHeader(r, &len);
  EXPECT_EQ(h.type, MessageType::kKeepalive);
  EXPECT_EQ(h.id, 42u);
  EXPECT_EQ(len, frame.size());
}

TEST(Messages, AddRospecRoundTrip) {
  Rospec in;
  in.rospec_id = 7;
  in.priority = 3;
  in.start.type = 1;
  in.stop.type = 2;
  in.antenna_ids = {1, 2, 4};
  std::uint32_t mid = 0;
  const Rospec out = decodeAddRospec(encodeAddRospec(9, in), &mid);
  EXPECT_EQ(mid, 9u);
  EXPECT_EQ(out.rospec_id, 7u);
  EXPECT_EQ(out.priority, 3);
  EXPECT_EQ(out.start.type, 1);
  EXPECT_EQ(out.stop.type, 2);
  EXPECT_EQ(out.antenna_ids, (std::vector<std::uint16_t>{1, 2, 4}));
}

TEST(Messages, EnableStartRospecIds) {
  EXPECT_EQ(decodeRospecIdMessage(encodeEnableRospec(1, 55)), 55u);
  EXPECT_EQ(decodeRospecIdMessage(encodeStartRospec(2, 66)), 66u);
  EXPECT_THROW(decodeRospecIdMessage(encodeKeepalive(3)), DecodeError);
}

TEST(Messages, WrongTypeRejected) {
  EXPECT_THROW(decodeRoAccessReport(encodeKeepalive(1)), DecodeError);
  EXPECT_THROW(decodeAddRospec(encodeKeepalive(1)), DecodeError);
}

TEST(Messages, TruncatedFrameRejected) {
  Bytes frame = encodeRoAccessReport(1, {{sampleReport()}});
  frame.resize(frame.size() - 5);
  EXPECT_THROW(decodeRoAccessReport(frame), DecodeError);
}

TEST(Messages, SplitFramesHandlesPartials) {
  const Bytes a = encodeKeepalive(1);
  const Bytes b = encodeRoAccessReport(2, {{sampleReport()}});
  Bytes stream;
  stream.insert(stream.end(), a.begin(), a.end());
  stream.insert(stream.end(), b.begin(), b.end());
  // Append half of another message.
  const Bytes c = encodeKeepalive(3);
  stream.insert(stream.end(), c.begin(), c.begin() + 4);

  auto frames = splitFrames(stream);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], a);
  EXPECT_EQ(frames[1], b);
  EXPECT_EQ(stream.size(), 4u);  // the partial remains buffered

  // Completing the partial yields the third frame.
  stream.insert(stream.end(), c.begin() + 4, c.end());
  frames = splitFrames(stream);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], c);
  EXPECT_TRUE(stream.empty());
}

TEST(Messages, ReaderEventNotificationEncodes) {
  const Bytes frame = encodeReaderEventNotification(5, 999999);
  BufferReader r(frame);
  std::uint32_t len = 0;
  const MessageHeader h = decodeHeader(r, &len);
  EXPECT_EQ(h.type, MessageType::kReaderEventNotification);
  EXPECT_EQ(len, frame.size());
}

}  // namespace
}  // namespace rfipad::llrp
