#include "llrp/bridge.hpp"

#include <gtest/gtest.h>

#include "common/angles.hpp"
#include "llrp/octane.hpp"
#include "rf/multipath.hpp"
#include "tag/array.hpp"

namespace rfipad::llrp {
namespace {

reader::TagReport sampleReport(std::uint32_t index, double t) {
  reader::TagReport r;
  r.epc = tag::makeEpc(index);
  r.tag_index = index;
  r.antenna_id = 1;
  r.time_s = t;
  r.phase_rad = wrapTwoPi(1.0 + 0.1 * index);
  // Quantise like the reader does (2π/4096 phase, 0.5 dB RSSI) so the wire
  // round trip is lossless.
  const double step = kTwoPi / 4096.0;
  r.phase_rad = std::round(r.phase_rad / step) * step;
  r.rssi_dbm = -40.5;
  r.doppler_hz = 1.25;
  return r;
}

TEST(Bridge, SingleReportRoundTrip) {
  const auto in = sampleReport(7, 1.25);
  const auto out = fromWire(toWire(in));
  EXPECT_EQ(out.epc, in.epc);
  EXPECT_EQ(out.tag_index, 7u);
  EXPECT_NEAR(out.time_s, in.time_s, 2e-6);
  EXPECT_NEAR(out.phase_rad, in.phase_rad, 1e-9);
  EXPECT_NEAR(out.rssi_dbm, in.rssi_dbm, 1e-9);
  EXPECT_NEAR(out.doppler_hz, in.doppler_hz, 1.0 / 16.0);
}

TEST(Bridge, StreamRoundTripPreservesEverything) {
  reader::SampleStream in(25);
  for (int i = 0; i < 100; ++i) {
    in.push(sampleReport(static_cast<std::uint32_t>(i % 25), i * 0.01));
  }
  const auto frames = encodeStream(in, 16);
  EXPECT_EQ(frames.size(), 7u);  // ceil(100/16)
  const auto out = decodeFrames(frames);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].tag_index, in[i].tag_index);
    EXPECT_NEAR(out[i].phase_rad, in[i].phase_rad, 1e-9);
    EXPECT_NEAR(out[i].rssi_dbm, in[i].rssi_dbm, 1e-9);
  }
}

TEST(Bridge, CustomEpcResolver) {
  const auto wire = toWire(sampleReport(3, 0.5));
  const auto out = fromWire(wire, [](const std::string&) { return 99u; });
  EXPECT_EQ(out.tag_index, 99u);
}

TEST(Bridge, RejectsZeroBatch) {
  reader::SampleStream s;
  EXPECT_THROW(encodeStream(s, 0), std::invalid_argument);
}

struct OctaneFixture {
  Rng rng{31};
  tag::TagArray array{tag::ArrayConfig{}, rng};
  reader::RfidReader hw{reader::ReaderConfig{},
                        rf::ChannelModel(rf::CarrierConfig{922.38e6},
                                         rf::DirectionalAntenna({0, 0, -0.32},
                                                                {0, 0, 1}, 8.0),
                                         rf::anechoic()),
                        array, rng.fork(1)};
  OctaneEmulator emu{hw};
  OctaneClient client;
};

TEST(Octane, HandshakeStateMachine) {
  OctaneFixture f;
  EXPECT_FALSE(f.emu.started());
  EXPECT_THROW(f.emu.poll(0.1, reader::emptyScene), std::logic_error);
  f.client.connect(f.emu);
  EXPECT_TRUE(f.emu.installed());
  EXPECT_TRUE(f.emu.enabled());
  EXPECT_TRUE(f.emu.started());
}

TEST(Octane, StartBeforeEnableFails) {
  OctaneFixture f;
  // START without ADD/ENABLE → error status → client throws.
  EXPECT_THROW(
      {
        auto resp = f.emu.handleControl(encodeStartRospec(1, 1));
        BufferReader r(resp);
        std::uint32_t len = 0;
        decodeHeader(r, &len);
        r.skip(4);  // param header
        if (r.u16() != 0) throw std::runtime_error("failed");
      },
      std::runtime_error);
}

TEST(Octane, ReportsFlowThroughWireFormat) {
  OctaneFixture f;
  f.client.connect(f.emu);
  int callbacks = 0;
  f.client.onReport([&](const reader::TagReport& r) {
    EXPECT_LT(r.tag_index, 25u);
    ++callbacks;
  });
  f.client.pump(f.emu, 1.0, reader::emptyScene);
  EXPECT_GT(callbacks, 200);
  EXPECT_EQ(f.client.stream().size(), static_cast<std::size_t>(callbacks));
  // All 25 tags present after a second of inventory.
  for (std::uint32_t i = 0; i < 25; ++i) {
    EXPECT_GT(f.client.stream().countFor(i), 0u) << i;
  }
}

TEST(Octane, KeepaliveAcked) {
  OctaneFixture f;
  const Bytes resp = f.emu.handleControl(encodeKeepalive(5));
  BufferReader r(resp);
  std::uint32_t len = 0;
  const MessageHeader h = decodeHeader(r, &len);
  EXPECT_EQ(h.type, MessageType::kKeepaliveAck);
  EXPECT_EQ(h.id, 5u);
}

TEST(Octane, ReconnectPumpMatchesPlainPumpOnCleanLink) {
  // Same seeded hardware twice: the resilient pump on a fault-free link
  // must deliver exactly what the strict pump does, chunking and all.
  OctaneFixture plain, resilient;
  plain.client.connect(plain.emu);
  resilient.client.connect(resilient.emu);

  plain.client.pump(plain.emu, 1.0, reader::emptyScene);
  const auto st = resilient.client.pumpWithReconnect(resilient.emu, 1.0,
                                                     reader::emptyScene);
  EXPECT_EQ(st.disconnects, 0u);
  EXPECT_EQ(st.reconnect_attempts, 0u);
  EXPECT_EQ(st.rehandshakes, 0u);
  EXPECT_DOUBLE_EQ(st.offline_s, 0.0);
  EXPECT_EQ(st.decode.frames_malformed, 0u);
  EXPECT_EQ(st.decode.reports_malformed, 0u);

  const auto& a = plain.client.stream();
  const auto& b = resilient.client.stream();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag_index, b[i].tag_index);
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
    EXPECT_DOUBLE_EQ(a[i].phase_rad, b[i].phase_rad);
  }
}

TEST(Octane, SurvivesOutageAndResumesSession) {
  OctaneFixture f;
  f.client.connect(f.emu);
  f.emu.setOutages({{0.3, 0.5}});

  const auto st = f.client.pumpWithReconnect(f.emu, 1.2, reader::emptyScene);
  EXPECT_EQ(st.disconnects, 1u);
  EXPECT_GE(st.reconnect_attempts, 1u);
  // A TCP hiccup, not a reboot: the ROSpec survives, no re-handshake.
  EXPECT_EQ(st.rehandshakes, 0u);
  EXPECT_GT(st.offline_s, 0.0);

  // Nothing was delivered from inside the outage (a slot may straddle the
  // boundary, hence the small guard band), and reporting resumed after it.
  bool any_after = false;
  for (const auto& r : f.client.stream().reports()) {
    EXPECT_FALSE(r.time_s > 0.31 && r.time_s < 0.49) << r.time_s;
    any_after = any_after || r.time_s > 0.6;
  }
  EXPECT_TRUE(any_after);
}

TEST(Octane, ReaderRebootForcesRehandshake) {
  OctaneFixture f;
  f.client.connect(f.emu);
  f.emu.setClearRospecOnDisconnect(true);
  f.emu.setOutages({{0.2, 0.3}});

  const auto st = f.client.pumpWithReconnect(f.emu, 1.0, reader::emptyScene);
  EXPECT_EQ(st.disconnects, 1u);
  EXPECT_EQ(st.rehandshakes, 1u);
  EXPECT_TRUE(f.emu.started());
  bool any_after = false;
  for (const auto& r : f.client.stream().reports())
    any_after = any_after || r.time_s > 0.5;
  EXPECT_TRUE(any_after);
}

TEST(Octane, CorruptedFramesAreSkippedAndCounted) {
  OctaneFixture f;
  f.client.connect(f.emu);
  // Mangle the wire: truncate every third frame, flip a byte in the rest.
  f.emu.setFrameTap([n = 0](std::vector<Bytes> frames) mutable {
    for (auto& fr : frames) {
      if (fr.empty()) continue;
      if (++n % 3 == 0) {
        fr.resize(fr.size() / 2);
      } else {
        fr[10 + (fr.size() % 40)] ^= 0x40;
      }
    }
    return frames;
  });

  const auto st = f.client.pumpWithReconnect(f.emu, 1.0, reader::emptyScene);
  EXPECT_GT(st.decode.frames, 0u);
  EXPECT_GT(st.decode.frames_malformed + st.decode.reports_malformed, 0u);
  // Degraded, not dead: most reports still make it through.
  EXPECT_GT(st.decode.reports, 0u);
  EXPECT_EQ(f.client.stream().size(), st.decode.reports);
}

TEST(Octane, GivesUpAfterExhaustingBackoffSchedule) {
  OctaneFixture f;
  f.client.connect(f.emu);
  f.emu.setOutages({{0.1, 50.0}});
  ReconnectPolicy policy;
  policy.initial_backoff_s = 0.01;
  policy.max_backoff_s = 0.02;
  policy.max_attempts_per_outage = 3;
  policy.poll_chunk_s = 0.1;
  EXPECT_THROW(
      f.client.pumpWithReconnect(f.emu, 2.0, reader::emptyScene, policy),
      std::runtime_error);
}

}  // namespace
}  // namespace rfipad::llrp
