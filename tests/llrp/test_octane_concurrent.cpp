// Concurrent fan-in into one OctaneClient: the multi-antenna deployment
// runs one pump thread per Speedway, all feeding a single host-side
// client.  Before the client's stream and message-id counter were
// mutex-guarded, TSan flagged concurrent pumps racing on `stream_` and its
// reorder/duplicate counters — these tests (labelled `san`) keep that
// fixed under `cmake --preset tsan && ctest -L san`.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "llrp/octane.hpp"
#include "rf/multipath.hpp"
#include "tag/array.hpp"

namespace rfipad::llrp {
namespace {

/// One simulated Speedway: seeded hardware + protocol emulator.
struct Reader {
  explicit Reader(std::uint64_t seed)
      : rng(seed),
        array(tag::ArrayConfig{}, rng),
        hw(reader::ReaderConfig{},
           rf::ChannelModel(rf::CarrierConfig{922.38e6},
                            rf::DirectionalAntenna({0, 0, -0.32}, {0, 0, 1},
                                                   8.0),
                            rf::anechoic()),
           array, rng.fork(1)),
        emu(hw) {}

  Rng rng;
  tag::TagArray array;
  reader::RfidReader hw;
  OctaneEmulator emu;
};

/// Pump `readers` concurrently (one thread each) into `client` for
/// `duration_s` of reader time apiece.  A deque because Reader's internals
/// hold references to sibling members: elements must never relocate.
void pumpAll(OctaneClient& client, std::deque<Reader>& readers,
             double duration_s) {
  std::vector<std::thread> threads;
  threads.reserve(readers.size());
  for (auto& r : readers) {
    threads.emplace_back([&client, &r, duration_s] {
      client.pump(r.emu, duration_s, reader::emptyScene);
    });
  }
  for (auto& t : threads) t.join();
}

TEST(OctaneConcurrent, TwoReadersFanInWithoutLosingReports) {
  std::deque<Reader> readers;
  readers.emplace_back(101);
  readers.emplace_back(202);

  OctaneClient client;
  std::atomic<int> callbacks{0};
  client.onReport([&](const reader::TagReport& r) {
    EXPECT_LT(r.tag_index, 25u);
    callbacks.fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& r : readers) client.connect(r.emu);

  pumpAll(client, readers, 0.5);

  const auto stream = client.snapshotStream();
  EXPECT_GT(stream.size(), 0u);
  EXPECT_EQ(stream.size(), static_cast<std::size_t>(callbacks.load()));
  // The merged stream is time-sorted regardless of arrival interleaving.
  for (std::size_t i = 1; i < stream.size(); ++i) {
    EXPECT_LE(stream[i - 1].time_s, stream[i].time_s);
  }
}

/// Copy a stream's reports with equal-time runs put into a canonical
/// order.  The fan-in contract is "same multiset of reports, time-sorted";
/// the relative order of reports carrying the *exact same* timestamp (two
/// emulators share slot boundaries) legitimately depends on arrival
/// interleaving, so comparisons must not pin it.
std::vector<reader::TagReport> canonicalized(
    const reader::SampleStream& stream) {
  std::vector<reader::TagReport> out(stream.reports().begin(),
                                     stream.reports().end());
  std::sort(out.begin(), out.end(),
            [](const reader::TagReport& x, const reader::TagReport& y) {
              if (x.time_s != y.time_s) return x.time_s < y.time_s;
              if (x.tag_index != y.tag_index) return x.tag_index < y.tag_index;
              if (x.phase_rad != y.phase_rad) return x.phase_rad < y.phase_rad;
              return x.rssi_dbm < y.rssi_dbm;
            });
  return out;
}

TEST(OctaneConcurrent, FanInMatchesSequentialMerge) {
  // Concurrent fan-in must produce exactly the stream a sequential merge
  // of the same two readers would: the time-sorted insert makes arrival
  // order irrelevant up to equal-timestamp ties, so after canonicalizing
  // those ties the comparison is exact, not statistical.
  std::deque<Reader> concurrent_readers, sequential_readers;
  for (std::uint64_t seed : {11u, 22u}) {
    concurrent_readers.emplace_back(seed);
    sequential_readers.emplace_back(seed);
  }

  OctaneClient concurrent_client;
  for (auto& r : concurrent_readers) concurrent_client.connect(r.emu);
  pumpAll(concurrent_client, concurrent_readers, 0.4);

  OctaneClient sequential_client;
  for (auto& r : sequential_readers) {
    sequential_client.connect(r.emu);
    sequential_client.pump(r.emu, 0.4, reader::emptyScene);
  }

  const auto a = canonicalized(concurrent_client.snapshotStream());
  const auto b = canonicalized(sequential_client.snapshotStream());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag_index, b[i].tag_index);
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
    EXPECT_DOUBLE_EQ(a[i].phase_rad, b[i].phase_rad);
    EXPECT_DOUBLE_EQ(a[i].rssi_dbm, b[i].rssi_dbm);
  }
}

TEST(OctaneConcurrent, ReconnectPumpsFanInThroughOutages) {
  // The resilient pump path shares the same delivery lock; outages on one
  // reader must not corrupt the other's stream.
  std::deque<Reader> readers;
  readers.emplace_back(303);
  readers.emplace_back(404);
  readers[0].emu.setOutages({{0.1, 0.2}});

  OctaneClient client;
  for (auto& r : readers) client.connect(r.emu);

  std::vector<std::thread> threads;
  std::vector<PumpStats> stats(readers.size());
  for (std::size_t i = 0; i < readers.size(); ++i) {
    threads.emplace_back([&client, &readers, &stats, i] {
      stats[i] = client.pumpWithReconnect(readers[i].emu, 0.5,
                                          reader::emptyScene);
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(stats[0].disconnects, 1u);
  EXPECT_EQ(stats[1].disconnects, 0u);
  const auto stream = client.snapshotStream();
  EXPECT_EQ(stream.size(), stats[0].decode.reports + stats[1].decode.reports);
}

TEST(OctaneConcurrent, TakeStreamDrainsAtomically) {
  std::deque<Reader> readers;
  readers.emplace_back(505);
  OctaneClient client;
  client.connect(readers[0].emu);
  pumpAll(client, readers, 0.3);

  const auto before = client.snapshotStream();
  const auto taken = client.takeStream();
  EXPECT_EQ(taken.size(), before.size());
  EXPECT_EQ(client.snapshotStream().size(), 0u);
}

}  // namespace
}  // namespace rfipad::llrp
