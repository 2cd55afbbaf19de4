// Allocation accounting for the LLRP decode: once a reused stream has the
// room, decodeFrame walks an RO_ACCESS_REPORT frame straight into it
// without touching the heap — no EPC byte vector, no hex string, no
// per-frame report vector.
//
// The counter instruments global operator new for this binary only and
// counts only while `g_counting` is set, around the measured calls alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>

#include "llrp/bridge.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocs{0};

void* countedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = countedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return countedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rfipad::llrp {
namespace {

std::vector<Bytes> serviceFrames() {
  reader::SampleStream s(25);
  for (int i = 0; i < 64 * 16; ++i) {
    reader::TagReport r;
    char epc[25];
    std::snprintf(epc, sizeof(epc), "3000AA00BB00CC00%08X", i % 25);
    r.epc = epc;
    r.tag_index = static_cast<std::uint32_t>(i % 25);
    r.time_s = i * 1e-3;
    r.phase_rad = 0.01 * (i % 600);
    r.rssi_dbm = -50.0 + 0.5 * (i % 9);
    r.doppler_hz = 0.25 * (i % 7) - 0.75;
    s.push(r);
  }
  return encodeStream(s);
}

/// Decode every frame into `stream`, counting heap allocations.
std::size_t countedPass(const std::vector<Bytes>& frames, reader::SampleStream& stream,
                        DecodeStats& st) {
  const std::size_t before = g_allocs.load(std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  for (const Bytes& frame : frames) decodeFrame(frame, stream, st);
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(DecodeAlloc, WarmReusedStreamDecodesWithoutAllocating) {
  const std::vector<Bytes> frames = serviceFrames();
  ASSERT_EQ(frames.size(), 64u);
  reader::SampleStream stream(25);
  DecodeStats st;
  // Warm-up: the stream's storage grows while it first fills — proof the
  // counter sees the decode's allocations.
  const std::size_t warmup = countedPass(frames, stream, st);
  stream.dropBefore(std::numeric_limits<double>::infinity());
  const std::size_t steady = countedPass(frames, stream, st);
  EXPECT_GT(warmup, 0u);
  EXPECT_EQ(steady, 0u) << "decodeFrame allocated into a warm stream";
  EXPECT_EQ(stream.size(), 64u * 16u);
  EXPECT_EQ(st.frames, 128u);
  EXPECT_EQ(st.reports, 2u * 64u * 16u);
  EXPECT_EQ(st.frames_malformed + st.reports_malformed + st.reports_bad_index, 0u);
}

TEST(DecodeAlloc, MalformedFramesDecodeWithoutAllocating) {
  std::vector<Bytes> frames = serviceFrames();
  frames[1].resize(frames[1].size() / 2);  // truncated mid-report
  frames[2][12] = 0xFF;                    // lying TLV length
  frames[3][0] = 0;                        // bad version
  frames[4][14] = 0x85;                    // EPC96 turned into an unknown TV
  reader::SampleStream stream(25);
  DecodeStats st;
  countedPass(frames, stream, st);
  stream.dropBefore(std::numeric_limits<double>::infinity());
  const DecodeStats before = st;
  EXPECT_EQ(countedPass(frames, stream, st), 0u);
  EXPECT_GT(st.frames_malformed, before.frames_malformed);
  EXPECT_GT(st.reports_malformed, before.reports_malformed);
}

}  // namespace
}  // namespace rfipad::llrp
