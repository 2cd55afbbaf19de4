// ReportBuffer: the online recogniser's compact report storage.
//
// Footprint: over 120 s of the serving letter stream under serving options
// the buffer's storage stops growing after warm-up and stays within twice
// the live reads.  Allocation: once warm, OnlineRecognizer::offer — the
// per-report serving path that ends in ReportBuffer::push — never touches
// the heap.  (Push semantics against reader::SampleStream are checked by
// test_stream_segmenter's differential test.)
//
// The counter instruments global operator new for this binary only and
// counts only while `g_counting` is set, around the measured calls alone.
#include "core/report_buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <type_traits>

#include "letter_stream.hpp"

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

namespace rfipad::core {
namespace {

static_assert(std::is_trivially_copyable_v<BufferedRead>,
              "a buffered read is a flat value");

constexpr double kStreamS = 120.0;
constexpr double kWarmupS = 60.0;

TEST(ReportBuffer, StorageStaysFlatAfterWarmupOnTheServingStream) {
  const testing::LetterStream ls = testing::buildLetterStream(/*seed=*/1, /*rounds=*/2);
  const double t_begin = ls.reports.front().time_s;
  ASSERT_GE(ls.reports.back().time_s - t_begin, kStreamS);
  OnlineRecognizer rec(ls.profile, testing::servingOptions(ls.options));
  SegmentScratch scratch;
  std::size_t peak_live = 0;
  std::size_t warm_bytes = 0;
  std::size_t max_bytes = 0;
  for (const reader::TagReport& r : ls.reports) {
    if (r.time_s - t_begin > kStreamS) break;
    if (rec.offer(r)) rec.processDue(scratch);
    const ReportBuffer& b = rec.segmentation().buffer();
    peak_live = std::max(peak_live, b.size());
    max_bytes = std::max(max_bytes, b.storageBytes());
    if (r.time_s - t_begin <= kWarmupS) warm_bytes = b.storageBytes();
  }
  RecordProperty("peak_live_reads", std::to_string(peak_live));
  RecordProperty("storage_bytes", std::to_string(max_bytes));
  EXPECT_GT(peak_live, 0u);
  EXPECT_EQ(max_bytes, warm_bytes) << "storage grew after warm-up";
  EXPECT_LE(max_bytes, 2 * peak_live * sizeof(BufferedRead));
}

TEST(ReportBuffer, SteadyStateOfferIsAllocationFree) {
  const testing::LetterStream ls = testing::buildLetterStream(/*seed=*/1, /*rounds=*/2);
  const double t_begin = ls.reports.front().time_s;
  OnlineRecognizer rec(ls.profile, testing::servingOptions(ls.options));
  SegmentScratch scratch;
  std::size_t measured = 0;
  std::size_t warmup_allocs = 0;
  for (const reader::TagReport& r : ls.reports) {
    if (r.time_s - t_begin > kStreamS) break;
    const bool steady = r.time_s - t_begin > kWarmupS;
    if (steady && measured++ == 0)
      warmup_allocs = g_allocs.exchange(0, std::memory_order_relaxed);
    // Count only inside offer(); the segmentation passes it triggers run
    // outside the counted region.
    g_counting.store(true, std::memory_order_relaxed);
    const bool due = rec.offer(r);
    g_counting.store(false, std::memory_order_relaxed);
    if (due) rec.processDue(scratch);
  }
  const std::size_t allocs = g_allocs.load(std::memory_order_relaxed);
  // The buffer grows while it first fills: proof the counter sees offer().
  EXPECT_GT(warmup_allocs, 0u);
  EXPECT_GT(measured, 10000u);
  EXPECT_EQ(allocs, 0u) << "offer() allocated in steady state";
}

}  // namespace
}  // namespace rfipad::core
