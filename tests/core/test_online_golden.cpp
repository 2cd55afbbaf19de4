// Golden online output: the letters and every emitted stroke interval of
// one pad writing the serving bench's eight letter templates, under the
// serving and the default options, on a clean stream and under two fault
// plans.  The fixture (online_golden.txt) was recorded from the whole-buffer
// re-segmenting recogniser; streaming segmentation must reproduce it bit for
// bit (intervals are stored as hex floats).
//
// Regenerate after an intended output change with
//   RFIPAD_UPDATE_GOLDEN=1 ./build/tests/test_online_golden
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "letter_stream.hpp"

namespace rfipad::core {
namespace {

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

struct FaultCase {
  const char* name;
  fault::FaultPlan plan;
};

std::vector<FaultCase> faultCases() {
  std::vector<FaultCase> cases;
  cases.push_back({"clean", fault::FaultPlan{}});
  fault::FaultPlan dropout;
  dropout.seed = 0xD10;
  dropout.missread.drop_prob_good = 0.10;
  cases.push_back({"dropout10", dropout});
  fault::FaultPlan transport;
  transport.seed = 0x7A5;
  transport.jitter.reorder_prob = 0.05;
  transport.jitter.duplicate_prob = 0.05;
  transport.jitter.clock_jitter_std_s = 0.002;
  cases.push_back({"reorder_dup_jitter", transport});
  return cases;
}

/// Letters and stroke intervals of one recogniser fed `reports` through
/// the offer/processDue/flushWith API.
std::string runCase(const testing::LetterStream& ls, const OnlineOptions& options,
                    const std::vector<reader::TagReport>& reports) {
  OnlineRecognizer rec(ls.profile, options);
  std::string letters;
  std::string strokes;
  rec.onLetter([&](char c, const std::vector<StrokeEvent>&) { letters += c; });
  rec.onStroke([&](const StrokeEvent& ev) {
    strokes += "stroke " + hex(ev.interval.t0) + " " + hex(ev.interval.t1) + "\n";
  });
  SegmentScratch scratch;
  for (const reader::TagReport& r : reports) {
    if (rec.offer(r)) rec.processDue(scratch);
  }
  rec.flushWith(scratch);
  return "letters " + letters + "\n" + strokes;
}

std::string goldenText() {
  const testing::LetterStream ls = testing::buildLetterStream(/*seed=*/1);
  const std::vector<std::pair<const char*, OnlineOptions>> option_sets = {
      {"serving", testing::servingOptions(ls.options)}, {"default", ls.options}};
  std::string out;
  for (const FaultCase& fc : faultCases()) {
    const std::vector<reader::TagReport> reports =
        fc.plan.applyToReports(ls.reports, ls.num_tags);
    for (const auto& [name, options] : option_sets) {
      out += std::string("case ") + name + " " + fc.name + "\n";
      out += runCase(ls, options, reports);
    }
  }
  return out;
}

TEST(OnlineGolden, LettersAndStrokeIntervalsMatchFixture) {
  const std::string path = std::string(RFIPAD_TEST_DATA_DIR) + "/online_golden.txt";
  const std::string actual = goldenText();
  if (std::getenv("RFIPAD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path) << actual;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str());
}

}  // namespace
}  // namespace rfipad::core
