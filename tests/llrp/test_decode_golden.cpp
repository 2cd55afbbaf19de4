// Golden LLRP decode output.  Every frame of a fixed corpus is decoded on
// its own, leniently and strictly, and the fixture (decode_golden.txt)
// pins every DecodeStats counter and every delivered report field (floats
// as hex floats) bit for bit.  The fixture was recorded from the two-stage
// decoder (decodeRoAccessReport, then fromWire per report) that the
// single-pass RoAccessReportWalker replaced.  The corpus:
//   - hand-built malformed frames: truncated and lying headers, wrong
//     message types and versions, bad TLV lengths, unknown TV/TLV
//     parameters, short Impinj custom parameters, oversized tag indices;
//   - a seeded simulated capture encoded as 16-report frames, clean and
//     after FaultPlan frame truncation and bit flips;
//   - seeded random byte mutations and truncations of those clean frames,
//     decoded with the default EPC index and with a custom resolver that
//     rejects some EPCs.
// A mutated frame's report lines are coded against its source frame's
// clean decode (printed in full once; see record()), which keeps the
// fixture small without dropping a field.
//
// Regenerate after an intended output change with
//   RFIPAD_UPDATE_GOLDEN=1 ./build/tests/test_llrp_decode_golden
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "llrp/bridge.hpp"
#include "llrp/messages.hpp"
#include "sim/letters.hpp"
#include "sim/scenario.hpp"

namespace rfipad::llrp {
namespace {

using Resolver = std::function<std::uint32_t(const std::string&)>;

constexpr std::uint32_t kNoCap = std::numeric_limits<std::uint32_t>::max();

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Portable seeded generator (splitmix64): the mutation corpus must not
/// depend on a standard library's distribution algorithms.
struct Mix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

std::string reportLine(const reader::TagReport& r) {
  char idx[16];
  std::snprintf(idx, sizeof(idx), "%X", r.tag_index);
  return "r " + r.epc.str() + " " + idx + " " + std::to_string(r.antenna_id) + " " +
         hex(r.time_s) + " " + hex(r.phase_rad) + " " + hex(r.rssi_dbm) + " " +
         hex(r.doppler_hz) + " " + hex(r.channel_mhz) + " " +
         (r.imputed ? "1" : "0");
}

/// One frame's lenient decode as fixture lines: decodeFrame into a fresh
/// stream, or decodeFrames when a resolver is set.
std::vector<std::string> decodeLines(const Bytes& frame, const Resolver& resolver,
                                     std::uint32_t cap) {
  DecodeStats st;
  reader::SampleStream s;
  if (resolver) {
    s = decodeFrames({frame}, resolver, &st, cap);
  } else {
    decodeFrame(frame, s, st, cap);
  }
  std::vector<std::string> lines;
  lines.push_back("stats " + std::to_string(st.frames) + " " +
                  std::to_string(st.frames_malformed) + " " +
                  std::to_string(st.reports) + " " +
                  std::to_string(st.reports_malformed) + " " +
                  std::to_string(st.reports_bad_index) + " " +
                  std::to_string(s.reorderCount()) + " " +
                  std::to_string(s.duplicateCount()) + " " +
                  std::to_string(s.numTags()));
  for (const reader::TagReport& r : s.reports()) lines.push_back(reportLine(r));
  return lines;
}

std::string strictLine(const Bytes& frame) {
  try {
    const RoAccessReport report = decodeRoAccessReport(frame);
    return "strict ok " + std::to_string(report.reports.size()) + "\n";
  } catch (const DecodeError&) {
    return "strict throw\n";
  }
}

/// `line` with every space-separated field equal to the same field of
/// `base` written as ".", marked "*".
std::string fieldDiff(const std::string& line, const std::string& base) {
  std::istringstream a(line);
  std::istringstream b(base);
  std::string out = "*";
  std::string fa;
  std::string fb;
  a >> fa;  // the "r" tag
  b >> fb;
  while (a >> fa) {
    if (!(b >> fb)) fb.clear();
    out += ' ';
    out += fa == fb ? std::string(".") : fa;
  }
  return out;
}

/// Append one frame's record: the stats line, the report lines, then the
/// strict outcome.  With a `reference` (the source frame's clean decode)
/// report lines are coded against it: "= n" for the next n reference lines
/// delivered unchanged, "~ n" for n reference lines not delivered, a full
/// line for anything else, which replaces one reference line and is coded
/// field by field against it ("*", see fieldDiff).
void record(std::string& out, const std::string& label, const Bytes& frame,
            const Resolver& resolver, std::uint32_t cap,
            const std::vector<std::string>* reference = nullptr) {
  out += "frame " + label + " " + std::to_string(frame.size()) + "\n";
  const std::vector<std::string> lines = decodeLines(frame, resolver, cap);
  out += lines[0] + "\n";
  const std::size_t ref_size = reference != nullptr ? reference->size() : 0;
  std::size_t p = 1;  // next reference line (index 0 is its stats line)
  std::size_t run = 0;
  auto flush = [&] {
    if (run > 0) out += "= " + std::to_string(run) + "\n";
    run = 0;
  };
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::size_t skip = 0;
    while (skip <= 3 && p + skip < ref_size && lines[i] != (*reference)[p + skip]) ++skip;
    if (skip <= 3 && p + skip < ref_size) {
      if (skip > 0) {
        flush();
        out += "~ " + std::to_string(skip) + "\n";
      }
      p += skip + 1;
      ++run;
      continue;
    }
    flush();
    out += p < ref_size ? fieldDiff(lines[i], (*reference)[p]) : lines[i];
    out += "\n";
    ++p;
  }
  flush();
  out += strictLine(frame);
}

reader::TagReport corpusReport(std::uint32_t tag, double t) {
  reader::TagReport r;
  char epc[25];
  std::snprintf(epc, sizeof(epc), "AABBCCDDEEFF0011%08X", tag);
  r.epc = epc;
  r.tag_index = tag;
  r.time_s = t;
  r.phase_rad = 1.25;
  r.rssi_dbm = -47.5;
  r.doppler_hz = -0.75;
  return r;
}

/// A TagReportData parameter built by hand; `body` follows the TLV header.
void tagReportParam(BufferWriter& w, const Bytes& body) {
  w.u16(kParamTagReportData);
  w.u16(static_cast<std::uint16_t>(body.size() + 4));
  w.raw(body);
}

Bytes withHeader(std::uint16_t first, std::uint32_t length, const Bytes& body) {
  BufferWriter w;
  w.u16(first);
  w.u32(length);
  w.u32(7);
  w.raw(body);
  return w.take();
}

/// RO_ACCESS_REPORT around hand-built parameter bytes.
Bytes roAccess(const Bytes& params) {
  return withHeader((1u << 10) | 61u, static_cast<std::uint32_t>(params.size() + 10),
                    params);
}

/// The body of one well-formed TagReportData (EPC, antenna, RSSI, first
/// seen, Impinj phase) for tag `tag`; callers splice extra parameters in.
Bytes goodBody(std::uint32_t tag, const Bytes& extra = {}) {
  BufferWriter w;
  w.u8(0x80 | kParamEpc96);
  const Bytes epc = {0x30, 0x00, 0xAA, 0x00, 0xBB, 0x00, 0xCC, 0x00,
                     static_cast<std::uint8_t>(tag >> 24),
                     static_cast<std::uint8_t>(tag >> 16),
                     static_cast<std::uint8_t>(tag >> 8),
                     static_cast<std::uint8_t>(tag)};
  w.raw(epc);
  w.u8(0x80 | kParamAntennaId);
  w.u16(2);
  w.u8(0x80 | kParamPeakRssi);
  w.s8(-51);
  w.u8(0x80 | kParamFirstSeenUtc);
  w.u64(1500000 + tag * 1000ull);
  w.u16(kParamCustom);
  w.u16(14);
  w.u32(kImpinjVendorId);
  w.u32(kImpinjPhaseSubtype);
  w.u16(static_cast<std::uint16_t>(100 * tag + 7));
  w.raw(extra);
  return w.take();
}

Bytes customParam(std::uint32_t vendor, std::uint32_t subtype, const Bytes& value) {
  BufferWriter w;
  w.u16(kParamCustom);
  w.u16(static_cast<std::uint16_t>(12 + value.size()));
  w.u32(vendor);
  w.u32(subtype);
  w.raw(value);
  return w.take();
}

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Bytes param(const Bytes& body) {
  BufferWriter w;
  tagReportParam(w, body);
  return w.take();
}

std::vector<std::pair<std::string, Bytes>> malformedCorpus() {
  std::vector<std::pair<std::string, Bytes>> c;
  reader::SampleStream clean(4);
  for (int j = 0; j < 4; ++j)
    for (std::uint32_t i = 0; i < 4; ++i) clean.push(corpusReport(i, j * 0.1 + i * 0.01));
  const Bytes base = encodeStream(clean).at(0);
  c.push_back({"clean", base});
  for (std::size_t n : {0u, 1u, 2u, 5u, 6u, 9u, 10u, 11u, 13u, 14u, 40u})
    c.push_back({"cut" + std::to_string(n), Bytes(base.begin(), base.begin() + n)});
  c.push_back({"cut_half", Bytes(base.begin(), base.begin() + base.size() / 2)});
  c.push_back({"cut_last", Bytes(base.begin(), base.end() - 1)});
  Bytes b = base;
  b[12] = 0xFF;
  b[13] = 0xFF;
  c.push_back({"tlv_len_ffff", b});
  b = base;
  b[12] = 0x00;
  b[13] = 0x02;
  c.push_back({"tlv_len_2", b});
  b = base;
  b[12] = 0x00;
  b[13] = 0x04;
  c.push_back({"tlv_len_4", b});
  c.push_back({"keepalive", encodeKeepalive(9)});
  c.push_back({"reader_event", encodeReaderEventNotification(10, 123456)});
  c.push_back({"add_rospec", encodeAddRospec(11, Rospec{})});
  const Bytes params(base.begin() + 10, base.end());
  c.push_back({"version0", withHeader(61u, static_cast<std::uint32_t>(base.size()), params)});
  c.push_back({"version2", withHeader((2u << 10) | 61u,
                                      static_cast<std::uint32_t>(base.size()), params)});
  c.push_back({"reserved_bits", withHeader(0xE000u | (1u << 10) | 61u,
                                           static_cast<std::uint32_t>(base.size()), params)});
  c.push_back({"len9", withHeader((1u << 10) | 61u, 9, params)});
  c.push_back({"len_too_big", withHeader((1u << 10) | 61u, 100000, params)});
  c.push_back({"len_too_small", withHeader((1u << 10) | 61u, 10, params)});
  c.push_back({"empty_report", roAccess({})});
  c.push_back({"trailing_3", roAccess(concat({param(goodBody(1)), Bytes{1, 2, 3}}))});
  c.push_back({"top_tv", roAccess(concat({param(goodBody(1)), Bytes{0x81, 0, 1, 0, 0},
                                          param(goodBody(2))}))});
  {
    BufferWriter w;
    w.u16(kParamLlrpStatus);
    w.u16(8);
    w.u32(0);
    c.push_back({"top_unknown_tlv",
                 roAccess(concat({param(goodBody(1)), w.take(), param(goodBody(2))}))});
  }
  c.push_back({"top_unknown_tlv_bad_len",
               roAccess(concat({param(goodBody(1)), Bytes{0x01, 0x1F, 0x00, 0x03, 0, 0},
                                param(goodBody(2))}))});
  c.push_back({"top_unknown_tlv_overlong",
               roAccess(concat({param(goodBody(1)), Bytes{0x01, 0x1F, 0x01, 0x00, 0, 0}}))});
  c.push_back({"tagreport_no_epc", roAccess(param({0x81, 0x00, 0x03}))});
  c.push_back({"tagreport_empty", roAccess(param({}))});
  c.push_back({"unknown_tv", roAccess(concat({param(goodBody(1, {0x85, 0x00})),
                                              param(goodBody(2))}))});
  c.push_back({"tv_epc_truncated", roAccess(concat({param({0x8D, 1, 2, 3}),
                                                    param(goodBody(2))}))});
  c.push_back({"tv_antenna_truncated", roAccess(param(concat({goodBody(3), {0x81, 0x00}})))});
  c.push_back({"tv_rssi_truncated", roAccess(param(concat({goodBody(3), {0x86}})))});
  c.push_back({"tv_time_truncated", roAccess(param(concat({goodBody(3), {0x82, 0, 0, 0}})))});
  c.push_back({"inner_tlv_header_truncated",
               roAccess(concat({param(goodBody(4, {0x00})), param(goodBody(5))}))});
  c.push_back({"inner_tlv_len_truncated",
               roAccess(concat({param(goodBody(4, {0x03, 0xFF, 0x00})), param(goodBody(5))}))});
  c.push_back({"inner_tlv_len_3",
               roAccess(concat({param(goodBody(4, {0x00, 0x80, 0x00, 0x03})),
                                param(goodBody(5))}))});
  c.push_back({"inner_tlv_overlong",
               roAccess(concat({param(goodBody(4, {0x00, 0x80, 0x00, 0x09, 1})),
                                param(goodBody(5))}))});
  c.push_back({"inner_unknown_tlv",
               roAccess(param(goodBody(6, {0x00, 0x80, 0x00, 0x06, 0xAB, 0xCD})))});
  c.push_back({"custom_foreign_vendor",
               roAccess(param(goodBody(6, customParam(12345, kImpinjPhaseSubtype, {1, 2}))))});
  c.push_back({"custom_unknown_subtype",
               roAccess(param(goodBody(6, customParam(kImpinjVendorId, 99, {1, 2}))))});
  c.push_back({"custom_short_header",
               roAccess(concat({param(goodBody(6, {0x03, 0xFF, 0x00, 0x0A, 0, 0, 0x65, 0x1A,
                                                  0, 0})),
                                param(goodBody(7))}))});
  c.push_back({"custom_short_value",
               roAccess(concat({param(goodBody(6, customParam(kImpinjVendorId,
                                                              kImpinjDopplerSubtype, {1}))),
                                param(goodBody(7))}))});
  c.push_back({"custom_long_value",
               roAccess(param(goodBody(6, customParam(kImpinjVendorId, kImpinjPeakRssiSubtype,
                                                      {0xF0, 0x10, 0xEE, 0xEE}))))});
  c.push_back({"custom_all_fields",
               roAccess(param(goodBody(
                   6, concat({customParam(kImpinjVendorId, kImpinjDopplerSubtype, {0xFF, 0x80}),
                              customParam(kImpinjVendorId, kImpinjPeakRssiSubtype,
                                          {0xEF, 0x9C})}))))});
  c.push_back({"repeated_fields",
               roAccess(param(goodBody(6, concat({goodBody(8), {0x86, 0x7F}}))))});
  c.push_back({"index_ffffffff", roAccess(param(goodBody(0xFFFFFFFFu)))});
  c.push_back({"index_25", roAccess(param(goodBody(25)))});
  c.push_back({"index_24", roAccess(param(goodBody(24)))});
  c.push_back({"out_of_order", roAccess(concat({param(goodBody(9)), param(goodBody(3))}))});
  c.push_back({"duplicate", roAccess(concat({param(goodBody(3)), param(goodBody(3))}))});
  return c;
}

/// Throws for EPCs outside the simulated manager prefix, so the lenient
/// decode's resolver-failure accounting is pinned too.
std::uint32_t strictResolver(const std::string& epc) {
  if (epc.size() != 24) throw std::length_error("EPC-96 expected");
  if (epc.compare(0, 4, "3000") != 0) throw std::invalid_argument("foreign EPC");
  return static_cast<std::uint32_t>(std::stoul(epc.substr(16), nullptr, 16)) ^ 0x5A5Au;
}

std::vector<Bytes> seededFrames() {
  sim::ScenarioConfig config;
  config.seed = 1;
  sim::Scenario scen(config);
  const sim::UserProfile user = sim::defaultUsers()[0];
  sim::TrajectoryBuilder b(user, scen.forkRng(1000));
  b.hold(0.2);
  for (const auto& plan :
       sim::letterPlans('C', 0.75 * scen.padHalfExtent(), 0.95 * scen.padHalfExtent()))
    b.stroke(plan);
  b.retract();
  std::vector<Bytes> frames = encodeStream(scen.capture(b.build(), user).stream);
  frames.resize(std::min<std::size_t>(frames.size(), 48));
  return frames;
}

std::string goldenText() {
  std::string out;
  for (const auto& [label, frame] : malformedCorpus()) {
    record(out, "corpus/" + label, frame, {}, 24);
    record(out, "corpus_resolver/" + label, frame, strictResolver, kNoCap);
  }

  const std::vector<Bytes> clean = seededFrames();
  std::vector<std::vector<std::string>> reference;
  std::vector<std::vector<std::string>> resolved;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    record(out, "clean/" + std::to_string(i), clean[i], {}, kNoCap);
    reference.push_back(decodeLines(clean[i], {}, kNoCap));
    resolved.push_back(decodeLines(clean[i], strictResolver, kNoCap));
  }

  fault::FaultPlan plan;
  plan.seed = 0xDEC0DE;
  plan.frame.truncate_prob = 0.3;
  plan.frame.bit_flip_prob = 0.6;
  plan.frame.flips_per_frame = 3;
  for (std::uint64_t salt = 0; salt < 6; ++salt) {
    const std::vector<Bytes> faulted = plan.applyToFrames(clean, salt);
    for (std::size_t i = 0; i < faulted.size(); ++i)
      record(out, "faultplan/" + std::to_string(salt) + "/" + std::to_string(i),
             faulted[i], {}, 24, &reference[i]);
  }

  Mix mix{0x5EEDF00Dull};
  for (int k = 0; k < 3000; ++k) {
    const std::size_t src = mix.below(clean.size());
    Bytes f = clean[src];
    std::string kind;
    switch (k % 3) {
      case 0: {  // random byte values
        const std::size_t n = 1 + mix.below(4);
        for (std::size_t j = 0; j < n; ++j)
          f[mix.below(f.size())] = static_cast<std::uint8_t>(mix.next());
        kind = "bytes";
        break;
      }
      case 1: {  // bit flips
        const std::size_t n = 1 + mix.below(8);
        for (std::size_t j = 0; j < n; ++j)
          f[mix.below(f.size())] ^= static_cast<std::uint8_t>(1u << mix.below(8));
        kind = "flips";
        break;
      }
      default:  // truncation, sometimes with a flipped byte first
        if (mix.below(2) == 0) f[mix.below(f.size())] ^= 0xFF;
        f.resize(mix.below(f.size()));
        kind = "cut";
        break;
    }
    const bool resolve = k % 5 == 4;
    record(out, "mutant/" + std::to_string(k) + "/" + kind + "/" + std::to_string(src),
           f, resolve ? Resolver(strictResolver) : Resolver{}, resolve ? kNoCap : 24,
           resolve ? &resolved[src] : &reference[src]);
  }
  return out;
}

TEST(DecodeGolden, LenientAndStrictDecodeMatchFixture) {
  const std::string path = std::string(RFIPAD_TEST_DATA_DIR) + "/decode_golden.txt";
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

TEST(DecodeGolden, FrameVectorDecodeMatchesPerFrameDecode) {
  // decodeFrames over a vector and decodeFrame frame by frame into one
  // stream must agree on every counter and report; the emit form (no index
  // cap) on every report that passes the cap.
  fault::FaultPlan plan;
  plan.seed = 0xDEC0DE;
  plan.frame.truncate_prob = 0.3;
  plan.frame.bit_flip_prob = 0.6;
  const std::vector<Bytes> frames = plan.applyToFrames(seededFrames(), 1);
  DecodeStats whole;
  const reader::SampleStream a = decodeFrames(frames, {}, &whole, 24);
  DecodeStats each;
  reader::SampleStream b;
  DecodeStats emitted;
  std::vector<reader::TagReport> c;
  for (const Bytes& f : frames) {
    decodeFrame(f, b, each, 24);
    decodeFrame(f, emitted, [&c](const reader::TagReport& r) { c.push_back(r); });
  }
  EXPECT_EQ(each.frames, whole.frames);
  EXPECT_EQ(each.frames_malformed, whole.frames_malformed);
  EXPECT_EQ(each.reports, whole.reports);
  EXPECT_EQ(each.reports_malformed, whole.reports_malformed);
  EXPECT_EQ(each.reports_bad_index, whole.reports_bad_index);
  EXPECT_GT(whole.frames_malformed + whole.reports_malformed + whole.reports_bad_index, 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(reportLine(a[i]), reportLine(b[i]));
  EXPECT_EQ(emitted.reports_malformed, whole.reports_malformed);
  EXPECT_EQ(emitted.reports, whole.reports + whole.reports_bad_index);
  std::vector<reader::TagReport> capped;
  for (const reader::TagReport& r : c)
    if (r.tag_index <= 24) capped.push_back(r);
  ASSERT_EQ(capped.size(), whole.reports);
}

}  // namespace
}  // namespace rfipad::llrp
