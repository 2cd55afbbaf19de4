// serve_realtime: open-loop live serving over the LLRP wire path.
//
// 512 long-lived pads replay their streams at a fixed 2x reader-clock
// speed-up: chunk c of pad p is due at t0 + (c + p/512) * 0.125 s, so pad
// phases are staggered across each period.  One generator thread paces
// on the steady clock (spinning, never sleeping) and, at each due time,
// decodes the chunk's RO_ACCESS_REPORT frames one by one, shifts the
// reports onto the session clock and ingests them; between frames and
// between due times it polls the pads whose letter-emitting chunk its
// shard has already processed.  A letter's latency runs from the due time
// of the chunk that emitted it in the reference replay to the poll that
// returned it.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "llrp/bridge.hpp"
#include "serving.hpp"
#include "service/session_manager.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rfipad;

namespace {

constexpr int kPads = 512;
constexpr int kWorkers = 2;
constexpr double kSpeedup = 2.0;
constexpr int kShards = 16;
constexpr double kWarmupS = 3.0;

struct Setup {
  ServingFixture fx;
  /// One stream per start template, and its reference letters.
  std::vector<std::vector<StreamStep>> plans;
  std::vector<std::vector<ExpectedLetter>> expected;
  /// expected_by[s][c]: reference letters emitted up to and including step c.
  std::vector<std::vector<std::uint32_t>> expected_by;
  ReplayCost replay;
};

Setup buildSetup(std::uint64_t seed, std::size_t num_chunks, Tracer* tracer) {
  Setup s;
  s.fx = buildServingFixture(seed, /*wire=*/true);
  for (std::size_t t = 0; t < s.fx.templates.size(); ++t) {
    s.plans.push_back(planStream(s.fx, t, num_chunks, 0));
    s.expected.push_back(referenceReplay(s.fx, s.plans.back(), s.replay, tracer));
    std::vector<std::uint32_t> by(num_chunks, 0);
    for (const ExpectedLetter& e : s.expected.back())
      for (std::size_t c = e.chunk; c < num_chunks; ++c) ++by[c];
    s.expected_by.push_back(std::move(by));
  }
  return s;
}

struct Outstanding {
  std::uint64_t ticket = 0;       // shard chunk count that makes it visible
  std::uint32_t expect_total = 0;  // letters the pad must have by then
};

struct Pad {
  service::SessionId id = service::kNoSession;
  std::uint32_t stream = 0;
  std::size_t shard = 0;
  std::uint32_t received = 0;
  std::vector<Outstanding> outstanding;  // FIFO, front = oldest
  bool pending = false;
};

}  // namespace

WorkloadResult runServeRealtime(const WorkloadArgs& args) {
  WorkloadResult out;
  Report& rep = out.report;
  Tracer* tracer = args.tracer;
  const int num_pads = args.pads > 0 ? args.pads : kPads;
  const std::int64_t period_ns = std::llround(kChunkS / kSpeedup * 1e9);
  const std::size_t num_chunks = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.seconds * 1e9 / static_cast<double>(period_ns)));
  // The first seconds fill every session's buffer (fresh pages, first
  // segmentation passes); letters, lags and CPU windows are measured after.
  const std::size_t warm_chunks = std::min(
      static_cast<std::size_t>(kWarmupS * 1e9 / static_cast<double>(period_ns)), num_chunks / 4);

  Setup setup;
  const double setup_s =
      medianSetupS(args, [&] { setup = buildSetup(args.seed, num_chunks, tracer); });
  if (args.corrupt_reference) corruptOneLetter(setup.expected);
  const ServingFixture& fx = setup.fx;

  service::ServiceOptions svc;
  svc.num_shards = kShards;
  svc.queue_capacity = 256;
  svc.policy = service::OverflowPolicy::kRejectNew;
  svc.threads = kWorkers;
  service::SessionManager manager(svc);

  std::vector<Pad> pads(static_cast<std::size_t>(num_pads));
  for (std::size_t p = 0; p < pads.size(); ++p) {
    service::SessionConfig config;
    config.profile = fx.profile;
    config.online = fx.online;
    Span span(tracer, "service.attach", p);
    pads[p].id = manager.attach(std::move(config));
    pads[p].stream = static_cast<std::uint32_t>(p % fx.templates.size());
    pads[p].shard = manager.shardOf(pads[p].id);
    pads[p].outstanding.reserve(4);
  }

  std::vector<std::uint64_t> shard_ingested(kShards, 0);
  std::vector<std::uint32_t> pending;
  std::vector<double> latency_ms, lag_ms;
  std::vector<reader::TagReport> staged, chunk;
  llrp::DecodeStats decode_stats;
  ServiceCalls calls;
  std::uint64_t samples = 0, letters_polled = 0, frames = 0;
  // Generator time spent on work (dispatching chunks, polling), as
  // opposed to waiting for the next due time or for a letter.
  std::int64_t busy_ns = 0;

  manager.startPumping(kWorkers);
  const std::int64_t t0 = nowNs() + 50'000'000;
  auto dueNs = [&](std::size_t pad, std::size_t c) {
    return t0 + static_cast<std::int64_t>(c) * period_ns +
           static_cast<std::int64_t>(pad) * period_ns / num_pads;
  };

  // Poll every pad whose oldest letter-emitting chunk its shard has
  // processed; compare what comes back with the reference, in order.
  auto servicePending = [&]() {
    for (std::size_t i = 0; i < pending.size();) {
      Pad& pad = pads[pending[i]];
      const Outstanding o = pad.outstanding.front();
      if (manager.processedChunks(pad.shard) < o.ticket) {
        ++i;
        continue;
      }
      const std::int64_t b0 = nowNs();
      std::vector<service::LetterEvent> events;
      {
        Span span(tracer, "service.poll", pad.id);
        events = manager.poll(pad.id);
      }
      const std::int64_t now = nowNs();
      busy_ns += now - b0;
      ++calls.polls;
      calls.hits += events.empty() ? 0 : 1;
      const auto& expected = setup.expected[pad.stream];
      const std::string who = "pad " + std::to_string(pending[i]);
      checkLetters(rep, who, events, expected, pad.received, [&](std::uint32_t k) {
        if (expected[k].chunk < warm_chunks) return;
        ++letters_polled;
        latency_ms.push_back(
            static_cast<double>(now - dueNs(pending[i], expected[k].chunk)) * 1e-6);
      });
      requireLetters(rep, who, pad.received, o.expect_total);
      pad.outstanding.erase(pad.outstanding.begin());
      if (pad.outstanding.empty()) {
        pad.pending = false;
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        ++i;
      }
    }
  };

  const double layer0 = layerSelfNs(tracer);
  const double cpu0 = processCpuS();
  const double gen_cpu0 = threadCpuS();
  std::size_t dispatched = 0;
  // The generator's pacing spin is not work: count its busy time instead
  // of its thread CPU.
  CpuPerUnit cpu_windows;
  const std::size_t window_chunks = static_cast<std::size_t>(1e9 / static_cast<double>(period_ns));
  std::uint64_t warm_samples = 0;
  for (std::size_t c = 0; c < num_chunks; ++c) {
    if (c == warm_chunks) warm_samples = samples;
    if (c >= warm_chunks && (c - warm_chunks) % window_chunks == 0)
      cpu_windows.mark(processCpuS() - threadCpuS() + static_cast<double>(busy_ns) * 1e-9,
                       static_cast<double>(samples));
    for (std::size_t p = 0; p < pads.size(); ++p) {
      const std::int64_t due = dueNs(p, c);
      std::int64_t now;
      while ((now = nowNs()) < due) {
        if (!pending.empty()) servicePending();
      }
      if (c >= warm_chunks) lag_ms.push_back(static_cast<double>(now - due) * 1e-6);
      Pad& pad = pads[p];
      const StreamStep& step = setup.plans[pad.stream][c];
      const std::int64_t busy_before = busy_ns;
      {
        Span dispatch(tracer, "gen.dispatch", pad.id);
        // Frame by frame, as a client reading the reader connection
        // would; letters that became ready meanwhile are polled between
        // frames, so a letter's latency does not wait for a whole chunk's
        // decode of another pad.
        const auto& wire = fx.templates[step.tpl].frames[step.chunk];
        staged.clear();
        for (std::size_t f = 0; f < wire.size(); ++f) {
          if (f > 0) servicePending();
          reader::SampleStream decoded;
          {
            Span span(tracer, "llrp.decode", pad.id);
            decoded = llrp::decodeFrames(wire[f], {}, &decode_stats);
          }
          Span span(tracer, "gen.shift", pad.id);
          for (reader::TagReport r : decoded.reports()) {
            r.time_s += step.offset_s;
            staged.push_back(r);
          }
        }
        frames += wire.size();
        auto fillChunk = [&] {
          Span span(tracer, "gen.shift", pad.id);
          chunk.assign(staged.begin(), staged.end());
        };
        fillChunk();
        samples += chunk.size();
        {
          Span span(tracer, "service.ingest", pad.id);
          while (!manager.ingest(pad.id, std::move(chunk))) {
            ++calls.rejects;
            fillChunk();
          }
        }
        ++calls.ingests;
        ++shard_ingested[pad.shard];
        const std::uint32_t by = setup.expected_by[pad.stream][c];
        const std::uint32_t before = c > 0 ? setup.expected_by[pad.stream][c - 1] : 0;
        if (by != before) {
          pad.outstanding.push_back({shard_ingested[pad.shard], by});
          if (!pad.pending) {
            pad.pending = true;
            pending.push_back(static_cast<std::uint32_t>(p));
          }
        }
        if ((++dispatched & 63) == 0) {
          for (int s = 0; s < kShards; ++s)
            calls.backlog.push_back(static_cast<double>(
                shard_ingested[static_cast<std::size_t>(s)] -
                manager.processedChunks(static_cast<std::size_t>(s))));
        }
      }
      // The polls inside the dispatch already counted themselves.
      busy_ns = busy_before + (nowNs() - now);
      servicePending();
    }
  }
  const std::int64_t t_gen_end = nowNs();
  // Drain: every letter a processed chunk emits must reach a poll.
  const std::int64_t drain_deadline = t_gen_end + 20'000'000'000;
  while (!pending.empty() && nowNs() < drain_deadline) servicePending();
  for (std::uint32_t p : pending)
    rep.fail("pad " + std::to_string(p) + ": letter never became visible");
  const double cpu1 = processCpuS();
  const double gen_cpu1 = threadCpuS();
  const double layer1 = layerSelfNs(tracer);

  for (std::size_t s = 0; s < shard_ingested.size(); ++s) {
    while (manager.processedChunks(s) < shard_ingested[s] && nowNs() < drain_deadline) {
    }
  }
  const core::PumpStats pump = manager.pumpStats();
  service::ServiceStats stats;
  manager.stats(service::kNoSession, stats);

  // Detach flushes each pad; the flushed letters close its sequence.
  std::uint64_t expected_total = 0;
  for (std::size_t p = 0; p < pads.size(); ++p) {
    Pad& pad = pads[p];
    std::vector<service::LetterEvent> events;
    {
      Span span(tracer, "service.detach", pad.id);
      events = manager.detach(pad.id);
    }
    const auto& expected = setup.expected[pad.stream];
    expected_total += expected.size();
    const std::string who = "pad " + std::to_string(p) + " flushed";
    checkLetters(rep, who, events, expected, pad.received, [](std::uint32_t) {});
    requireLetters(rep, who, pad.received, expected.size());
  }
  manager.stopPumping();

  const std::uint64_t malformed = decode_stats.frames_malformed +
                                  decode_stats.reports_malformed +
                                  decode_stats.reports_bad_index;
  const std::uint64_t unknown = stats.queue.rejected_unknown_session;
  if (malformed > 0) rep.fail("malformed frame or report", malformed);
  if (unknown + stats.queue.dropped_oldest > 0)
    rep.fail("chunk not fed to its session", unknown + stats.queue.dropped_oldest);
  rep.attempted = calls.ingests + frames + expected_total;

  // Accuracy against the written letters, over the reference letters
  // (which the check above proved the service reproduced).
  std::uint64_t right = 0, emitted = 0;
  for (const Pad& pad : pads) {
    for (const ExpectedLetter& e : setup.expected[pad.stream]) {
      ++emitted;
      right += e.letter == e.truth ? 1 : 0;
    }
  }

  const double gen_s = static_cast<double>(t_gen_end - t0) * 1e-9;
  const double measured_s = static_cast<double>(t_gen_end - dueNs(0, warm_chunks)) * 1e-9;
  const double pump_cpu_s = (cpu1 - cpu0) - (gen_cpu1 - gen_cpu0);
  const double n = static_cast<double>(std::max<std::uint64_t>(samples, 1));
  rep.add("setup_s", setup_s, "s");
  rep.add("peak_rss_mb", peakRssMb(), "MiB");
  rep.add("cpu_ns_per_sample", cpu_windows.median(), "ns");
  rep.add("samples_per_s", static_cast<double>(samples - warm_samples) / measured_s, "1/s");
  rep.add("letter_latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  out.extras["letters_per_s"] = static_cast<double>(letters_polled) / measured_s;
  out.extras["letter_latency_p99_ms"] = quantile(latency_ms, 0.99);
  out.extras["letter_accuracy"] =
      static_cast<double>(right) / static_cast<double>(std::max<std::uint64_t>(emitted, 1));
  out.headline = "letter_latency_p50_ms";

  rep.note("pads", num_pads);
  rep.note("pump_workers", kWorkers);
  rep.note("shards", kShards);
  rep.note("speedup", kSpeedup);
  rep.note("chunks_per_pad", static_cast<double>(num_chunks));
  rep.note("warmup_chunks", static_cast<double>(warm_chunks));
  rep.note("offered_reports_per_s",
           static_cast<double>(samples) * 1e9 /
               static_cast<double>(num_chunks * static_cast<std::size_t>(period_ns)));
  rep.note("letters", static_cast<double>(expected_total));
  rep.note("latency_samples", static_cast<double>(latency_ms.size()));
  rep.note("samples", static_cast<double>(samples));

  LayerValues& L = out.layers;
  fillServingLayers(L, tracer, calls, pump, setup.replay, pump_cpu_s * 1e9, n);
  const SpanAggregate decode = tracer ? tracer->aggregate("llrp.decode") : SpanAggregate{};
  L["llrp.decode.ns_per_sample"] = static_cast<double>(decode.total_ns) / n;
  L["llrp.decode.malformed"] = static_cast<double>(malformed);
  L["gen.busy_ratio"] = static_cast<double>(busy_ns) * 1e-9 / gen_s;
  L["gen.lag_p99_ms"] = quantile(lag_ms, 0.99);
  // Work time over the generation window: pump CPU plus generator busy
  // time (the pacing spin and the wait for letters left out).
  if (tracer != nullptr)
    fillAccounting(L, layer1 - layer0 + pump_cpu_s * 1e9,
                   pump_cpu_s * 1e9 + static_cast<double>(busy_ns), n);
  rep.note("gen_lag_p99_ms", L["gen.lag_p99_ms"]);
  return out;
}

}  // namespace perfbench
