// serve_capacity: closed-loop saturated serving over TagReports (no LLRP).
//
// 256 pad slots with churn: each pad writes two letters, is detached once
// its shard has processed its last chunk, and a fresh pad attaches in its
// slot, starting one template further along the rotation.  One producer
// round-robins the slots, offering each pad's next chunk as fast as the
// kRejectNew backpressure admits it; a refused chunk stays due and the
// producer moves to the next slot.  Letters are polled as soon as the
// shard has processed the chunk that emits them in the reference replay.
// The producer's time between calls (skipping blocked shards and slots
// whose letter is not ready) is waiting, not work: like serve_realtime's
// pacing spin it is left out of cpu_ns_per_sample.
#include <algorithm>
#include <string>
#include <vector>

#include "serving.hpp"
#include "service/session_manager.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rfipad;

namespace {

constexpr int kSlots = 256;
constexpr int kWorkers = 2;
constexpr int kShards = 16;
constexpr int kLettersPerPad = 2;
constexpr std::size_t kQueueCapacity = 64;
constexpr double kWindowS = 0.5;
constexpr double kWarmupS = 2.0;

struct Setup {
  ServingFixture fx;
  std::vector<std::vector<StreamStep>> plans;  // by start template
  std::vector<std::vector<ExpectedLetter>> expected;
  ReplayCost replay;
};

Setup buildSetup(std::uint64_t seed, Tracer* tracer) {
  Setup s;
  s.fx = buildServingFixture(seed, /*wire=*/false);
  for (std::size_t t = 0; t < s.fx.templates.size(); ++t) {
    s.plans.push_back(planStream(s.fx, t, 0, kLettersPerPad));
    s.expected.push_back(referenceReplay(s.fx, s.plans.back(), s.replay, tracer));
  }
  return s;
}

struct Slot {
  service::SessionId id = service::kNoSession;
  std::uint32_t stream = 0;
  std::size_t shard = 0;
  std::uint32_t generation = 0;
  std::uint32_t step = 0;      // next chunk to offer
  std::uint32_t received = 0;  // letters polled so far
  std::uint32_t next_letter = 0;  // next reference letter to wait for
  std::uint64_t letter_ticket = 0;
  std::int64_t letter_ingest_ns = 0;
  bool waiting_letter = false;
  bool draining = false;  // all chunks offered; detach once processed
  std::uint64_t drain_ticket = 0;
};

}  // namespace

WorkloadResult runServeCapacity(const WorkloadArgs& args) {
  WorkloadResult out;
  Report& rep = out.report;
  Tracer* tracer = args.tracer;
  const int num_slots = args.pads > 0 ? args.pads : kSlots;

  Setup setup;
  const double setup_s = medianSetupS(args, [&] { setup = buildSetup(args.seed, tracer); });
  if (args.corrupt_reference) corruptOneLetter(setup.expected);
  const ServingFixture& fx = setup.fx;
  const std::size_t num_streams = fx.templates.size();

  service::ServiceOptions svc;
  svc.num_shards = kShards;
  svc.queue_capacity = kQueueCapacity;
  svc.policy = service::OverflowPolicy::kRejectNew;
  svc.threads = kWorkers;
  service::SessionManager manager(svc);

  auto attach = [&](Slot& slot, std::size_t index) {
    service::SessionConfig config;
    config.profile = fx.profile;
    config.online = fx.online;
    Span span(tracer, "service.attach", index);
    slot.id = manager.attach(std::move(config));
    slot.stream = static_cast<std::uint32_t>((index + slot.generation) % num_streams);
    slot.shard = manager.shardOf(slot.id);
    slot.step = slot.received = slot.next_letter = 0;
    slot.waiting_letter = slot.draining = false;
  };
  std::vector<Slot> slots(static_cast<std::size_t>(num_slots));
  for (std::size_t i = 0; i < slots.size(); ++i) attach(slots[i], i);

  std::vector<std::uint64_t> shard_ingested(kShards, 0);
  constexpr std::uint64_t kNotBlocked = ~std::uint64_t{0};
  std::vector<std::uint64_t> blocked_at(kShards, kNotBlocked);
  std::vector<double> latency_ms, window_rates;
  std::vector<reader::TagReport> chunk;
  ServiceCalls calls;
  std::uint64_t samples = 0;
  std::uint64_t letters_polled = 0, letters_checked = 0, letters_due = 0, pads_done = 0;
  std::int64_t busy_ns = 0;  // producer time inside calls to the service
  bool generating = true;

  // Once the shard has processed the chunk that emits a slot's next
  // reference letter, poll it and check it.
  auto pollSlot = [&](Slot& slot, std::size_t index, bool timed) {
    if (!slot.waiting_letter || manager.processedChunks(slot.shard) < slot.letter_ticket)
      return;
    const std::int64_t b0 = nowNs();
    std::vector<service::LetterEvent> events;
    {
      Span span(tracer, "service.poll", slot.id);
      events = manager.poll(slot.id);
    }
    const std::int64_t now = nowNs();
    ++calls.polls;
    calls.hits += events.empty() ? 0 : 1;
    const std::string who = "slot " + std::to_string(index);
    checkLetters(rep, who, events, setup.expected[slot.stream], slot.received,
                 [&](std::uint32_t) {
                   ++letters_checked;
                   if (!timed) return;
                   ++letters_polled;
                   latency_ms.push_back(static_cast<double>(now - slot.letter_ingest_ns) * 1e-6);
                 });
    requireLetters(rep, who, slot.received, slot.next_letter + 1);
    slot.waiting_letter = false;
    ++slot.next_letter;
    busy_ns += nowNs() - b0;
  };

  manager.startPumping(kWorkers);
  const double layer0 = layerSelfNs(tracer);
  const double cpu0 = processCpuS();
  const double gen_cpu0 = threadCpuS();
  const std::int64_t t0 = nowNs();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(args.seconds * 1e9);
  // The first seconds fill the rings and every session's buffer; rates,
  // CPU windows and letter latencies are measured after.
  const std::int64_t measure_from =
      t0 + static_cast<std::int64_t>(std::min(kWarmupS, args.seconds / 4) * 1e9);
  std::int64_t window_start = t0;
  CpuPerUnit cpu_windows;
  std::uint64_t window_samples = 0;
  // The measured window ends at the deadline (or when the last pad is done).
  std::int64_t t_end = deadline, busy_end = 0;
  double cpu_end = 0.0, gen_cpu_end = 0.0, layer_end = 0.0;
  std::uint64_t samples_end = 0;
  auto endWindow = [&] {
    t_end = nowNs();
    cpu_end = processCpuS();
    gen_cpu_end = threadCpuS();
    busy_end = busy_ns;
    layer_end = layerSelfNs(tracer);
    samples_end = samples;
  };
  const std::int64_t hard_stop = deadline + 30'000'000'000;

  std::int64_t next_backlog_ns = t0;
  std::size_t live = slots.size();
  for (std::size_t i = 0, iter = 0; live > 0; i = (i + 1) % slots.size(), ++iter) {
    if ((iter & 15) == 0) {
      const std::int64_t now = nowNs();
      if (generating && now >= window_start + static_cast<std::int64_t>(kWindowS * 1e9)) {
        if (window_start >= measure_from)
          window_rates.push_back(static_cast<double>(window_samples) * 1e9 /
                                 static_cast<double>(now - window_start));
        if (now >= measure_from)
          cpu_windows.mark(processCpuS() - threadCpuS() + static_cast<double>(busy_ns) * 1e-9,
                           static_cast<double>(samples));
        window_start = now;
        window_samples = 0;
      }
      if (generating && now >= deadline) {
        // Stop churn; let every attached pad finish its two letters.
        generating = false;
        endWindow();
      }
      if (now > hard_stop) {
        rep.fail("pads still attached at the hard stop", live);
        break;
      }
      if (now >= next_backlog_ns) {
        next_backlog_ns = now + 1'000'000;
        for (int s = 0; s < kShards; ++s)
          calls.backlog.push_back(static_cast<double>(
              shard_ingested[static_cast<std::size_t>(s)] -
              manager.processedChunks(static_cast<std::size_t>(s))));
      }
    }
    Slot& slot = slots[i];
    if (slot.id == service::kNoSession) continue;
    pollSlot(slot, i, generating && slot.letter_ingest_ns >= measure_from);
    if (slot.draining) {
      if (manager.processedChunks(slot.shard) < slot.drain_ticket) continue;
      const std::int64_t b0 = nowNs();
      std::vector<service::LetterEvent> events;
      {
        Span span(tracer, "service.detach", slot.id);
        events = manager.detach(slot.id);
      }
      const auto& expected = setup.expected[slot.stream];
      letters_due += expected.size();
      const std::string who = "slot " + std::to_string(i) + " flushed";
      checkLetters(rep, who, events, expected, slot.received,
                   [&](std::uint32_t) { ++letters_checked; });
      requireLetters(rep, who, slot.received, expected.size());
      ++pads_done;
      if (generating) {
        ++slot.generation;
        attach(slot, i);
      } else {
        slot.id = service::kNoSession;
        --live;
      }
      busy_ns += nowNs() - b0;
      continue;
    }
    // After a refusal, offer to that shard again only once its pump has
    // made progress, so a full ring is not hammered with rebuilt chunks.
    if (blocked_at[slot.shard] != kNotBlocked) {
      if (manager.processedChunks(slot.shard) == blocked_at[slot.shard]) continue;
      blocked_at[slot.shard] = kNotBlocked;
    }
    const auto& plan = setup.plans[slot.stream];
    const std::int64_t b0 = nowNs();
    {
      Span dispatch(tracer, "gen.dispatch", slot.id);
      {
        Span span(tracer, "gen.shift", slot.id);
        shiftedChunk(fx, plan[slot.step], chunk);
      }
      const std::size_t n = chunk.size();
      bool accepted;
      {
        Span span(tracer, "service.ingest", slot.id);
        accepted = manager.ingest(slot.id, std::move(chunk));
      }
      if (!accepted) {
        ++calls.rejects;
        blocked_at[slot.shard] = manager.processedChunks(slot.shard);
        busy_ns += nowNs() - b0;
        continue;
      }
      ++calls.ingests;
      samples += n;
      window_samples += n;
      ++shard_ingested[slot.shard];
    }
    const auto& expected = setup.expected[slot.stream];
    if (!slot.waiting_letter && slot.next_letter < expected.size() &&
        expected[slot.next_letter].chunk <= slot.step) {
      slot.waiting_letter = true;
      slot.letter_ticket = shard_ingested[slot.shard];
      slot.letter_ingest_ns = nowNs();
    }
    if (++slot.step == plan.size()) {
      slot.draining = true;
      slot.drain_ticket = shard_ingested[slot.shard];
    }
    busy_ns += nowNs() - b0;
  }
  if (generating) endWindow();
  const core::PumpStats pump = manager.pumpStats();
  service::ServiceStats stats;
  manager.stats(service::kNoSession, stats);
  manager.stopPumping();

  const std::uint64_t lost = stats.queue.rejected_unknown_session + stats.queue.dropped_oldest;
  if (lost > 0) rep.fail("chunk not fed to its session", lost);
  std::uint64_t expected_letters = 0, right = 0;
  for (std::size_t s = 0; s < num_streams; ++s) {
    for (const ExpectedLetter& e : setup.expected[s]) right += e.letter == e.truth ? 1 : 0;
    expected_letters += setup.expected[s].size();
  }
  rep.attempted = calls.ingests + letters_due;

  const double n = static_cast<double>(std::max<std::uint64_t>(samples_end, 1));
  rep.add("setup_s", setup_s, "s");
  rep.add("peak_rss_mb", peakRssMb(), "MiB");
  rep.add("cpu_ns_per_sample", cpu_windows.median(), "ns");
  rep.add("samples_per_s", median(window_rates), "1/s");
  rep.add("letter_latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  out.extras["letters_per_s"] =
      static_cast<double>(letters_polled) * 1e9 / static_cast<double>(t_end - measure_from);
  out.extras["letter_latency_p99_ms"] = quantile(latency_ms, 0.99);
  out.extras["letter_accuracy"] =
      static_cast<double>(right) / static_cast<double>(std::max<std::uint64_t>(expected_letters, 1));
  out.headline = "samples_per_s";

  rep.note("pad_slots", num_slots);
  rep.note("pump_workers", kWorkers);
  rep.note("shards", kShards);
  rep.note("queue_capacity", static_cast<double>(kQueueCapacity));
  rep.note("letters_per_pad", kLettersPerPad);
  rep.note("pads_completed", static_cast<double>(pads_done));
  rep.note("letters", static_cast<double>(letters_checked));
  rep.note("latency_samples", static_cast<double>(latency_ms.size()));
  rep.note("samples", static_cast<double>(samples));

  const double pump_cpu_ns = ((cpu_end - cpu0) - (gen_cpu_end - gen_cpu0)) * 1e9;
  LayerValues& L = out.layers;
  fillServingLayers(L, tracer, calls, pump, setup.replay, pump_cpu_ns, n);
  L["gen.busy_ratio"] = static_cast<double>(busy_end) / static_cast<double>(t_end - t0);
  if (tracer != nullptr)
    fillAccounting(L, layer_end - layer0 + pump_cpu_ns,
                   pump_cpu_ns + static_cast<double>(busy_end), n);
  return out;
}

}  // namespace perfbench
