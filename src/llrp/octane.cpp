#include "llrp/octane.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/contracts.hpp"

namespace rfipad::llrp {

Bytes OctaneEmulator::handleControl(const Bytes& frame) {
  if (!connected_)
    throw std::logic_error("OctaneEmulator: link is down");
  BufferReader r(frame);
  std::uint32_t len = 0;
  const MessageHeader h = decodeHeader(r, &len);
  switch (h.type) {
    case MessageType::kAddRospec: {
      rospec_ = decodeAddRospec(frame);
      installed_ = true;
      enabled_ = started_ = false;
      return encodeAddRospecResponse(h.id, LlrpStatus{0, "M_Success"});
    }
    case MessageType::kEnableRospec: {
      const std::uint32_t id = decodeRospecIdMessage(frame);
      if (!installed_ || id != rospec_.rospec_id)
        return encodeAddRospecResponse(h.id, LlrpStatus{100, "unknown ROSpec"});
      enabled_ = true;
      return encodeAddRospecResponse(h.id, LlrpStatus{0, "M_Success"});
    }
    case MessageType::kStartRospec: {
      const std::uint32_t id = decodeRospecIdMessage(frame);
      if (!enabled_ || id != rospec_.rospec_id)
        return encodeAddRospecResponse(h.id,
                                       LlrpStatus{101, "ROSpec not enabled"});
      started_ = true;
      return encodeAddRospecResponse(h.id, LlrpStatus{0, "M_Success"});
    }
    case MessageType::kKeepalive:
      return encodeKeepaliveAck(h.id);
    default:
      return encodeAddRospecResponse(h.id,
                                     LlrpStatus{102, "unsupported message"});
  }
}

void OctaneEmulator::dropLink() {
  connected_ = false;
  if (clear_rospec_on_disconnect_) {
    // A full reader reboot: the ROSpec is gone, the client must re-run the
    // ADD/ENABLE/START handshake after reconnecting.
    installed_ = enabled_ = started_ = false;
  }
}

std::size_t OctaneEmulator::outageAfter(double t) const {
  for (std::size_t i = 0; i < outages_.size(); ++i) {
    if (outages_[i].t1 > t) return i;
  }
  return outages_.size();
}

void OctaneEmulator::advance(double duration_s, const reader::SceneFn& scene) {
  if (duration_s <= 0.0) return;
  // The physical world runs regardless of link/ROSpec state; the inventory
  // output is simply discarded.
  (void)hw_.capture(duration_s, scene);
}

bool OctaneEmulator::tryReconnect() {
  if (connected_) return true;
  const double t = hw_.now();
  for (const auto& w : outages_) {
    if (t >= w.t0 && t < w.t1) return false;
  }
  connected_ = true;
  return true;
}

std::vector<Bytes> OctaneEmulator::poll(double duration_s,
                                        const reader::SceneFn& scene,
                                        std::size_t reportsPerMessage) {
  RFIPAD_ASSERT(reportsPerMessage >= 1,
                "poll needs at least one report per message");
  RFIPAD_ASSERT(duration_s >= 0.0, "poll window must be non-negative");
  if (!connected_) throw std::logic_error("OctaneEmulator: link is down");
  if (!started_) throw std::logic_error("OctaneEmulator: ROSpec not started");

  const double t_start = hw_.now();
  double t_end = t_start + duration_s;
  bool drops = false;
  const std::size_t oi = outageAfter(t_start);
  if (oi < outages_.size() && outages_[oi].t0 < t_end) {
    // The link goes down mid-poll.  Deliver what was captured before the
    // outage; the remaining window stays unconsumed for the reconnect loop.
    t_end = std::max(outages_[oi].t0, t_start);
    drops = true;
  }

  std::vector<Bytes> frames;
  if (t_end > t_start) {
    const auto stream = hw_.capture(t_end - t_start, scene);
    frames = encodeStream(stream, reportsPerMessage, next_message_id_++ * 10000);
  }
  if (drops) dropLink();
  if (frame_tap_) frames = frame_tap_(std::move(frames));
  return frames;
}

namespace {

void expectSuccess(const Bytes& response) {
  BufferReader r(response);
  std::uint32_t len = 0;
  decodeHeader(r, &len);
  const std::uint16_t type = r.u16() & 0x3FF;
  if (type != kParamLlrpStatus) throw DecodeError("expected LLRPStatus");
  r.skip(2);  // TLV length
  const std::uint16_t code = r.u16();
  if (code != 0) throw std::runtime_error("LLRP operation failed");
}

}  // namespace

void OctaneClient::connect(OctaneEmulator& reader) {
  Rospec spec;
  spec.rospec_id = 1;
  expectSuccess(reader.handleControl(
      encodeAddRospec(nextMessageId(), spec)));
  expectSuccess(reader.handleControl(
      encodeEnableRospec(nextMessageId(), spec.rospec_id)));
  expectSuccess(reader.handleControl(
      encodeStartRospec(nextMessageId(), spec.rospec_id)));
}

void OctaneClient::deliver(const reader::TagReport& r) {
  // Callback first and unlocked (it may be slow, or call back into the
  // client); the shared stream append is the only critical section.
  if (callback_) callback_(r);
  MutexLock lock(mutex_);
  stream_.push(r);
}

void OctaneClient::pump(OctaneEmulator& reader, double duration_s,
                        const reader::SceneFn& scene) {
  for (const Bytes& frame : reader.poll(duration_s, scene))
    for (const TagReportData& wire : decodeRoAccessReport(frame).reports)
      deliver(fromWire(wire));
}

PumpStats OctaneClient::pumpWithReconnect(OctaneEmulator& reader,
                                          double duration_s,
                                          const reader::SceneFn& scene,
                                          const ReconnectPolicy& policy) {
  RFIPAD_ASSERT(duration_s >= 0.0, "pump duration must be non-negative");
  RFIPAD_ASSERT(policy.poll_chunk_s > 0.0, "poll chunk must be positive");
  RFIPAD_ASSERT(policy.multiplier >= 1.0,
                "backoff multiplier below 1 would shrink the backoff");
  RFIPAD_ASSERT(policy.max_attempts_per_outage >= 1,
                "need at least one reconnect attempt per outage");
  PumpStats st;
  const double t_end = reader.now() + duration_s;
  double backoff = policy.initial_backoff_s;
  int attempts = 0;

  while (reader.now() < t_end - 1e-9) {
    if (!reader.connected()) {
      if (attempts >= policy.max_attempts_per_outage)
        throw std::runtime_error(
            "OctaneClient: reader unreachable after max reconnect attempts");
      ++attempts;
      ++st.reconnect_attempts;
      const double wait = std::min(backoff, t_end - reader.now());
      reader.advance(wait, scene);
      st.offline_s += wait;
      backoff = std::min(backoff * policy.multiplier, policy.max_backoff_s);
      if (reader.tryReconnect()) {
        attempts = 0;
        backoff = policy.initial_backoff_s;
        if (!reader.started()) {
          // The reader rebooted and forgot the ROSpec — redo the handshake.
          connect(reader);
          ++st.rehandshakes;
        }
      }
      continue;
    }

    const double chunk = std::min(policy.poll_chunk_s, t_end - reader.now());
    for (const Bytes& frame : reader.poll(chunk, scene))
      decodeFrame(frame, st.decode,
                  [this](const reader::TagReport& r) { deliver(r); });
    if (!reader.connected()) ++st.disconnects;
  }
  return st;
}

}  // namespace rfipad::llrp
