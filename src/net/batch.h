// Batcher — the v2 send path's MTU-aware frame coalescer.
//
// The paper's own cost metric is messages per tuple, and a one-frame-
// per-datagram transport pays the full envelope + syscall + airtime
// price for every 30-byte gradient frame.  The batcher sits between the
// middleware and the raw transport: callers enqueue logical chunks
// (engine frames, HELLO beacons, reliable-channel frames and acks,
// anti-entropy digests) and the batcher packs everything pending into
// as few BATCH datagrams as fit the link MTU.
//
// Flush discipline: the first enqueue after an empty queue schedules a
// flush through Platform::schedule at `flush_delay` (zero by default —
// a *zero-delay* timer still runs strictly after the current event, so
// all traffic generated within one event instant clusters into one
// datagram: a node that receives a 30-frame batch re-broadcasts its 30
// reactions as one datagram, not thirty).  A nonzero delay widens the
// coalescing window at the price of added latency, exactly Nagle's
// trade.
//
// Packing is greedy in enqueue order: a chunk that would overflow the
// current datagram starts the next one; a single chunk larger than the
// MTU is sent alone and counted (net.batch.oversize) — whether the link
// then drops it is the link's business (UdpOptions::mtu).
//
// Disabled mode (BatchOptions::enabled == false) is the v1 wire,
// bit-for-bit: hello()/data() emit legacy HELLO/DATA datagrams
// immediately, no timer, no BATCH framing — this is what keeps the
// committed transport baselines byte-identical.  rel()/ack()/digest()
// have no v1 encoding and always use (single-chunk) BATCH datagrams;
// the session layer only enables those features together with batching.
//
// Metrics: net.batch.tx (BATCH datagrams sent), net.batch.chunks
// (chunks carried), net.batch.flush (flush rounds), net.batch.oversize.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/ids.h"
#include "net/datagram.h"
#include "obs/metrics.h"
#include "tota/platform.h"
#include "wire/buffer.h"

namespace tota::net {

struct BatchOptions {
  /// Master switch for the v2 BATCH framing.  Off = legacy v1 datagrams
  /// (the default, so existing worlds and baselines are untouched).
  bool enabled = false;
  /// Pack limit per datagram, bytes (the DeviceProfile / link MTU).
  /// 0 = unlimited: everything pending goes into one datagram.
  std::size_t mtu = 1400;
  /// Most chunks per datagram, clamped to kMaxBatchChunks.
  std::size_t max_chunks = 64;
  /// Coalescing window: how long after the first pending chunk the
  /// flush timer fires.  Zero = same-event-instant clustering only.
  SimTime flush_delay = SimTime::zero();
};

/// Packs `chunks` into as few BATCH datagrams as `options` allows (the
/// Batcher's flush).  Oversize single chunks are emitted alone;
/// `oversize` (optional) counts them.
std::vector<wire::Bytes> pack_batches(NodeId sender,
                                      std::vector<EncodedChunk> chunks,
                                      const BatchOptions& options,
                                      obs::Counter* oversize = nullptr);

class Batcher {
 public:
  /// `send` transmits one encoded datagram (BATCH or legacy v1).
  using SendFn = std::function<void(wire::Bytes)>;

  Batcher(NodeId self, tota::Platform& platform, BatchOptions options,
          SendFn send, obs::MetricsRegistry& metrics);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  // --- enqueue (all coalesce until the flush timer fires) --------------

  void hello(std::uint64_t seq, SimTime period);
  void data(std::span<const std::uint8_t> frame);
  void rel(std::uint64_t seq, std::uint64_t floor,
           std::span<const std::uint8_t> frame);
  /// Cumulative ack for `peer`'s reliable stream.  Coalesced per peer:
  /// a newer cum for the same peer overwrites the pending chunk (a
  /// cumulative ack makes every older one redundant).
  void ack(NodeId peer, std::uint64_t cum);
  /// Anti-entropy digest (encoded by tota::StoreDigest).  At most one
  /// pending: a newer digest replaces an unsent older one.
  void digest(wire::Bytes body);

  /// Sends everything pending now (also the flush timer's target).
  void flush();

  /// Cancels the pending flush and drops everything queued, including
  /// the coalesced ack/digest slots — the session-stop path: a stopped
  /// node must not transmit.
  void clear();

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] const BatchOptions& options() const { return options_; }

 private:
  void enqueue(EncodedChunk chunk);

  NodeId self_;
  tota::Platform& platform_;
  BatchOptions options_;
  SendFn send_;

  std::vector<EncodedChunk> pending_;
  /// Index into pending_ of the pending ACK chunk per peer / the
  /// pending DIGEST chunk, for overwrite-in-place coalescing.
  std::unordered_map<NodeId, std::size_t> ack_slot_;
  std::size_t digest_slot_ = kNoSlot;
  tota::Platform::TimerId flush_timer_ = tota::Platform::kInvalidTimer;

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  obs::Counter& batch_tx_;
  obs::Counter& batch_chunks_;
  obs::Counter& batch_flush_;
  obs::Counter& batch_oversize_;
};

}  // namespace tota::net
