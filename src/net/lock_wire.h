// The NetLock message header (paper Section 4.2).
//
// A lock request carries: action type (acquire/release), lock ID, lock mode,
// transaction ID, and client IP; we additionally carry tenant ID, priority,
// and a timestamp, which the paper notes "can also be stored together". The
// same header serves grants and the switch-server overflow protocol
// (Section 4.3), distinguished by op and flags. In the hardware prototype
// these ride a reserved UDP destination port; here a 16-bit magic plays that
// role so that non-lock traffic is recognizably foreign.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.h"
#include "sim/network.h"

namespace netlock {

/// Message type.
enum class LockOp : std::uint8_t {
  kAcquire = 0,      ///< Client requests a lock.
  kRelease = 1,      ///< Client releases a held lock.
  kGrant = 2,        ///< Lock manager grants the lock to the client.
  kReject = 3,       ///< Policy rejection (e.g., per-tenant quota exceeded).
  kQueueEmpty = 4,   ///< Switch -> server: q1[i] drained, push from q2[i].
  kPush = 5,         ///< Server -> switch: a buffered request being pushed.
  kSyncState = 6,    ///< Control: switch/server state sync after failure.
  kFetch = 7,        ///< Client -> database server: read the locked item.
  kData = 8,         ///< Database server -> client: item data (and, in
                     ///< one-RTT mode, the implied lock grant — §4.1).
  kCancel = 9,       ///< Client -> manager: remove every queue entry of
                     ///< (lock, txn) — sent when a deadlock-policy abort
                     ///< leaves an acquire in flight elsewhere. No reply;
                     ///< idempotent (a duplicated copy finds nothing).
  kAbort = 10,       ///< Manager -> client: a deadlock policy refused the
                     ///< acquire (no-wait / wait-die) or revoked a queued,
                     ///< possibly granted, entry (wound). aux carries the
                     ///< AbortReason.
};

/// Flag bits in LockHeader::flags.
enum LockFlags : std::uint8_t {
  /// The switch saw the request but its queue region was full: the server
  /// must only buffer it in q2[i], not process it (Section 4.3).
  kFlagBufferOnly = 1 << 0,
  /// The request was pushed from a server's q2[i] back into q1[i].
  kFlagPushed = 1 << 1,
  /// The switch is not responsible for this lock; the server both queues and
  /// grants it.
  kFlagServerOwned = 1 << 2,
  /// Chain replication: the op was already admitted and applied by the
  /// chain head; the tail applies it without re-running admission.
  kFlagChained = 1 << 3,
  /// Chain replication: the head's quota rejected this acquire; the tail
  /// only emits the rejection (nothing was enqueued anywhere).
  kFlagQuotaRejected = 1 << 4,
  /// Chain replication: the head decided this acquire overflows to the
  /// server; the tail follows that decision (and emits the forward) so the
  /// replicas' queue contents never diverge.
  kFlagOverflowed = 1 << 5,
  /// A server re-sent this acquire to the switch because it had handed the
  /// lock to the switch. If the switch forwards it back as server-owned,
  /// the switch no longer owns the lock and the server serves it.
  kFlagRerouted = 1 << 6,
};

/// Wire header for every NetLock message. 36 bytes on the wire.
struct LockHeader {
  static constexpr std::uint16_t kMagic = 0x4c4b;  // "LK"
  static constexpr std::size_t kWireSize = 36;

  LockOp op = LockOp::kAcquire;
  LockMode mode = LockMode::kExclusive;
  std::uint8_t flags = 0;
  Priority priority = 0;
  TenantId tenant = 0;
  LockId lock_id = kInvalidLock;
  TxnId txn_id = kInvalidTxn;
  /// Address of the client the grant must be sent to (stands in for the
  /// client IP field of the paper's header).
  NodeId client_node = kInvalidNode;
  /// Request issue time; used for lease accounting and latency measurement.
  SimTime timestamp = 0;
  /// Number of free slots (kQueueEmpty), AcquireResult (kReject), the
  /// client's release nonce (kRelease), or the grantor's grant nonce
  /// (kGrant/kData): a per-instance counter that distinguishes a
  /// *retransmitted copy* of a packet (same nonce — must be dropped, or a
  /// release would blind-pop another waiter's entry and a grant would fire
  /// a spurious ghost release) from a second logical instance for the same
  /// (lock, txn) (fresh nonce — e.g. the immediate release of a duplicate
  /// grant, which must pop its ghost entry, or the grant of a second queue
  /// entry created by a retransmitted acquire).
  std::uint32_t aux = 0;

  /// Serializes into pkt's payload and sets its size. Returns false if the
  /// payload buffer is too small (cannot happen with Packet::kMaxPayload).
  bool SerializeTo(Packet& pkt) const;

  /// Parses from a packet payload. Returns nullopt on truncation or magic
  /// mismatch — the switch treats such packets as regular (non-lock) traffic.
  static std::optional<LockHeader> Parse(const Packet& pkt);

  friend bool operator==(const LockHeader&, const LockHeader&) = default;
};

/// Builds a ready-to-send packet around a header.
Packet MakeLockPacket(NodeId src, NodeId dst, const LockHeader& hdr);

/// Fingerprint identifying one release *instance* — (lock, txn, mode,
/// client, nonce) mixed into a nonzero 64-bit value. Two packets carry the
/// same fingerprint iff one is a network-duplicated copy of the other, which
/// is what the switch/server release-dedup filters key on. Releases do not
/// check transaction IDs on the dequeue path (Section 4.2), so this filter
/// is the only thing standing between a duplicated RELEASE and a blind
/// head-pop of some other waiter's entry.
inline std::uint64_t ReleaseFingerprint(const LockHeader& hdr) {
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  };
  mix(hdr.lock_id);
  mix(hdr.txn_id);
  mix(static_cast<std::uint64_t>(hdr.mode));
  mix(hdr.client_node);
  mix(hdr.aux);
  return h | 1;  // Never zero: zero marks an empty filter slot.
}

/// Fingerprint identifying one grant *instance* — (lock, txn, grantor,
/// nonce). Grantors stamp a per-instance nonce into kGrant/kData aux, so a
/// network-duplicated copy of a grant (same nonce) is distinguishable from
/// the grant of a *second* queue entry created by a retransmitted acquire
/// (fresh nonce). The client-side grant filters key on this: the
/// unsolicited-grant ghost release must fire exactly once per queue entry —
/// re-firing on a duplicated copy would blind-pop some other waiter's entry
/// out of the switch queue and hand the lock to two holders at once.
inline std::uint64_t GrantFingerprint(const LockHeader& hdr,
                                      NodeId grantor) {
  std::uint64_t h = 0xc2b2ae3d27d4eb4full;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
  };
  mix(hdr.lock_id);
  mix(hdr.txn_id);
  mix(grantor);
  mix(hdr.aux);
  return h | 1;  // Never zero: zero marks an empty filter slot.
}

}  // namespace netlock
