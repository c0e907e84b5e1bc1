#ifndef MDV_MDV_WAL_RECORDS_H_
#define MDV_MDV_WAL_RECORDS_H_

#include <cstdint>

namespace mdv {

/// Record-type bytes of the MDV durability journals (wal::Journal
/// segments). Type 0 is reserved for the journal's own MANIFEST
/// record; everything below is payload-level and owned by the MDP and
/// LMR recovery code in metadata_provider.cc / lmr.cc. mdv_fsck shares
/// these to walk images offline. Payload layouts use the wal little-
/// endian helpers (wal/record.h) and are documented at the append
/// sites.

// ---- MDP journal (manifest kind "mdp") ------------------------------
/// u32 count, then per document: uri string, RDF/XML string.
inline constexpr uint8_t kWalMdpRegisterDocuments = 2;
/// uri string, RDF/XML string (the new version).
inline constexpr uint8_t kWalMdpUpdateDocument = 3;
/// uri string.
inline constexpr uint8_t kWalMdpDeleteDocument = 4;
/// i64 lmr, i64 assigned subscription id, rule text string, name
/// string. Replay re-runs Subscribe and verifies it re-assigns the
/// journaled id (the registry's id counter is deterministic).
inline constexpr uint8_t kWalMdpSubscribe = 5;
/// i64 subscription id.
inline constexpr uint8_t kWalMdpUnsubscribe = 6;
/// Peer name string — one AddPeer edge of the replication mesh.
/// Replay collects the names (recovered_peer_names()) so deployment
/// code can re-wire the mesh deterministically instead of relying on
/// wiring order.
inline constexpr uint8_t kWalMdpAddPeer = 11;

// ---- LMR journal (manifest kind "lmr") ------------------------------
/// Raw net wire notify-frame bytes, exactly as received (journaled by
/// the reliable link before it acks the frame).
inline constexpr uint8_t kWalLmrApply = 7;
/// i64 subscription id (obtained from the MDP).
inline constexpr uint8_t kWalLmrSubscribe = 8;
/// i64 subscription id.
inline constexpr uint8_t kWalLmrUnsubscribe = 9;
/// uri string, RDF/XML string — a RegisterLocalDocument call.
inline constexpr uint8_t kWalLmrLocalDocument = 10;

// ---- LMR snapshot-internal records ----------------------------------
// An LMR snapshot is itself a concatenation of wal records (scanned
// with ScanWalBuffer), holding the cache image at checkpoint time.
/// u32 count, then i64 subscription ids.
inline constexpr uint8_t kWalLmrSnapSubscriptions = 20;
/// One cache entry: uri string, u8 local, u32 nsubs + i64 sub ids,
/// u64 version origin, u64 version seq, then the resource: local-id
/// string, class string, u32 nprops, per property: name string,
/// u8 is_reference, text string. Strong-ref target lists and counts
/// are re-derived from content on load.
inline constexpr uint8_t kWalLmrSnapCacheEntry = 21;
/// One at-least-once flow: u64 sender, u64 applied_through,
/// u32 n_holdback, per entry: u64 sequence, notify-frame string.
inline constexpr uint8_t kWalLmrSnapFlow = 22;
/// u64 local sequence of a retired self-journaling protocol; no longer
/// written. Replay accepts 0 and refuses any other value.
inline constexpr uint8_t kWalLmrSnapLocalSeq = 23;
/// The replica's version vector: u32 count, per origin u64 origin id,
/// u64 high-water sequence. Invariant (checked by mdv_fsck): for every
/// persisted cache entry with a nonzero version, the vector's entry
/// for its origin must be >= the entry's sequence — a vector that
/// regresses against the cache would make delta catchup skip content
/// the replica does not actually have.
inline constexpr uint8_t kWalLmrSnapVersionVector = 24;

}  // namespace mdv

#endif  // MDV_MDV_WAL_RECORDS_H_
