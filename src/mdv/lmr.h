#ifndef MDV_MDV_LMR_H_
#define MDV_MDV_LMR_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "mdv/metadata_provider.h"
#include "net/reliable.h"
#include "obs/trace.h"
#include "pubsub/notification.h"
#include "rdf/schema.h"
#include "wal/log.h"

namespace mdv {

/// One entry of an LMR's cache: the resource content plus the two
/// reference counts driving the garbage collector (§2.4): the set of
/// subscriptions whose rules match the resource, and the number of
/// cached resources strongly referencing it.
struct CacheEntry {
  rdf::Resource resource;
  /// LWW stamp of the cached revision ({0,0} for unversioned content,
  /// e.g. local metadata). Versioned applies replace content only when
  /// their stamp is not older — stale retransmits and reorderings
  /// across snapshot joins are absorbed idempotently.
  pubsub::EntryVersion version;
  std::set<pubsub::SubscriptionId> matched_subscriptions;
  int strong_referrers = 0;
  /// Local metadata is never forwarded to the backbone and never
  /// garbage-collected (§2.2).
  bool local = false;
  /// Outgoing strong-reference targets (uri references), tracked so
  /// updates and evictions can adjust the targets' counts.
  std::vector<std::string> strong_targets;
};

/// Result row of an LMR query: a cached resource with its uri.
/// `resource` points into the LMR cache, like Find(): it stays valid only
/// until the next cache mutation, which an asynchronous notification can
/// make at any time. Read it while the system is quiesced (e.g. after
/// Network::WaitQuiescent), or copy what you need.
struct QueryMatch {
  std::string uri_reference;
  const rdf::Resource* resource = nullptr;
};

/// How an LMR keeps its cache consistent with the backbone.
enum class ConsistencyMode {
  /// Publish & subscribe: the MDP pushes inserts/updates/removals (the
  /// paper's main mechanism).
  kNotifications,
  /// Time-to-live: pushes are ignored; the cache is refreshed wholesale
  /// by periodic Refresh() calls (the alternative §3.5 mentions —
  /// "periodical cache invalidation, based on a time-to-live approach").
  kTimeToLive,
};

/// Knobs of a replica join (JoinReplica).
struct JoinOptions {
  /// Send the cache's per-entry version cursor so the MDP skips content
  /// the replica already holds (delta catchup). A full join (false)
  /// ships everything; the result is identical either way.
  bool delta = true;
  /// Asynchronous networks: how often a lost request or serve is
  /// abandoned and retried, and how long each attempt may take.
  int max_attempts = 5;
  int64_t attempt_timeout_us = 10'000'000;
};

/// A Local Metadata Repository (§2.2): caches the subset of the global
/// metadata selected by its subscription rules, keeps the cache
/// consistent by applying publish notifications, stores private local
/// metadata, and answers declarative queries from locally available
/// metadata only (no communication across the Internet).
///
/// Thread-safe: one internal mutex (rank kLmrCache, inside the MDP API
/// lock — the inline transport delivers while holding it — and outside
/// the network bus/link locks and the WAL journal) serializes the cache
/// against concurrent notification delivery, joins and queries. The
/// mutex is never held across calls back into the provider or the
/// snapshot request path.
class LocalMetadataRepository {
 public:
  /// Attaches to `provider` via `network`. Ids must be unique per
  /// network: a refused attach is logged and leaves this LMR unbound
  /// (OpenDurable reports it instead). All pointers must outlive the
  /// LMR.
  LocalMetadataRepository(pubsub::LmrId id, const rdf::RdfSchema* schema,
                          MetadataProvider* provider, Network* network);
  ~LocalMetadataRepository();

  /// Opens (or recovers) a durable LMR: the cache, the subscription id
  /// set and the delivery dedup state (net::FlowRestore per sender)
  /// live in a WAL under `options.dir` and survive kill -9. On an
  /// existing directory the snapshot and log suffix are replayed before
  /// the LMR attaches to the network, and the recovered flow state is
  /// handed to the reliable link so retransmits of already-applied
  /// notifications are absorbed instead of re-applied (exactly-once
  /// across the crash). Every arriving frame is journaled pre-ack by
  /// the link. Snapshot-stream frames (replica joins) are never
  /// journaled — a join interrupted by a crash is abandoned and re-run,
  /// not replayed. AlreadyExists if `id` is attached to `network`
  /// already. `provider` may be null for offline inspection (mdv_fsck)
  /// — subscription calls, JoinReplica() and Refresh() are then
  /// off-limits.
  static Result<std::unique_ptr<LocalMetadataRepository>> OpenDurable(
      pubsub::LmrId id, const rdf::RdfSchema* schema,
      MetadataProvider* provider, Network* network,
      const wal::WalOptions& options);

  LocalMetadataRepository(const LocalMetadataRepository&) = delete;
  LocalMetadataRepository& operator=(const LocalMetadataRepository&) = delete;

  pubsub::LmrId id() const { return id_; }

  // ---- Subscription management. ----------------------------------------

  /// Registers a subscription rule at the MDP; matching metadata is
  /// replicated into the cache immediately and kept consistent by the
  /// publish & subscribe mechanism.
  Result<pubsub::SubscriptionId> Subscribe(std::string_view rule_text,
                                           const std::string& name = "")
      EXCLUDES(mu_);

  /// Drops a subscription; resources matched only by it are removed from
  /// the cache by the garbage collector.
  Status Unsubscribe(pubsub::SubscriptionId subscription) EXCLUDES(mu_);

  // ---- Local metadata (§2.2). -------------------------------------------

  /// Stores a document as local metadata: queryable here, invisible to
  /// the backbone.
  Status RegisterLocalDocument(const rdf::RdfDocument& document)
      EXCLUDES(mu_);

  // ---- Cache consistency (§3.5) & replica lifecycle. --------------------

  ConsistencyMode consistency_mode() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return mode_;
  }
  /// Switches between push-based consistency and the TTL alternative.
  /// Switching to kTimeToLive does not clear the cache; call Refresh()
  /// to resynchronize.
  void set_consistency_mode(ConsistencyMode mode) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    mode_ = mode;
  }

  /// Synchronizes the replica with the MDP via the Clone-pattern join
  /// protocol: request a versioned snapshot, buffer live notifications
  /// that arrive while it streams in, merge the staged snapshot under
  /// last-writer-wins, repair match flags from the manifest, then
  /// replay the buffered suffix. The result is byte-identical to a
  /// replica that observed every notification live. Delta joins
  /// (options.delta) ship only entries the cache does not already hold
  /// at the current version. Blocks until the join completes; on
  /// asynchronous networks lost requests/serves are retried
  /// (options.max_attempts) and ResourceExhausted is returned when all
  /// attempts time out.
  Status JoinReplica(const JoinOptions& options = {}) EXCLUDES(mu_);

  /// Pulls the MDP state wholesale, replacing all match bookkeeping;
  /// resources that no longer match anything are garbage-collected.
  /// This is the TTL mode's periodic resync (also usable in
  /// notification mode as a repair step) — since the versioned-replica
  /// refactor it is simply a full (non-delta) JoinReplica.
  Status Refresh() EXCLUDES(mu_);

  /// Per-origin high water of versions this replica has applied or been
  /// served ({origin -> seq}). Observability + the mdv_fsck invariant:
  /// the vector never regresses against the cache.
  std::map<uint64_t, uint64_t> version_vector() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return version_vector_;
  }

  /// Completed JoinReplica/Refresh calls (for tests).
  int64_t joins_completed() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return joins_completed_;
  }

  // ---- Queries. ----------------------------------------------------------

  /// Evaluates a query (same `search ... register ... where ...` syntax
  /// as the rule language, §2.2) against the cached metadata only.
  /// Returns the matching resources sorted by uri. The returned
  /// QueryMatch::resource pointers are valid only until the next cache
  /// mutation (the same contract as Find()).
  Result<std::vector<QueryMatch>> Query(std::string_view query_text) const
      EXCLUDES(mu_);

  // ---- Cache introspection. ----------------------------------------------
  // Find() hands out a pointer into the cache; use it only from
  // quiesced, single-threaded contexts (tests after WaitQuiescent).

  const CacheEntry* Find(const std::string& uri_reference) const
      EXCLUDES(mu_);
  size_t CacheSize() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return cache_.size();
  }
  std::vector<std::string> CachedUris() const EXCLUDES(mu_);

  /// Applies one publish notification (normally invoked via the
  /// network; exposed for tests).
  void ApplyNotification(const pubsub::Notification& notification)
      EXCLUDES(mu_);

  /// Number of GC evictions so far.
  int64_t gc_evictions() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return gc_evictions_;
  }

  // ---- Durability. -------------------------------------------------------

  bool durable() const { return journal_ != nullptr; }

  /// What OpenDurable recovered (empty when the LMR is volatile).
  wal::RecoveryInfo recovery_info() const {
    return journal_ != nullptr ? journal_->recovery() : wal::RecoveryInfo{};
  }

  /// Compacts the journal: serializes the cache, subscriptions, version
  /// vector and the link's flow state into a snapshot and prunes the
  /// replayed log. Quiesce first on an asynchronous network
  /// (Network::WaitQuiescent) — the flow state copied here must not
  /// race in-flight frames.
  Status Checkpoint() EXCLUDES(mu_);

  /// Structural self-check of the cache, for mdv_fsck and tests:
  /// matched subscriptions exist, strong-reference counts re-derive
  /// from contents, target lists match the schema, no entry is GC-dead
  /// yet resident, and the version vector covers every entry's stamp.
  /// Returns the first violation found.
  Status AuditCacheInvariants() const EXCLUDES(mu_);

 private:
  struct DeferAttach {};
  LocalMetadataRepository(DeferAttach, pubsub::LmrId id,
                          const rdf::RdfSchema* schema,
                          MetadataProvider* provider, Network* network);

  /// In-flight join: the staged snapshot plus the live notifications
  /// buffered while it streams in.
  struct JoinState {
    uint64_t request_id = 0;
    JoinOptions options;
    /// Staged content, applied to the cache only at finalize so a crash
    /// or mid-join checkpoint never persists a half-applied snapshot.
    std::map<std::string, std::pair<rdf::Resource, pubsub::EntryVersion>>
        staged;
    uint64_t chunks_received = 0;
    bool done_received = false;
    pubsub::SnapshotManifest manifest;
    /// Trace context carried on the SnapshotDone note, so the finalize
    /// span joins the MDP serve's trace.
    obs::SpanContext manifest_trace;
    /// Live (non-snapshot) notifications held back during the join,
    /// replayed in order after the snapshot merges.
    std::vector<pubsub::Notification> buffered;
    int64_t started_ns = 0;
  };

  /// Binds the notification handler, wiring the journal hook and the
  /// recovered flow state when durable.
  Status AttachToNetwork(std::vector<net::FlowRestore> flows);

  /// Rebuilds state from Open()'s RecoveryInfo: snapshot records, then
  /// the log suffix. Fills `flows` with the dedup state to seed the
  /// link with.
  Status RecoverFromJournal(const wal::RecoveryInfo& rec,
                            std::map<uint64_t, net::FlowRestore>* flows)
      REQUIRES(mu_);
  Status LoadSnapshotRecords(const std::string& snapshot,
                             std::map<uint64_t, net::FlowRestore>* flows)
      REQUIRES(mu_);
  /// Re-applies one journaled notify frame, simulating the link's
  /// per-flow dedup/hold-back so replay converges to what the handler
  /// actually saw.
  Status ReplayApplyFrame(const std::string& frame_bytes,
                          std::map<uint64_t, net::FlowRestore>* flows)
      REQUIRES(mu_);
  std::string BuildSnapshotLocked(const std::vector<net::FlowRestore>& flows)
      const REQUIRES(mu_);
  Status CheckpointLocked() REQUIRES(mu_);
  /// Appends when durable and not replaying (no-op otherwise).
  Status JournalAppendLocked(uint8_t type, std::string payload)
      REQUIRES(mu_);
  /// Replaces/creates the content of a cache entry under LWW,
  /// maintaining outgoing strong-reference counts of its targets and
  /// the version vector. A versioned `version` older than the cached
  /// stamp leaves the content untouched (the entry is still returned
  /// for flag bookkeeping); {0,0} bypasses the guard (unversioned
  /// writers, e.g. local metadata).
  CacheEntry& UpsertContent(const std::string& uri,
                            const rdf::Resource& resource,
                            pubsub::EntryVersion version) REQUIRES(mu_);

  /// Computes the strong-reference targets of `resource` per the schema.
  std::vector<std::string> StrongTargetsOf(const rdf::Resource& resource)
      const;

  /// Recomputes every entry's strong_referrers count from the
  /// strong_targets lists (run after content changes).
  void RecountStrongReferrers() REQUIRES(mu_);

  /// Applies a notification regardless of the consistency mode (used by
  /// the push path, join buffering/replay and recovery).
  void ApplyNotificationLocked(const pubsub::Notification& notification)
      REQUIRES(mu_);
  /// Routes one snapshot-stream notification into the active join
  /// (ignored when no join matches its request id — stale serves).
  void HandleSnapshotNotificationLocked(
      const pubsub::Notification& notification) REQUIRES(mu_);
  /// Merges the completed join into the cache and replays the buffered
  /// suffix.
  void FinalizeJoinLocked() REQUIRES(mu_);
  /// Drops the in-flight join (timeout), replaying buffered live
  /// notifications so nothing is lost.
  void AbandonJoinLocked() REQUIRES(mu_);

  /// Removes entries with no matches, no strong referrers and no local
  /// flag, cascading reference-count decrements (the reference-counting
  /// garbage collector of §2.4).
  void CollectGarbage() REQUIRES(mu_);

  pubsub::LmrId id_;
  const rdf::RdfSchema* schema_;
  MetadataProvider* provider_;
  Network* network_;
  /// Serializes cache state against concurrent delivery and joins.
  /// Rank: inside kMdpApi (inline delivery happens under the MDP
  /// lock), outside the network bus/link locks and the WAL journal
  /// (Checkpoint copies flow state and appends while holding it).
  /// Never held across calls into the provider or RequestSnapshot.
  mutable Mutex mu_{LockRank::kLmrCache, "mdv.lmr.cache"};
  CondVar join_cv_;
  std::map<std::string, CacheEntry> cache_ GUARDED_BY(mu_);
  std::set<pubsub::SubscriptionId> subscriptions_ GUARDED_BY(mu_);
  ConsistencyMode mode_ GUARDED_BY(mu_) = ConsistencyMode::kNotifications;
  int64_t gc_evictions_ GUARDED_BY(mu_) = 0;
  /// Per-origin high water of every version stamp applied or served.
  std::map<uint64_t, uint64_t> version_vector_ GUARDED_BY(mu_);
  /// Non-null while a join is in flight.
  std::unique_ptr<JoinState> join_ GUARDED_BY(mu_);
  uint64_t join_counter_ GUARDED_BY(mu_) = 0;
  /// Request id of the most recently finalized join; JoinReplica waits
  /// on it via join_cv_.
  uint64_t last_completed_request_id_ GUARDED_BY(mu_) = 0;
  int64_t joins_completed_ GUARDED_BY(mu_) = 0;
  /// Null for a volatile LMR. The journal is internally thread-safe;
  /// the pointer is set before the LMR attaches and stable afterwards.
  std::unique_ptr<wal::Journal> journal_;
  /// True while OpenDurable re-applies the recovered log: subscription
  /// changes then skip journaling.
  bool replaying_ GUARDED_BY(mu_) = false;
  /// Whether the network accepted this LMR's endpoint; set once, before
  /// any delivery, and read again only by the destructor.
  bool attached_ = false;
};

}  // namespace mdv

#endif  // MDV_MDV_LMR_H_
