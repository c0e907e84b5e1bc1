#ifndef MDV_MDV_METADATA_PROVIDER_H_
#define MDV_MDV_METADATA_PROVIDER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "filter/engine.h"
#include "filter/rule_store.h"
#include "filter/tables.h"
#include "filter/update_protocol.h"
#include "mdv/document_store.h"
#include "mdv/network.h"
#include "net/wire.h"
#include "pubsub/publisher.h"
#include "pubsub/subscription.h"
#include "rdbms/database.h"
#include "rdf/schema.h"
#include "wal/log.h"

namespace mdv {

/// A Metadata Provider (MDP) of the MDV backbone (§2.2): accepts
/// document registrations, updates and deletions; holds the decomposed
/// subscription rule base in its relational database; runs the filter
/// algorithm on every change; and publishes the outcome to subscribed
/// LMRs over the (simulated) network. MDPs replicate registrations to
/// their backbone peers (flat hierarchy, full replication).
///
/// The public entry points are thread-safe: one internal mutex
/// serializes all local work (parallelism lives *inside* a filter run,
/// across rule-base shards — see EngineOptions::num_workers). Backbone
/// replication to peers runs outside the mutex, so mutually-peered MDPs
/// cannot deadlock; peers serialize on their own mutex.
class MetadataProvider {
 public:
  /// `schema` and `network` must outlive the provider.
  /// `rule_options.num_shards` selects the sharded filter-table layout;
  /// `engine_options.num_workers` sizes the work-stealing pool that fans
  /// filter runs across those shards.
  MetadataProvider(const rdf::RdfSchema* schema, Network* network,
                   filter::RuleStoreOptions rule_options = {},
                   filter::EngineOptions engine_options = {});
  ~MetadataProvider();

  MetadataProvider(const MetadataProvider&) = delete;
  MetadataProvider& operator=(const MetadataProvider&) = delete;

  // ---- Metadata administration (§2.2). --------------------------------

  /// Parses and registers a new RDF document. Validates it against the
  /// schema, stores it, feeds its atoms to the filter and publishes the
  /// resulting matches.
  Status RegisterDocumentXml(std::string_view xml, const std::string& uri)
      EXCLUDES(api_mu_);

  /// Registers an already parsed document.
  Status RegisterDocument(rdf::RdfDocument document) EXCLUDES(api_mu_);

  /// Registers a batch of documents with a single filter run (the
  /// batching knob of the §4 experiments).
  Status RegisterDocumentBatch(std::vector<rdf::RdfDocument> documents)
      EXCLUDES(api_mu_);

  /// Re-registers a modified version of an existing document, running
  /// the three-pass update protocol (§3.5) and publishing inserts,
  /// updates and removals.
  Status UpdateDocument(rdf::RdfDocument document) EXCLUDES(api_mu_);

  /// Deletes a registered document with all its resources.
  Status DeleteDocument(const std::string& uri) EXCLUDES(api_mu_);

  // ---- Publish & subscribe. --------------------------------------------

  /// Registers a subscription rule for `lmr`. Compiles the rule, merges
  /// its dependency tree into the global graph, evaluates the new atomic
  /// rules against the existing metadata, and publishes the initial
  /// matches to the LMR. `name` (optional) makes the rule usable as an
  /// extension in later rules (§2.3).
  Result<pubsub::SubscriptionId> Subscribe(pubsub::LmrId lmr,
                                           std::string_view rule_text,
                                           const std::string& name = "")
      EXCLUDES(api_mu_);

  /// Removes a subscription and releases its atomic rules.
  Status Unsubscribe(pubsub::SubscriptionId subscription) EXCLUDES(api_mu_);

  /// Builds a full snapshot of a subscription's current matches (with
  /// strong closures) as an insert notification. This is the pull
  /// counterpart of publish notifications, used by the TTL-based cache
  /// consistency alternative the paper mentions in §3.5.
  Result<pubsub::Notification> SnapshotSubscription(
      pubsub::SubscriptionId subscription) EXCLUDES(api_mu_);

  // ---- Browsing (§2.2: real users can browse metadata at an MDP). -----

  /// Evaluates `rule_text` once against the current metadata and returns
  /// the matching URI references, without creating a subscription.
  Result<std::vector<std::string>> Browse(std::string_view rule_text)
      EXCLUDES(api_mu_);

  // ---- Backbone replication. -------------------------------------------

  /// Adds a backbone peer; registrations/updates/deletes are forwarded.
  /// Durable providers journal the peer's name (kWalMdpAddPeer) so a
  /// recovered incarnation knows which mesh edges to re-wire.
  void AddPeer(MetadataProvider* peer) EXCLUDES(api_mu_);

  /// Stable mesh name for peer journaling ("mdp-<n>" when wired by
  /// MdvSystem). Set once during deployment, before AddPeer.
  void set_name(std::string name) { name_ = std::move(name); }
  const std::string& name() const { return name_; }

  /// Peer names collected from kWalMdpAddPeer records during the
  /// EnableDurability replay (deduplicated, in first-seen order).
  /// Deployment code re-wires the mesh from these after recovery.
  std::vector<std::string> recovered_peer_names() const EXCLUDES(api_mu_) {
    MutexLock lock(api_mu_);
    return recovered_peer_names_;
  }

  // ---- Replica lifecycle (Clone-pattern joins). ------------------------

  /// This MDP's publish flow id; joining LMRs address snapshot requests
  /// to it (Network::RequestSnapshot).
  uint64_t sender_id() const { return sender_id_; }

  /// Serves one replica-join snapshot request: re-evaluates the end
  /// rules of every subscription the requesting LMR holds here, ships
  /// the matching resources (with strong closures and LWW stamps) as a
  /// sequence of kSnapshotChunk notifications on the dedicated snapshot
  /// sender flow, and finishes with a kSnapshotDone carrying the match
  /// manifest and version-vector cursor. Delta requests skip resources
  /// the supplied per-entry cursor already covers — the manifest still
  /// lists every match, so the joiner can repair flags either way.
  /// Takes api_mu_ in short sections per chunk; publishes outside it,
  /// so concurrent client traffic interleaves rather than stalling.
  Status ServeSnapshot(const net::SnapshotRequestFrame& request)
      EXCLUDES(api_mu_);

  /// Resources per snapshot chunk (default 64). Tests lower it to force
  /// multi-chunk serves; must be >= 1.
  void set_snapshot_chunk_resources(size_t n) {
    snapshot_chunk_resources_ = n == 0 ? 1 : n;
  }

  // ---- Persistence. --------------------------------------------------------

  /// Serializes the provider's durable state — the filter database (rule
  /// base, FilterData, materialized results), the registered documents,
  /// and the subscription registry — into a text snapshot. LMR caches
  /// are not part of the snapshot; after a restore, LMRs reattach to the
  /// network and call Refresh() to resynchronize.
  Status SaveSnapshot(std::ostream& out) const EXCLUDES(api_mu_);

  /// Restores a provider from SaveSnapshot output, replacing all current
  /// state. The provider keeps its schema, network and peers.
  Status LoadSnapshot(std::istream& in) EXCLUDES(api_mu_);

  // ---- Durability (write-ahead log + compacted snapshots). -----------

  /// Opens (or recovers) a WAL in `options.dir` and switches the
  /// provider to durable operation: every successful registration,
  /// update, deletion, subscribe and unsubscribe is journaled before
  /// its notifications leave, and Checkpoint() compacts the log
  /// through SaveSnapshot. If the directory holds a previous
  /// incarnation's log, its snapshot and record suffix are replayed
  /// first, restoring an identical provider state.
  ///
  /// Call once, right after construction — before AddPeer and before
  /// any traffic (replay forwards to no one and delivers nothing; the
  /// LMRs recover or resync on their own). The manifest pins the
  /// schema and shard count; reopening with different ones fails.
  Status EnableDurability(const wal::WalOptions& options) EXCLUDES(api_mu_);

  /// Writes a compacted snapshot and prunes the replayed log prefix.
  /// InvalidArgument when durability is not enabled. Also triggered
  /// automatically every WalOptions::checkpoint_every appends.
  Status Checkpoint() EXCLUDES(api_mu_);

  /// Whether EnableDurability succeeded on this provider.
  bool durable() const EXCLUDES(api_mu_) {
    MutexLock lock(api_mu_);
    return journal_ != nullptr;
  }

  /// Replayed-recovery details of the EnableDurability open (empty
  /// RecoveryInfo if durability is off). For tests and mdv_fsck.
  wal::RecoveryInfo recovery_info() const EXCLUDES(api_mu_) {
    MutexLock lock(api_mu_);
    return journal_ != nullptr ? journal_->recovery() : wal::RecoveryInfo{};
  }

  // ---- Introspection. ----------------------------------------------------
  // The reference accessors hand out state that entry points mutate
  // under api_mu_: they exist for single-threaded setup/teardown and
  // quiesced inspection (tests, benches after WaitQuiescent). Readers
  // racing a live publisher are on their own — take no new dependency
  // on them from concurrent contexts.

  const DocumentStore& documents() const { return documents_; }
  const rdbms::Database& database() const { return *db_; }
  const filter::RuleStore& rule_store() const { return *rule_store_; }
  const pubsub::SubscriptionRegistry& subscriptions() const {
    return registry_;
  }
  const rdf::RdfSchema& schema() const { return *schema_; }

  /// Statistics of the most recent filter run.
  int last_filter_iterations() const EXCLUDES(api_mu_) {
    MutexLock lock(api_mu_);
    return last_iterations_;
  }

  /// Publish/update/delete operations currently executing in this MDP
  /// (client calls plus peer replication). The aggregate across MDPs is
  /// the `mdv.mdp.inflight_publishes` gauge.
  int inflight_publishes() const {
    return inflight_publishes_.load(std::memory_order_relaxed);
  }

 private:
  enum class Origin { kClient, kPeer };

  /// `stamps` carries the originating MDP's LWW versions during peer
  /// replication (one per document, in order); empty means "originating
  /// mutation here" — allocate fresh stamps from this MDP's counter.
  /// Every MDP in the mesh thus publishes identical versions for the
  /// same logical revision.
  Status RegisterDocumentBatchInternal(
      std::vector<rdf::RdfDocument> docs, Origin origin,
      std::vector<pubsub::EntryVersion> stamps = {}) EXCLUDES(api_mu_);
  Status UpdateDocumentInternal(rdf::RdfDocument document, Origin origin,
                                pubsub::EntryVersion stamp = {})
      EXCLUDES(api_mu_);
  Status DeleteDocumentInternal(const std::string& uri, Origin origin)
      EXCLUDES(api_mu_);
  Result<pubsub::SubscriptionId> SubscribeLocked(pubsub::LmrId lmr,
                                                 std::string_view rule_text,
                                                 const std::string& name,
                                                 const obs::SpanContext& trace)
      REQUIRES(api_mu_);
  Status SaveSnapshotLocked(std::ostream& out) const REQUIRES(api_mu_);
  Status LoadSnapshotLocked(std::istream& in) REQUIRES(api_mu_);
  /// Appends one record when durable (no-op otherwise or during
  /// replay), auto-checkpointing per WalOptions::checkpoint_every.
  Status JournalAppendLocked(uint8_t type, std::string payload)
      REQUIRES(api_mu_);
  Status CheckpointLocked() REQUIRES(api_mu_);
  /// Re-applies one journaled operation during EnableDurability.
  Status ReplayRecord(const wal::WalRecord& record) EXCLUDES(api_mu_);
  /// LWW stamp of the document owning `uri_reference` ({0,0} unknown).
  pubsub::EntryVersion VersionForReferenceLocked(
      const std::string& uri_reference) const REQUIRES(api_mu_);

  const rdf::RdfSchema* schema_;
  Network* network_;
  filter::RuleStoreOptions rule_options_;
  filter::EngineOptions engine_options_;
  /// Serializes the local work of every public entry point — the
  /// outermost rank of the whole hierarchy: it is held across filter
  /// runs and across network_->DeliverAll (which takes the bus, link
  /// and transport locks underneath, and on the inline transport runs
  /// the receiving LMRs' handlers). Released before peer forwarding
  /// (peers lock their own api_mu_; two mutually-peered MDPs holding
  /// theirs while forwarding would deadlock).
  mutable Mutex api_mu_{LockRank::kMdpApi, "mdv.mdp.api"};
  uint64_t sender_id_ = 0;  // This MDP's flow id on the network.
  std::string name_;  // Mesh name for peer journaling; set pre-AddPeer.
  std::unique_ptr<rdbms::Database> db_;
  std::unique_ptr<filter::RuleStore> rule_store_;
  std::unique_ptr<filter::FilterEngine> engine_;
  DocumentStore documents_;
  pubsub::SubscriptionRegistry registry_;
  std::unique_ptr<pubsub::Publisher> publisher_;
  /// Replication fan-out targets. Mutated by AddPeer under api_mu_ and
  /// therefore also read under it — the replication loops copy the list
  /// inside their critical section before forwarding unlocked.
  std::vector<MetadataProvider*> peers_ GUARDED_BY(api_mu_);
  int last_iterations_ GUARDED_BY(api_mu_) = 0;
  std::atomic<int> inflight_publishes_{0};
  /// Null until EnableDurability; the journal itself is thread-safe
  /// but the pointer and the replay flag follow api_mu_.
  std::unique_ptr<wal::Journal> journal_ GUARDED_BY(api_mu_);
  /// True while EnableDurability re-applies the recovered log: entry
  /// points then skip journaling (the records already exist) and skip
  /// network delivery (receivers recover or Refresh on their own).
  bool replaying_ GUARDED_BY(api_mu_) = false;
  /// Peer names recovered from kWalMdpAddPeer records (see accessor).
  std::vector<std::string> recovered_peer_names_ GUARDED_BY(api_mu_);
  /// LWW versioning state (persisted in the VERSIONS snapshot section).
  /// origin_id_ identifies this MDP in version stamps; next_version_seq_
  /// is the monotonic half of every stamp it allocates.
  /// resource_versions_ maps URI reference -> the stamp of the last
  /// mutation that changed that resource's CONTENT. One document
  /// mutation stamps only the resources it touched, so a replica fed by
  /// the live stream and one fed by a snapshot serve agree stamp-for-
  /// stamp. Deletes (and update-removed resources) erase.
  uint64_t origin_id_ GUARDED_BY(api_mu_) = 0;
  uint64_t next_version_seq_ GUARDED_BY(api_mu_) = 0;
  std::map<std::string, pubsub::EntryVersion> resource_versions_
      GUARDED_BY(api_mu_);
  size_t snapshot_chunk_resources_ = 64;
};

}  // namespace mdv

#endif  // MDV_MDV_METADATA_PROVIDER_H_
