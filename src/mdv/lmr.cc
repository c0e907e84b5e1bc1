#include "mdv/lmr.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "mdv/wal_records.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdf/parser.h"
#include "rdf/schema_io.h"
#include "rdf/writer.h"
#include "rules/evaluator.h"
#include "wal/record.h"

namespace mdv {

namespace {

/// Registry handles of the LMR cache layer, resolved once. Aggregated
/// across all LMRs of the process; per-instance counts stay on the
/// instance (gc_evictions()).
struct LmrMetrics {
  obs::MetricsRegistry& r = obs::DefaultMetrics();
  obs::Counter& applied = r.GetCounter("mdv.lmr.notifications_applied_total");
  obs::Counter& evictions = r.GetCounter("mdv.lmr.gc_evictions_total");
  obs::Histogram& apply_us = r.GetHistogram("mdv.lmr.apply_us");
  obs::Histogram& query_us = r.GetHistogram("mdv.lmr.query_us");
  /// Candidate bindings the query evaluator tried (rules::EvalStats).
  obs::Counter& query_bindings =
      r.GetCounter("mdv.lmr.query_bindings_total");
  /// Entries the most recent replica join had to stage — how far behind
  /// the joiner was when it (re)attached.
  obs::Gauge& lag_entries = r.GetGauge("mdv.repl.lag_entries");
  obs::Histogram& join_us = r.GetHistogram("mdv.repl.join_us");

  static LmrMetrics& Get() {
    static LmrMetrics& metrics = *new LmrMetrics();
    return metrics;
  }
};

}  // namespace

LocalMetadataRepository::LocalMetadataRepository(pubsub::LmrId id,
                                                 const rdf::RdfSchema* schema,
                                                 MetadataProvider* provider,
                                                 Network* network)
    : LocalMetadataRepository(DeferAttach{}, id, schema, provider, network) {
  const Status attached = AttachToNetwork({});
  if (!attached.ok()) {
    MDV_LOG(Error) << "attach of lmr " << id << " refused: " << attached;
  }
}

LocalMetadataRepository::LocalMetadataRepository(DeferAttach, pubsub::LmrId id,
                                                 const rdf::RdfSchema* schema,
                                                 MetadataProvider* provider,
                                                 Network* network)
    : id_(id), schema_(schema), provider_(provider), network_(network) {}

LocalMetadataRepository::~LocalMetadataRepository() {
  // An unattached LMR must not detach the endpoint of the LMR that
  // holds its id.
  if (attached_) network_->Detach(id_);
}

Status LocalMetadataRepository::AttachToNetwork(
    std::vector<net::FlowRestore> flows) {
  net::ReceiverDurability durability;
  if (journal_ != nullptr && !journal_->options().read_only) {
    // The link journals every new frame BEFORE acking it and seeds the
    // recovered dedup state, which together make delivery exactly-once
    // across receiver crashes (see net::ReceiverJournal). Snapshot-
    // stream frames are the exception: they ride ephemeral per-serve
    // flows and a crashed join is abandoned and re-run, never replayed,
    // so journaling them would only bloat the log.
    wal::Journal* journal = journal_.get();
    durability.journal = [journal](const std::string& frame, uint64_t,
                                   uint64_t, pubsub::NotificationKind kind) {
      if (pubsub::IsSnapshotKind(kind)) return Status::OK();
      return journal->Append(kWalLmrApply, frame);
    };
    durability.flows = std::move(flows);
  }
  MDV_RETURN_IF_ERROR(network_->Attach(
      id_,
      [this](const pubsub::Notification& note) { ApplyNotification(note); },
      std::move(durability)));
  attached_ = true;
  return Status::OK();
}

Result<std::unique_ptr<LocalMetadataRepository>>
LocalMetadataRepository::OpenDurable(pubsub::LmrId id,
                                     const rdf::RdfSchema* schema,
                                     MetadataProvider* provider,
                                     Network* network,
                                     const wal::WalOptions& options) {
  wal::Manifest meta;
  meta.kind = "lmr";
  meta.schema_text = rdf::WriteSchemaText(*schema);
  MDV_ASSIGN_OR_RETURN(std::unique_ptr<wal::Journal> journal,
                       wal::Journal::Open(options, meta));
  const wal::RecoveryInfo& rec = journal->recovery();
  if (!rec.fresh && rec.manifest.schema_text != meta.schema_text) {
    return Status::InvalidArgument(
        "LMR WAL was written under a different RDF schema");
  }
  std::unique_ptr<LocalMetadataRepository> lmr(new LocalMetadataRepository(
      DeferAttach{}, id, schema, provider, network));
  lmr->journal_ = std::move(journal);
  std::map<uint64_t, net::FlowRestore> flows;
  Status recovered = Status::OK();
  {
    MutexLock lock(lmr->mu_);
    lmr->replaying_ = true;
    recovered = lmr->RecoverFromJournal(lmr->journal_->recovery(), &flows);
    lmr->replaying_ = false;
  }
  MDV_RETURN_IF_ERROR(recovered);
  std::vector<net::FlowRestore> flow_list;
  flow_list.reserve(flows.size());
  for (auto& [sender, flow] : flows) {
    flow.sender = sender;
    flow_list.push_back(std::move(flow));
  }
  MDV_RETURN_IF_ERROR(lmr->AttachToNetwork(std::move(flow_list)));
  return lmr;
}

Status LocalMetadataRepository::RecoverFromJournal(
    const wal::RecoveryInfo& rec, std::map<uint64_t, net::FlowRestore>* flows) {
  if (!rec.snapshot.empty()) {
    MDV_RETURN_IF_ERROR(LoadSnapshotRecords(rec.snapshot, flows));
  }
  for (const wal::WalRecord& record : rec.records) {
    wal::PayloadReader reader(record.payload);
    switch (record.type) {
      case kWalLmrApply:
        MDV_RETURN_IF_ERROR(ReplayApplyFrame(record.payload, flows));
        break;
      case kWalLmrSubscribe: {
        const int64_t id = reader.ReadI64().value_or(0);
        if (!reader.Done()) {
          return Status::Internal("malformed LMR subscribe record");
        }
        // The MDP side of the subscription recovers through the MDP's
        // own journal (or never crashed); only membership is ours.
        subscriptions_.insert(id);
        break;
      }
      case kWalLmrUnsubscribe: {
        const int64_t id = reader.ReadI64().value_or(0);
        if (!reader.Done()) {
          return Status::Internal("malformed LMR unsubscribe record");
        }
        subscriptions_.erase(id);
        for (auto& [uri, entry] : cache_) {
          entry.matched_subscriptions.erase(id);
        }
        CollectGarbage();
        break;
      }
      case kWalLmrLocalDocument: {
        const std::string uri = reader.ReadString().value_or("");
        const std::string xml = reader.ReadString().value_or("");
        if (!reader.Done()) {
          return Status::Internal("malformed LMR local-document record");
        }
        MDV_ASSIGN_OR_RETURN(rdf::RdfDocument doc, rdf::ParseRdfXml(xml, uri));
        MDV_RETURN_IF_ERROR(schema_->ValidateDocument(doc));
        for (const rdf::Resource* res : doc.resources()) {
          CacheEntry& entry = UpsertContent(
              doc.UriReferenceOf(res->local_id()), *res,
              pubsub::EntryVersion{});
          entry.local = true;
        }
        break;
      }
      default:
        return Status::Internal("unknown LMR journal record type " +
                                std::to_string(static_cast<int>(record.type)));
    }
  }
  RecountStrongReferrers();
  return Status::OK();
}

Status LocalMetadataRepository::ReplayApplyFrame(
    const std::string& frame_bytes,
    std::map<uint64_t, net::FlowRestore>* flows) {
  MDV_ASSIGN_OR_RETURN(net::DecodedFrame decoded,
                       net::DecodeFrame(frame_bytes));
  if (decoded.type != net::FrameType::kNotify) {
    return Status::Internal("journaled frame is not a notify frame");
  }
  const net::NotifyFrame& frame = decoded.notify;
  // Re-run the link's dedup/hold-back decision so replay applies
  // exactly what the handler saw — journaled duplicates are absorbed,
  // out-of-order frames wait for their gap.
  net::FlowRestore& flow = (*flows)[frame.sender];
  if (frame.sequence <= flow.applied_through ||
      flow.holdback.count(frame.sequence) != 0) {
    return Status::OK();
  }
  flow.holdback.emplace(frame.sequence, frame.notification);
  auto next = flow.holdback.find(flow.applied_through + 1);
  while (next != flow.holdback.end()) {
    ApplyNotificationLocked(next->second);
    flow.applied_through = next->first;
    flow.holdback.erase(next);
    next = flow.holdback.find(flow.applied_through + 1);
  }
  return Status::OK();
}

Status LocalMetadataRepository::LoadSnapshotRecords(
    const std::string& snapshot, std::map<uint64_t, net::FlowRestore>* flows) {
  const wal::WalScan scan = wal::ScanWalBuffer(snapshot);
  if (scan.torn) {
    // Snapshots are installed atomically; a torn one means corruption,
    // not a crash artifact.
    return Status::Internal("corrupt LMR snapshot: " + scan.tail_error);
  }
  for (const wal::WalRecord& record : scan.records) {
    wal::PayloadReader reader(record.payload);
    switch (record.type) {
      case kWalLmrSnapSubscriptions: {
        const uint32_t count = reader.ReadU32().value_or(0);
        for (uint32_t i = 0; i < count && !reader.failed(); ++i) {
          subscriptions_.insert(reader.ReadI64().value_or(0));
        }
        break;
      }
      case kWalLmrSnapCacheEntry: {
        const std::string uri = reader.ReadString().value_or("");
        const bool local = reader.ReadU8().value_or(0) != 0;
        std::set<pubsub::SubscriptionId> matched;
        const uint32_t nsubs = reader.ReadU32().value_or(0);
        for (uint32_t i = 0; i < nsubs && !reader.failed(); ++i) {
          matched.insert(reader.ReadI64().value_or(0));
        }
        pubsub::EntryVersion version;
        version.origin = reader.ReadU64().value_or(0);
        version.seq = reader.ReadU64().value_or(0);
        const std::string local_id = reader.ReadString().value_or("");
        const std::string class_name = reader.ReadString().value_or("");
        rdf::Resource resource(local_id, class_name);
        const uint32_t nprops = reader.ReadU32().value_or(0);
        for (uint32_t i = 0; i < nprops && !reader.failed(); ++i) {
          const std::string name = reader.ReadString().value_or("");
          const bool is_ref = reader.ReadU8().value_or(0) != 0;
          const std::string text = reader.ReadString().value_or("");
          resource.AddProperty(name,
                               is_ref ? rdf::PropertyValue::ResourceRef(text)
                                      : rdf::PropertyValue::Literal(text));
        }
        if (reader.failed()) {
          return Status::Internal("malformed snapshot cache entry");
        }
        CacheEntry& entry = UpsertContent(uri, resource, version);
        entry.local = local;
        entry.matched_subscriptions = std::move(matched);
        break;
      }
      case kWalLmrSnapFlow: {
        const uint64_t sender = reader.ReadU64().value_or(0);
        net::FlowRestore& flow = (*flows)[sender];
        flow.sender = sender;
        flow.applied_through = reader.ReadU64().value_or(0);
        const uint32_t held = reader.ReadU32().value_or(0);
        for (uint32_t i = 0; i < held && !reader.failed(); ++i) {
          const uint64_t sequence = reader.ReadU64().value_or(0);
          const std::string frame = reader.ReadString().value_or("");
          if (reader.failed()) break;
          MDV_ASSIGN_OR_RETURN(net::DecodedFrame decoded,
                               net::DecodeFrame(frame));
          flow.holdback.emplace(sequence, decoded.notify.notification);
        }
        break;
      }
      case kWalLmrSnapLocalSeq:
        // Written by earlier builds. Nonzero only under their retired
        // self-journaling protocol, whose post-checkpoint frames the
        // flow replay would park in hold-back forever.
        if (reader.ReadU64().value_or(0) != 0) {
          return Status::Unsupported(
              "LMR snapshot written by the retired synchronous-bus "
              "journal protocol (nonzero local sequence); recover it "
              "with the build that wrote it");
        }
        break;
      case kWalLmrSnapVersionVector: {
        const uint32_t count = reader.ReadU32().value_or(0);
        for (uint32_t i = 0; i < count && !reader.failed(); ++i) {
          const uint64_t origin = reader.ReadU64().value_or(0);
          const uint64_t seq = reader.ReadU64().value_or(0);
          uint64_t& high = version_vector_[origin];
          high = std::max(high, seq);
        }
        break;
      }
      default:
        return Status::Internal("unknown LMR snapshot record type " +
                                std::to_string(static_cast<int>(record.type)));
    }
    if (reader.failed()) {
      return Status::Internal("malformed LMR snapshot record type " +
                              std::to_string(static_cast<int>(record.type)));
    }
  }
  RecountStrongReferrers();
  return Status::OK();
}

std::string LocalMetadataRepository::BuildSnapshotLocked(
    const std::vector<net::FlowRestore>& flows) const {
  std::string snapshot;
  {
    std::string payload;
    wal::PutU32(payload, static_cast<uint32_t>(subscriptions_.size()));
    for (pubsub::SubscriptionId sub : subscriptions_) {
      wal::PutI64(payload, sub);
    }
    snapshot += wal::EncodeWalRecord(kWalLmrSnapSubscriptions, payload);
  }
  for (const auto& [uri, entry] : cache_) {
    std::string payload;
    wal::PutString(payload, uri);
    wal::PutU8(payload, entry.local ? 1 : 0);
    wal::PutU32(payload,
                static_cast<uint32_t>(entry.matched_subscriptions.size()));
    for (pubsub::SubscriptionId sub : entry.matched_subscriptions) {
      wal::PutI64(payload, sub);
    }
    wal::PutU64(payload, entry.version.origin);
    wal::PutU64(payload, entry.version.seq);
    wal::PutString(payload, entry.resource.local_id());
    wal::PutString(payload, entry.resource.class_name());
    wal::PutU32(payload,
                static_cast<uint32_t>(entry.resource.properties().size()));
    for (const rdf::Property& prop : entry.resource.properties()) {
      wal::PutString(payload, prop.name);
      wal::PutU8(payload, prop.value.is_resource_ref() ? 1 : 0);
      wal::PutString(payload, prop.value.text());
    }
    snapshot += wal::EncodeWalRecord(kWalLmrSnapCacheEntry, payload);
  }
  for (const net::FlowRestore& flow : flows) {
    // Snapshot-stream frames never persist: their per-serve flows are
    // ephemeral and an interrupted join restarts from scratch.
    std::vector<std::pair<uint64_t, const pubsub::Notification*>> held;
    for (const auto& [sequence, note] : flow.holdback) {
      if (pubsub::IsSnapshotKind(note.kind)) continue;
      held.emplace_back(sequence, &note);
    }
    std::string payload;
    wal::PutU64(payload, flow.sender);
    wal::PutU64(payload, flow.applied_through);
    wal::PutU32(payload, static_cast<uint32_t>(held.size()));
    for (const auto& [sequence, note] : held) {
      wal::PutU64(payload, sequence);
      net::NotifyFrame frame;
      frame.sender = flow.sender;
      frame.sequence = sequence;
      frame.notification = *note;
      wal::PutString(payload, net::EncodeNotifyFrame(frame));
    }
    snapshot += wal::EncodeWalRecord(kWalLmrSnapFlow, payload);
  }
  {
    std::string payload;
    wal::PutU32(payload, static_cast<uint32_t>(version_vector_.size()));
    for (const auto& [origin, seq] : version_vector_) {
      wal::PutU64(payload, origin);
      wal::PutU64(payload, seq);
    }
    snapshot += wal::EncodeWalRecord(kWalLmrSnapVersionVector, payload);
  }
  return snapshot;
}

Status LocalMetadataRepository::Checkpoint() {
  MutexLock lock(mu_);
  return CheckpointLocked();
}

Status LocalMetadataRepository::CheckpointLocked() {
  if (journal_ == nullptr) {
    return Status::InvalidArgument("durability not enabled");
  }
  // Copy the link's dedup state first; with the network quiesced this
  // is the exact complement of the cache image built next.
  const std::vector<net::FlowRestore> flows = network_->ReceiverFlowState(id_);
  return journal_->Checkpoint(BuildSnapshotLocked(flows));
}

Status LocalMetadataRepository::JournalAppendLocked(uint8_t type,
                                                    std::string payload) {
  if (journal_ == nullptr || replaying_ || journal_->options().read_only) {
    return Status::OK();
  }
  MDV_RETURN_IF_ERROR(journal_->Append(type, std::move(payload)));
  const wal::WalOptions& opts = journal_->options();
  if (opts.checkpoint_every > 0 &&
      journal_->appended_since_checkpoint() >= opts.checkpoint_every) {
    return CheckpointLocked();
  }
  return Status::OK();
}

Status LocalMetadataRepository::AuditCacheInvariants() const {
  MutexLock lock(mu_);
  for (const auto& [uri, entry] : cache_) {
    for (pubsub::SubscriptionId sub : entry.matched_subscriptions) {
      if (subscriptions_.count(sub) == 0) {
        return Status::Internal("cache entry " + uri +
                                " matched by unknown subscription " +
                                std::to_string(sub));
      }
    }
    if (schema_->FindClass(entry.resource.class_name()) == nullptr) {
      return Status::Internal("cache entry " + uri + " has unknown class " +
                              entry.resource.class_name());
    }
    std::vector<std::string> expected = StrongTargetsOf(entry.resource);
    std::vector<std::string> actual = entry.strong_targets;
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    if (expected != actual) {
      return Status::Internal("cache entry " + uri +
                              " strong-target list does not re-derive from "
                              "its content");
    }
    if (!entry.local && entry.matched_subscriptions.empty() &&
        entry.strong_referrers <= 0) {
      return Status::Internal("cache entry " + uri +
                              " is GC-dead but still resident");
    }
    // The version vector must cover every cached stamp — a vector that
    // regressed against the cache would make delta catchup skip content
    // the replica does not actually have.
    if (!(entry.version == pubsub::EntryVersion{})) {
      const auto it = version_vector_.find(entry.version.origin);
      if (it == version_vector_.end() || it->second < entry.version.seq) {
        return Status::Internal(
            "cache entry " + uri + " version (" +
            std::to_string(entry.version.origin) + "," +
            std::to_string(entry.version.seq) +
            ") not covered by the version vector");
      }
    }
  }
  // Re-derive every strong_referrers count from the target lists.
  std::map<std::string, int> counts;
  for (const auto& [uri, entry] : cache_) {
    for (const std::string& target : entry.strong_targets) {
      if (cache_.count(target) != 0) ++counts[target];
    }
  }
  for (const auto& [uri, entry] : cache_) {
    const auto it = counts.find(uri);
    const int expected = it == counts.end() ? 0 : it->second;
    if (entry.strong_referrers != expected) {
      return Status::Internal(
          "cache entry " + uri + " strong_referrers=" +
          std::to_string(entry.strong_referrers) + ", re-derived " +
          std::to_string(expected));
    }
  }
  return Status::OK();
}

Result<pubsub::SubscriptionId> LocalMetadataRepository::Subscribe(
    std::string_view rule_text, const std::string& name) {
  // The provider is called outside mu_ (its api lock ranks outside the
  // cache lock; inline seeding notifications re-enter our handler).
  MDV_ASSIGN_OR_RETURN(pubsub::SubscriptionId id,
                       provider_->Subscribe(id_, rule_text, name));
  MutexLock lock(mu_);
  subscriptions_.insert(id);
  std::string payload;
  wal::PutI64(payload, id);
  MDV_RETURN_IF_ERROR(JournalAppendLocked(kWalLmrSubscribe,
                                          std::move(payload)));
  return id;
}

Status LocalMetadataRepository::Unsubscribe(
    pubsub::SubscriptionId subscription) {
  MDV_RETURN_IF_ERROR(provider_->Unsubscribe(subscription));
  MutexLock lock(mu_);
  subscriptions_.erase(subscription);
  // Retract the subscription's matches locally and let the GC clean up.
  for (auto& [uri, entry] : cache_) {
    entry.matched_subscriptions.erase(subscription);
  }
  CollectGarbage();
  std::string payload;
  wal::PutI64(payload, subscription);
  return JournalAppendLocked(kWalLmrUnsubscribe, std::move(payload));
}

Status LocalMetadataRepository::JoinReplica(const JoinOptions& options) {
  if (provider_ == nullptr) {
    return Status::InvalidArgument(
        "LMR opened without a provider; joins are off-limits");
  }
  LmrMetrics& metrics = LmrMetrics::Get();
  obs::ScopedSpan span("lmr.join", &metrics.join_us);
  span.AddAttribute("lmr", static_cast<int64_t>(id_));
  span.AddAttribute("delta", options.delta ? "true" : "false");
  const int attempts = std::max(1, options.max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    // Set up the join BEFORE the request leaves: every live
    // notification from here on is buffered, so anything the serve's
    // consistent cut misses is replayed over the snapshot at finalize.
    net::SnapshotRequestFrame request;
    request.provider = provider_->sender_id();
    request.lmr = id_;
    request.delta = options.delta;
    {
      MutexLock lock(mu_);
      if (join_ != nullptr) AbandonJoinLocked();
      request.request_id =
          ((static_cast<uint64_t>(id_) & 0xffffffff) << 32) |
          (++join_counter_ & 0xffffffff);
      for (const auto& [origin, seq] : version_vector_) {
        request.vector.push_back(pubsub::EntryVersion{origin, seq});
      }
      if (options.delta) {
        for (const auto& [uri, entry] : cache_) {
          if (entry.version == pubsub::EntryVersion{}) continue;
          net::SnapshotRequestFrame::CursorEntry cursor;
          cursor.uri_reference = uri;
          cursor.version = entry.version;
          request.cursor.push_back(std::move(cursor));
        }
      }
      auto state = std::make_unique<JoinState>();
      state->request_id = request.request_id;
      state->options = options;
      state->started_ns = obs::NowNs();
      join_ = std::move(state);
    }
    // Sent without holding mu_: the inline transport serves before
    // RequestSnapshot returns, and the chunk deliveries re-enter our
    // handler.
    const Status sent =
        network_->RequestSnapshot(provider_->sender_id(), request);
    bool completed = false;
    {
      MutexLock lock(mu_);
      if (!sent.ok()) {
        AbandonJoinLocked();
        return sent;
      }
      const int64_t deadline_ns =
          obs::NowNs() + options.attempt_timeout_us * 1000;
      while (last_completed_request_id_ != request.request_id) {
        const int64_t remaining_us = (deadline_ns - obs::NowNs()) / 1000;
        if (remaining_us <= 0) break;
        join_cv_.WaitFor(mu_, remaining_us);
      }
      if (last_completed_request_id_ == request.request_id) {
        completed = true;
      } else {
        // Request or serve lost (fire-and-forget control channel):
        // abandon, replay what was buffered, retry with a fresh id.
        AbandonJoinLocked();
      }
    }
    if (completed) {
      if (journal_ != nullptr && !journal_->options().read_only) {
        // Fold the joined state into a compact snapshot so recovery
        // does not depend on re-running the join. Only safe quiesced —
        // the flow state copied by Checkpoint must not race in-flight
        // frames — so skip the fold (not the join) if the network
        // stays busy.
        if (network_->WaitQuiescent()) {
          MDV_RETURN_IF_ERROR(Checkpoint());
        }
      }
      return Status::OK();
    }
  }
  return Status::ResourceExhausted("replica join timed out after " +
                                   std::to_string(attempts) + " attempts");
}

Status LocalMetadataRepository::Refresh() {
  // Since the versioned-replica refactor a refresh IS a full join: pull
  // a complete snapshot, repair flags from its manifest, GC the rest.
  JoinOptions options;
  options.delta = false;
  return JoinReplica(options);
}

Status LocalMetadataRepository::RegisterLocalDocument(
    const rdf::RdfDocument& document) {
  MDV_RETURN_IF_ERROR(schema_->ValidateDocument(document));
  MutexLock lock(mu_);
  for (const rdf::Resource* res : document.resources()) {
    CacheEntry& entry =
        UpsertContent(document.UriReferenceOf(res->local_id()), *res,
                      pubsub::EntryVersion{});
    entry.local = true;
  }
  RecountStrongReferrers();
  std::string payload;
  wal::PutString(payload, document.uri());
  wal::PutString(payload, rdf::WriteRdfXml(document));
  return JournalAppendLocked(kWalLmrLocalDocument, std::move(payload));
}

std::vector<std::string> LocalMetadataRepository::StrongTargetsOf(
    const rdf::Resource& resource) const {
  std::vector<std::string> targets;
  for (const rdf::Property& prop : resource.properties()) {
    if (!prop.value.is_resource_ref()) continue;
    const rdf::PropertyDef* def =
        schema_->FindProperty(resource.class_name(), prop.name);
    if (def != nullptr && def->strength == rdf::RefStrength::kStrong) {
      targets.push_back(prop.value.text());
    }
  }
  return targets;
}

CacheEntry& LocalMetadataRepository::UpsertContent(
    const std::string& uri, const rdf::Resource& resource,
    pubsub::EntryVersion version) {
  // Counts are settled by RecountStrongReferrers() after every batch of
  // content changes; this only lands content and target lists.
  const bool versioned = !(version == pubsub::EntryVersion{});
  if (versioned) {
    uint64_t& high = version_vector_[version.origin];
    high = std::max(high, version.seq);
  }
  auto it = cache_.find(uri);
  if (it == cache_.end()) {
    CacheEntry entry;
    entry.resource = resource;
    entry.version = version;
    entry.strong_targets = StrongTargetsOf(resource);
    return cache_.emplace(uri, std::move(entry)).first->second;
  }
  CacheEntry& entry = it->second;
  if (versioned && version < entry.version) {
    // Stale write (reordered retransmit, snapshot older than a live
    // update already applied): last writer wins, content stays.
    return entry;
  }
  entry.resource = resource;
  if (versioned) entry.version = version;
  entry.strong_targets = StrongTargetsOf(resource);
  return entry;
}

void LocalMetadataRepository::ApplyNotification(
    const pubsub::Notification& note) {
  MutexLock lock(mu_);
  // In TTL mode pushed notifications are ignored; Refresh() is the only
  // consistency mechanism (§3.5's alternative). Snapshot-stream frames
  // pass — Refresh() itself is a join and needs them.
  if (mode_ == ConsistencyMode::kTimeToLive &&
      !pubsub::IsSnapshotKind(note.kind)) {
    return;
  }
  ApplyNotificationLocked(note);
}

void LocalMetadataRepository::ApplyNotificationLocked(
    const pubsub::Notification& note) {
  if (pubsub::IsSnapshotKind(note.kind)) {
    HandleSnapshotNotificationLocked(note);
    return;
  }
  if (join_ != nullptr) {
    // Mid-join: hold the live stream back; it replays (in order) over
    // the merged snapshot at finalize, where the LWW guards absorb
    // anything the snapshot already covered.
    join_->buffered.push_back(note);
    return;
  }
  LmrMetrics& metrics = LmrMetrics::Get();
  // Parent to the message's correlation context (the originating MDP
  // operation) so the apply lands in the publisher's trace even when it
  // runs outside a delivery call chain — join replay applies buffered
  // notifications after the delivery span has closed.
  obs::ScopedSpan span("lmr.apply_notification", note.trace,
                       &metrics.apply_us);
  span.AddAttribute("lmr", static_cast<int64_t>(id_));
  span.AddAttribute("resources", static_cast<int64_t>(note.resources.size()));
  obs::FlightRecorder::Default().Record(
      obs::FlightEventType::kApply, static_cast<int64_t>(id_),
      static_cast<int64_t>(note.resources.size()),
      static_cast<int64_t>(note.trace.trace_id));
  metrics.applied.Increment();
  const int64_t evictions_before = gc_evictions_;
  switch (note.kind) {
    case pubsub::NotificationKind::kInsert: {
      // First land all contents (closure members may be referenced
      // before they appear in the list), then settle match flags.
      for (const pubsub::TransmittedResource& shipped : note.resources) {
        UpsertContent(shipped.uri_reference, shipped.resource,
                      shipped.version);
      }
      RecountStrongReferrers();
      for (const pubsub::TransmittedResource& shipped : note.resources) {
        if (shipped.via_strong_reference) continue;
        auto it = cache_.find(shipped.uri_reference);
        if (it != cache_.end() && note.subscription >= 0) {
          it->second.matched_subscriptions.insert(note.subscription);
        }
      }
      break;
    }
    case pubsub::NotificationKind::kUpdate: {
      // Apply only to resources this LMR actually caches.
      for (const pubsub::TransmittedResource& shipped : note.resources) {
        if (cache_.count(shipped.uri_reference) != 0) {
          UpsertContent(shipped.uri_reference, shipped.resource,
                        shipped.version);
        }
      }
      RecountStrongReferrers();
      CollectGarbage();
      break;
    }
    case pubsub::NotificationKind::kRemove: {
      for (const pubsub::TransmittedResource& shipped : note.resources) {
        auto it = cache_.find(shipped.uri_reference);
        if (it != cache_.end() && note.subscription >= 0) {
          it->second.matched_subscriptions.erase(note.subscription);
        }
      }
      CollectGarbage();
      break;
    }
    case pubsub::NotificationKind::kSnapshotChunk:
    case pubsub::NotificationKind::kSnapshotDone:
      break;  // Handled above.
  }
  metrics.evictions.Add(gc_evictions_ - evictions_before);
  span.AddAttribute("evictions", gc_evictions_ - evictions_before);
}

void LocalMetadataRepository::HandleSnapshotNotificationLocked(
    const pubsub::Notification& note) {
  if (join_ == nullptr || note.snapshot_request != join_->request_id) {
    // No join in flight, or a stale serve from an abandoned attempt
    // (its chunks keep arriving on the old ephemeral flow): drop.
    return;
  }
  if (note.kind == pubsub::NotificationKind::kSnapshotChunk) {
    for (const pubsub::TransmittedResource& shipped : note.resources) {
      auto it = join_->staged.find(shipped.uri_reference);
      if (it == join_->staged.end() ||
          !(shipped.version < it->second.second)) {
        join_->staged[shipped.uri_reference] = {shipped.resource,
                                                shipped.version};
      }
    }
    ++join_->chunks_received;
  } else {
    join_->done_received = true;
    join_->manifest = note.manifest;
    join_->manifest_trace = note.trace;
  }
  // The serve's flow is FIFO, so Done normally arrives last; the guard
  // also covers pathological reorderings across codec boundaries.
  if (join_->done_received &&
      join_->chunks_received >= join_->manifest.total_chunks) {
    FinalizeJoinLocked();
  }
}

void LocalMetadataRepository::FinalizeJoinLocked() {
  JoinState& join = *join_;
  const int64_t staged_entries = static_cast<int64_t>(join.staged.size());
  const int64_t chunks = static_cast<int64_t>(join.chunks_received);
  // The merge/repair work joins the MDP serve's trace (carried on the
  // Done note) so snapshot application correlates with the serve that
  // produced it, mirroring lmr.apply_notification for live pushes.
  obs::ScopedSpan span("lmr.finalize_join", join.manifest_trace);
  span.AddAttribute("staged", staged_entries);
  span.AddAttribute("chunks", chunks);
  // 1. Merge the staged snapshot under LWW: entries the live stream
  // already advanced past keep their newer content.
  for (const auto& [uri, staged] : join.staged) {
    UpsertContent(uri, staged.first, staged.second);
  }
  // 2. Repair match flags exactly per the manifest — only for the
  // subscriptions it lists (and that we still hold); local metadata and
  // foreign subscriptions are untouched.
  for (const pubsub::SnapshotManifestEntry& entry : join.manifest.entries) {
    if (subscriptions_.count(entry.subscription) == 0) continue;
    const std::set<std::string> matches(entry.uris.begin(),
                                        entry.uris.end());
    for (auto& [uri, cached] : cache_) {
      if (matches.count(uri) != 0) {
        cached.matched_subscriptions.insert(entry.subscription);
      } else {
        cached.matched_subscriptions.erase(entry.subscription);
      }
    }
  }
  // 3. Adopt the served state's per-origin high water.
  for (const pubsub::EntryVersion& v : join.manifest.cursor) {
    uint64_t& high = version_vector_[v.origin];
    high = std::max(high, v.seq);
  }
  RecountStrongReferrers();
  CollectGarbage();
  LmrMetrics& metrics = LmrMetrics::Get();
  metrics.lag_entries.Set(staged_entries);
  metrics.join_us.Record((obs::NowNs() - join.started_ns) / 1000);
  obs::FlightRecorder::Default().Record(
      obs::FlightEventType::kReplJoin, static_cast<int64_t>(id_), chunks,
      staged_entries);
  // 4. Replay the buffered live suffix in arrival order; LWW absorbs
  // whatever the snapshot already covered, flag operations re-apply
  // idempotently.
  const std::vector<pubsub::Notification> buffered = std::move(join.buffered);
  const uint64_t request_id = join.request_id;
  join_.reset();
  for (const pubsub::Notification& note : buffered) {
    ApplyNotificationLocked(note);
  }
  last_completed_request_id_ = request_id;
  ++joins_completed_;
  join_cv_.NotifyAll();
}

void LocalMetadataRepository::AbandonJoinLocked() {
  if (join_ == nullptr) return;
  const std::vector<pubsub::Notification> buffered = std::move(join_->buffered);
  join_.reset();
  // Nothing staged is lost — it was never applied — but the buffered
  // live stream must land or the replica silently drops updates.
  for (const pubsub::Notification& note : buffered) {
    ApplyNotificationLocked(note);
  }
}

void LocalMetadataRepository::RecountStrongReferrers() {
  for (auto& [uri, entry] : cache_) entry.strong_referrers = 0;
  for (auto& [uri, entry] : cache_) {
    for (const std::string& target : entry.strong_targets) {
      auto it = cache_.find(target);
      if (it != cache_.end()) ++it->second.strong_referrers;
    }
  }
}

void LocalMetadataRepository::CollectGarbage() {
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = cache_.begin(); it != cache_.end();) {
      CacheEntry& entry = it->second;
      if (!entry.local && entry.matched_subscriptions.empty() &&
          entry.strong_referrers <= 0) {
        // Retract this entry's outgoing strong references, then evict.
        for (const std::string& target : entry.strong_targets) {
          auto tit = cache_.find(target);
          if (tit != cache_.end()) --tit->second.strong_referrers;
        }
        it = cache_.erase(it);
        ++gc_evictions_;
        changed = true;
      } else {
        ++it;
      }
    }
  }
}

const CacheEntry* LocalMetadataRepository::Find(
    const std::string& uri_reference) const {
  MutexLock lock(mu_);
  auto it = cache_.find(uri_reference);
  return it == cache_.end() ? nullptr : &it->second;
}

std::vector<std::string> LocalMetadataRepository::CachedUris() const {
  MutexLock lock(mu_);
  std::vector<std::string> uris;
  uris.reserve(cache_.size());
  for (const auto& [uri, entry] : cache_) uris.push_back(uri);
  return uris;
}

Result<std::vector<QueryMatch>> LocalMetadataRepository::Query(
    std::string_view query_text) const {
  LmrMetrics& metrics = LmrMetrics::Get();
  obs::ScopedLatency latency(&metrics.query_us);
  MutexLock lock(mu_);
  // The query language shares the rule language's syntax and semantics
  // (§2.2); evaluation runs against locally available metadata only.
  rules::ResourceMap resources;
  for (const auto& [uri, entry] : cache_) {
    resources.emplace_hint(resources.end(), uri, &entry.resource);
  }
  rules::EvalStats stats;
  MDV_ASSIGN_OR_RETURN(
      std::vector<std::string> uris,
      rules::EvaluateRuleText(query_text, *schema_, resources, &stats));
  metrics.query_bindings.Add(static_cast<int64_t>(stats.bindings_tried));
  std::vector<QueryMatch> out;
  out.reserve(uris.size());
  for (const std::string& uri : uris) {
    out.push_back(QueryMatch{uri, resources.at(uri)});
  }
  return out;
}

}  // namespace mdv
