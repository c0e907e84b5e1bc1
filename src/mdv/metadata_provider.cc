#include "mdv/metadata_provider.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "mdv/wal_records.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdbms/persistence.h"
#include "rdf/parser.h"
#include "rdf/schema_io.h"
#include "rdf/writer.h"
#include "rules/compiler.h"
#include "wal/record.h"

namespace mdv {

namespace {

/// Registry handles of the MDP entry points, resolved once.
struct MdpMetrics {
  obs::MetricsRegistry& r = obs::DefaultMetrics();
  obs::Counter& registered = r.GetCounter("mdv.mdp.documents_registered_total");
  obs::Counter& updated = r.GetCounter("mdv.mdp.documents_updated_total");
  obs::Counter& deleted = r.GetCounter("mdv.mdp.documents_deleted_total");
  obs::Counter& subscriptions = r.GetCounter("mdv.mdp.subscriptions_total");
  /// Publish/update/delete operations currently inside an MDP entry
  /// point, summed across providers (per-MDP depth via
  /// MetadataProvider::inflight_publishes()).
  obs::Gauge& inflight = r.GetGauge("mdv.mdp.inflight_publishes");
  obs::Histogram& publish_us = r.GetHistogram("mdv.mdp.publish_us");
  obs::Histogram& update_us = r.GetHistogram("mdv.mdp.update_us");
  obs::Histogram& delete_us = r.GetHistogram("mdv.mdp.delete_us");
  obs::Histogram& subscribe_us = r.GetHistogram("mdv.mdp.subscribe_us");

  static MdpMetrics& Get() {
    static MdpMetrics& metrics = *new MdpMetrics();
    return metrics;
  }
};

/// Stamps the originating operation's span context on every outgoing
/// notification so delivery and application correlate to one trace.
void StampTrace(std::vector<pubsub::Notification>* notes,
                const obs::SpanContext& trace) {
  for (pubsub::Notification& note : *notes) note.trace = trace;
}

/// Tracks one publish-path operation in the aggregate gauge and the
/// owning MDP's own depth for the duration of the entry point.
class ScopedInflight {
 public:
  ScopedInflight(obs::Gauge* gauge, std::atomic<int>* per_mdp)
      : gauge_(gauge), per_mdp_(per_mdp) {
    gauge_->Add(1);
    per_mdp_->fetch_add(1, std::memory_order_relaxed);
  }
  ~ScopedInflight() {
    gauge_->Add(-1);
    per_mdp_->fetch_sub(1, std::memory_order_relaxed);
  }

  ScopedInflight(const ScopedInflight&) = delete;
  ScopedInflight& operator=(const ScopedInflight&) = delete;

 private:
  obs::Gauge* gauge_;
  std::atomic<int>* per_mdp_;
};

}  // namespace

MetadataProvider::MetadataProvider(const rdf::RdfSchema* schema,
                                   Network* network,
                                   filter::RuleStoreOptions rule_options,
                                   filter::EngineOptions engine_options)
    : schema_(schema), network_(network), rule_options_(rule_options),
      engine_options_(engine_options),
      sender_id_(network->RegisterSender()),
      db_(std::make_unique<rdbms::Database>()) {
  Status st = filter::CreateFilterTables(db_.get(), filter::TableOptions{},
                                         rule_options.num_shards);
  (void)st;  // Fresh database; cannot fail.
  rule_store_ = std::make_unique<filter::RuleStore>(db_.get(), rule_options);
  engine_ = std::make_unique<filter::FilterEngine>(db_.get(),
                                                   rule_store_.get(),
                                                   engine_options_);
  publisher_ = std::make_unique<pubsub::Publisher>(
      schema_, &registry_,
      [this](const std::string& uri_reference) {
        return documents_.FindResource(uri_reference);
      },
      [this](const std::string& uri_reference) {
        // The publisher only runs from entry points holding api_mu_.
        api_mu_.AssertHeld();
        return VersionForReferenceLocked(uri_reference);
      });
  // Version stamps must stay stable across restarts even though the
  // network may hand a recovered incarnation different sender ids, so
  // the stamp origin is snapshotted state seeded (not aliased) here.
  origin_id_ = sender_id_;
  (void)network_->BindSnapshotServer(
      sender_id_, [this](const net::SnapshotRequestFrame& request) {
        (void)ServeSnapshot(request);
      });
}

MetadataProvider::~MetadataProvider() {
  network_->UnbindSnapshotServer(sender_id_);
}

Status MetadataProvider::RegisterDocumentXml(std::string_view xml,
                                             const std::string& uri) {
  MDV_ASSIGN_OR_RETURN(rdf::RdfDocument document, rdf::ParseRdfXml(xml, uri));
  return RegisterDocument(std::move(document));
}

Status MetadataProvider::RegisterDocument(rdf::RdfDocument document) {
  std::vector<rdf::RdfDocument> batch;
  batch.push_back(std::move(document));
  return RegisterDocumentBatchInternal(std::move(batch), Origin::kClient);
}

Status MetadataProvider::RegisterDocumentBatch(
    std::vector<rdf::RdfDocument> documents) {
  return RegisterDocumentBatchInternal(std::move(documents), Origin::kClient);
}

Status MetadataProvider::RegisterDocumentBatchInternal(
    std::vector<rdf::RdfDocument> docs, Origin origin,
    std::vector<pubsub::EntryVersion> stamps) {
  MdpMetrics& metrics = MdpMetrics::Get();
  obs::ScopedSpan span("mdp.publish", &metrics.publish_us);
  ScopedInflight inflight(&metrics.inflight, &inflight_publishes_);
  span.AddAttribute("documents", static_cast<int64_t>(docs.size()));
  span.AddAttribute("origin", origin == Origin::kClient ? "client" : "peer");
  obs::FlightRecorder::Default().Record(
      obs::FlightEventType::kPublish, static_cast<int64_t>(sender_id_),
      static_cast<int64_t>(docs.size()),
      static_cast<int64_t>(span.context().trace_id));
  // Keep copies for backbone replication before moving into the store.
  std::vector<rdf::RdfDocument> replicas;
  std::vector<MetadataProvider*> peers;
  {
    MutexLock lock(api_mu_);
    peers = peers_;
    for (const rdf::RdfDocument& doc : docs) {
      MDV_RETURN_IF_ERROR(schema_->ValidateDocument(doc));
      if (documents_.Find(doc.uri()) != nullptr) {
        return Status::AlreadyExists("document " + doc.uri() +
                                     "; use UpdateDocument to re-register");
      }
    }
    if (origin == Origin::kClient && !peers.empty()) {
      replicas = docs;
    }
    // Stamp every document before publishing so the publisher's version
    // resolver sees the new revisions. An empty `stamps` means the
    // mutation originates here: allocate from this MDP's counter (the
    // counter is snapshot state, so WAL replay re-allocates the exact
    // stamps the original run published).
    if (stamps.empty()) {
      stamps.reserve(docs.size());
      for (size_t i = 0; i < docs.size(); ++i) {
        stamps.push_back(pubsub::EntryVersion{origin_id_,
                                              ++next_version_seq_});
      }
    } else if (stamps.size() != docs.size()) {
      return Status::InvalidArgument("version stamp count mismatch");
    }
    std::vector<std::string> uris;
    uris.reserve(docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      // Versions are tracked per RESOURCE (the unit replicas cache),
      // so a later partial update leaves untouched resources on their
      // old stamp — and a snapshot serve agrees byte-for-byte with
      // what the live stream shipped.
      for (const rdf::Resource* res : docs[i].resources()) {
        resource_versions_[docs[i].UriReferenceOf(res->local_id())] =
            stamps[i];
      }
      if (stamps[i].origin == origin_id_) {
        next_version_seq_ = std::max(next_version_seq_, stamps[i].seq);
      }
      uris.push_back(docs[i].uri());
      MDV_RETURN_IF_ERROR(documents_.Add(std::move(docs[i])));
    }
    std::vector<const rdf::RdfDocument*> doc_ptrs;
    doc_ptrs.reserve(uris.size());
    for (const std::string& uri : uris) {
      doc_ptrs.push_back(documents_.Find(uri));
    }

    MDV_ASSIGN_OR_RETURN(filter::FilterRunResult result,
                         filter::RegisterDocuments(db_.get(), engine_.get(),
                                                   doc_ptrs));
    last_iterations_ = result.iterations;

    MDV_ASSIGN_OR_RETURN(std::vector<pubsub::Notification> notes,
                         publisher_->PublishNewMatches(result));
    StampTrace(&notes, span.context());
    span.AddAttribute("notifications", static_cast<int64_t>(notes.size()));
    if (journal_ != nullptr && !replaying_) {
      std::string payload;
      wal::PutU32(payload, static_cast<uint32_t>(uris.size()));
      for (size_t i = 0; i < uris.size(); ++i) {
        wal::PutString(payload, uris[i]);
        wal::PutString(payload, rdf::WriteRdfXml(*documents_.Find(uris[i])));
        wal::PutU64(payload, stamps[i].origin);
        wal::PutU64(payload, stamps[i].seq);
      }
      MDV_RETURN_IF_ERROR(
          JournalAppendLocked(kWalMdpRegisterDocuments, std::move(payload)));
    }
    if (!replaying_) network_->DeliverAll(notes, sender_id_);
    metrics.registered.Add(static_cast<int64_t>(docs.size()));
  }

  // Replicate outside the mutex: peers serialize on their own, and two
  // mutually-peered MDPs holding their locks while forwarding would
  // deadlock.
  if (origin == Origin::kClient) {
    for (MetadataProvider* peer : peers) {
      MDV_RETURN_IF_ERROR(
          peer->RegisterDocumentBatchInternal(replicas, Origin::kPeer,
                                              stamps));
    }
  }
  return Status::OK();
}

Status MetadataProvider::UpdateDocument(rdf::RdfDocument document) {
  return UpdateDocumentInternal(std::move(document), Origin::kClient);
}

Status MetadataProvider::DeleteDocument(const std::string& uri) {
  return DeleteDocumentInternal(uri, Origin::kClient);
}

Status MetadataProvider::UpdateDocumentInternal(rdf::RdfDocument document,
                                                Origin origin,
                                                pubsub::EntryVersion stamp) {
  MdpMetrics& metrics = MdpMetrics::Get();
  obs::ScopedSpan span("mdp.update", &metrics.update_us);
  ScopedInflight inflight(&metrics.inflight, &inflight_publishes_);
  span.AddAttribute("uri", document.uri());
  rdf::RdfDocument updated_copy = document;
  std::vector<MetadataProvider*> peers;
  {
    MutexLock lock(api_mu_);
    peers = peers_;
    MDV_RETURN_IF_ERROR(schema_->ValidateDocument(document));
    const rdf::RdfDocument* original = documents_.Find(document.uri());
    if (original == nullptr) {
      return Status::NotFound("document " + document.uri() +
                              "; register it first");
    }
    rdf::RdfDocument original_copy = *original;

    // Replace the stored document before publishing so the publisher's
    // resource resolver sees the new versions.
    MDV_RETURN_IF_ERROR(documents_.Replace(std::move(document)));

    // The three filter passes mutate FilterData and MaterializedResults;
    // run them transactionally so a mid-protocol failure leaves the
    // filter state (and the document store) untouched.
    MDV_RETURN_IF_ERROR(db_->BeginTransaction());
    Result<filter::UpdateOutcome> protocol = filter::ApplyDocumentUpdate(
        db_.get(), engine_.get(), original_copy, updated_copy);
    if (!protocol.ok()) {
      Status rollback = db_->RollbackTransaction();
      (void)rollback;
      Status restore = documents_.Replace(original_copy);
      (void)restore;
      return protocol.status();
    }
    MDV_RETURN_IF_ERROR(db_->CommitTransaction());
    filter::UpdateOutcome outcome = std::move(protocol).value();
    last_iterations_ = outcome.new_matches.iterations;

    // Stamp the new revision before publishing — the kUpdate (and any
    // update-induced kRemove) notifications carry this version, and LWW
    // replicas use it to discard stale reorderings.
    if (stamp == pubsub::EntryVersion{}) {
      stamp = pubsub::EntryVersion{origin_id_, ++next_version_seq_};
    } else if (stamp.origin == origin_id_) {
      next_version_seq_ = std::max(next_version_seq_, stamp.seq);
    }
    // Only resources whose content actually changed (or are new) move
    // to the update's stamp; untouched ones keep the version replicas
    // already hold for them. Removed resources lose their stamp.
    for (const rdf::Resource* res : updated_copy.resources()) {
      const rdf::Resource* before = original_copy.FindResource(
          res->local_id());
      if (before == nullptr || !before->ContentEquals(*res)) {
        resource_versions_[updated_copy.UriReferenceOf(res->local_id())] =
            stamp;
      }
    }
    for (const rdf::Resource* res : original_copy.resources()) {
      if (updated_copy.FindResource(res->local_id()) == nullptr) {
        resource_versions_.erase(
            original_copy.UriReferenceOf(res->local_id()));
      }
    }

    MDV_ASSIGN_OR_RETURN(std::vector<pubsub::Notification> notes,
                         publisher_->PublishUpdateOutcome(outcome));
    StampTrace(&notes, span.context());
    span.AddAttribute("notifications", static_cast<int64_t>(notes.size()));
    if (journal_ != nullptr && !replaying_) {
      std::string payload;
      wal::PutString(payload, updated_copy.uri());
      wal::PutString(payload, rdf::WriteRdfXml(updated_copy));
      wal::PutU64(payload, stamp.origin);
      wal::PutU64(payload, stamp.seq);
      MDV_RETURN_IF_ERROR(
          JournalAppendLocked(kWalMdpUpdateDocument, std::move(payload)));
    }
    if (!replaying_) network_->DeliverAll(notes, sender_id_);
    metrics.updated.Increment();
  }

  if (origin == Origin::kClient) {
    for (MetadataProvider* peer : peers) {
      MDV_RETURN_IF_ERROR(
          peer->UpdateDocumentInternal(updated_copy, Origin::kPeer, stamp));
    }
  }
  return Status::OK();
}

Status MetadataProvider::DeleteDocumentInternal(const std::string& uri,
                                                Origin origin) {
  MdpMetrics& metrics = MdpMetrics::Get();
  obs::ScopedSpan span("mdp.delete", &metrics.delete_us);
  ScopedInflight inflight(&metrics.inflight, &inflight_publishes_);
  span.AddAttribute("uri", uri);
  std::vector<MetadataProvider*> peers;
  {
    MutexLock lock(api_mu_);
    peers = peers_;
    const rdf::RdfDocument* original = documents_.Find(uri);
    if (original == nullptr) {
      return Status::NotFound("document " + uri);
    }
    rdf::RdfDocument original_copy = *original;
    MDV_RETURN_IF_ERROR(documents_.Remove(uri));

    MDV_RETURN_IF_ERROR(db_->BeginTransaction());
    Result<filter::UpdateOutcome> protocol =
        filter::ApplyDocumentDeletion(db_.get(), engine_.get(),
                                      original_copy);
    if (!protocol.ok()) {
      Status rollback = db_->RollbackTransaction();
      (void)rollback;
      Status restore = documents_.Add(original_copy);
      (void)restore;
      return protocol.status();
    }
    MDV_RETURN_IF_ERROR(db_->CommitTransaction());
    filter::UpdateOutcome outcome = std::move(protocol).value();
    last_iterations_ = outcome.new_matches.iterations;
    // Deletions allocate no stamp: the kRemove notifications clear match
    // flags (order-faithful on each flow), they do not carry content.
    for (const rdf::Resource* res : original_copy.resources()) {
      resource_versions_.erase(original_copy.UriReferenceOf(res->local_id()));
    }

    MDV_ASSIGN_OR_RETURN(std::vector<pubsub::Notification> notes,
                         publisher_->PublishUpdateOutcome(outcome));
    StampTrace(&notes, span.context());
    span.AddAttribute("notifications", static_cast<int64_t>(notes.size()));
    if (journal_ != nullptr && !replaying_) {
      std::string payload;
      wal::PutString(payload, uri);
      MDV_RETURN_IF_ERROR(
          JournalAppendLocked(kWalMdpDeleteDocument, std::move(payload)));
    }
    if (!replaying_) network_->DeliverAll(notes, sender_id_);
    metrics.deleted.Increment();
  }

  if (origin == Origin::kClient) {
    for (MetadataProvider* peer : peers) {
      MDV_RETURN_IF_ERROR(peer->DeleteDocumentInternal(uri, Origin::kPeer));
    }
  }
  return Status::OK();
}

Result<pubsub::SubscriptionId> MetadataProvider::Subscribe(
    pubsub::LmrId lmr, std::string_view rule_text, const std::string& name) {
  MdpMetrics& metrics = MdpMetrics::Get();
  obs::ScopedSpan span("mdp.subscribe", &metrics.subscribe_us);
  span.AddAttribute("lmr", static_cast<int64_t>(lmr));
  MutexLock lock(api_mu_);
  return SubscribeLocked(lmr, rule_text, name, span.context());
}

Result<pubsub::SubscriptionId> MetadataProvider::SubscribeLocked(
    pubsub::LmrId lmr, std::string_view rule_text, const std::string& name,
    const obs::SpanContext& trace) {
  MdpMetrics& metrics = MdpMetrics::Get();
  // Extensions may name other subscriptions registered here (§2.3).
  auto extension_resolver =
      [this](const std::string& ext) -> std::optional<std::string> {
    const pubsub::Subscription* sub = registry_.FindByName(ext);
    if (sub == nullptr) return std::nullopt;
    return sub->type;
  };
  auto rule_resolver =
      [this](const std::string& ext) -> std::optional<rules::ExternalExtension> {
    const pubsub::Subscription* sub = registry_.FindByName(ext);
    if (sub == nullptr) return std::nullopt;
    return rules::ExternalExtension{sub->type, sub->end_rule_id};
  };
  MDV_ASSIGN_OR_RETURN(
      rules::CompiledRule compiled,
      rules::CompileRule(rule_text, *schema_, extension_resolver,
                         rule_resolver));

  // The linted registration path: unsatisfiable rules are rejected here
  // (they could never notify), subsumption against the MDP's live rule
  // base is reported as warnings and counted under mdv.lint.*.
  MDV_ASSIGN_OR_RETURN(filter::RuleStore::AddRuleOutcome added,
                       rule_store_->AddRule(compiled, *schema_, name));
  const int64_t end_rule = added.end_rule_id;

  // Seed the subscription with matches from the already-registered
  // metadata: evaluate the new atomic rules (and the end rule, if it
  // already existed) against the full database.
  std::vector<int64_t> to_evaluate = added.created;
  if (std::find(to_evaluate.begin(), to_evaluate.end(), end_rule) ==
      to_evaluate.end()) {
    to_evaluate.push_back(end_rule);
  }
  MDV_ASSIGN_OR_RETURN(filter::FilterRunResult seeded,
                       engine_->EvaluateNewRules(to_evaluate));

  pubsub::SubscriptionId id =
      registry_.Add(lmr, std::string(rule_text), name, end_rule,
                    compiled.type());

  if (journal_ != nullptr && !replaying_) {
    std::string payload;
    wal::PutI64(payload, static_cast<int64_t>(lmr));
    wal::PutI64(payload, static_cast<int64_t>(id));
    wal::PutString(payload, rule_text);
    wal::PutString(payload, name);
    MDV_RETURN_IF_ERROR(
        JournalAppendLocked(kWalMdpSubscribe, std::move(payload)));
  }

  const std::vector<std::string>* matches = seeded.MatchesFor(end_rule);
  if (matches != nullptr && !matches->empty() && !replaying_) {
    pubsub::Notification note;
    note.kind = pubsub::NotificationKind::kInsert;
    note.lmr = lmr;
    note.subscription = id;
    note.trace = trace;
    for (const std::string& uri : *matches) {
      MDV_ASSIGN_OR_RETURN(std::vector<pubsub::TransmittedResource> shipped,
                           publisher_->WithStrongClosure(uri));
      note.resources.insert(note.resources.end(), shipped.begin(),
                            shipped.end());
    }
    network_->Deliver(note, sender_id_);
  }
  metrics.subscriptions.Increment();
  return id;
}

Result<pubsub::Notification> MetadataProvider::SnapshotSubscription(
    pubsub::SubscriptionId subscription) {
  MutexLock lock(api_mu_);
  const pubsub::Subscription* sub = registry_.Find(subscription);
  if (sub == nullptr) {
    return Status::NotFound("subscription " + std::to_string(subscription));
  }
  obs::ScopedSpan span("mdp.snapshot_subscription");
  span.AddAttribute("subscription", static_cast<int64_t>(subscription));
  // Re-evaluate the end rule from scratch against the current metadata.
  MDV_ASSIGN_OR_RETURN(filter::FilterRunResult snapshot,
                       engine_->EvaluateNewRules({sub->end_rule_id}));
  pubsub::Notification note;
  note.kind = pubsub::NotificationKind::kInsert;
  note.lmr = sub->lmr;
  note.subscription = subscription;
  note.trace = span.context();
  const std::vector<std::string>* matches =
      snapshot.MatchesFor(sub->end_rule_id);
  if (matches != nullptr) {
    for (const std::string& uri : *matches) {
      MDV_ASSIGN_OR_RETURN(std::vector<pubsub::TransmittedResource> shipped,
                           publisher_->WithStrongClosure(uri));
      note.resources.insert(note.resources.end(), shipped.begin(),
                            shipped.end());
    }
  }
  return note;
}

Status MetadataProvider::Unsubscribe(pubsub::SubscriptionId subscription) {
  MutexLock lock(api_mu_);
  MDV_ASSIGN_OR_RETURN(pubsub::Subscription removed,
                       registry_.Remove(subscription));
  MDV_RETURN_IF_ERROR(rule_store_->Unregister(removed.end_rule_id));
  if (journal_ != nullptr && !replaying_) {
    std::string payload;
    wal::PutI64(payload, static_cast<int64_t>(subscription));
    MDV_RETURN_IF_ERROR(
        JournalAppendLocked(kWalMdpUnsubscribe, std::move(payload)));
  }
  return Status::OK();
}

Result<std::vector<std::string>> MetadataProvider::Browse(
    std::string_view rule_text) {
  MutexLock lock(api_mu_);
  MDV_ASSIGN_OR_RETURN(rules::CompiledRule compiled,
                       rules::CompileRule(rule_text, *schema_));
  std::vector<int64_t> created;
  MDV_ASSIGN_OR_RETURN(int64_t end_rule,
                       rule_store_->RegisterTree(compiled.decomposed,
                                                 &created));
  std::vector<int64_t> to_evaluate = created;
  if (std::find(to_evaluate.begin(), to_evaluate.end(), end_rule) ==
      to_evaluate.end()) {
    to_evaluate.push_back(end_rule);
  }
  Result<filter::FilterRunResult> seeded =
      engine_->EvaluateNewRules(to_evaluate);
  // Always release the transient registration, even on failure.
  Status release = rule_store_->Unregister(end_rule);
  if (!seeded.ok()) return seeded.status();
  MDV_RETURN_IF_ERROR(release);
  const std::vector<std::string>* matches = seeded->MatchesFor(end_rule);
  if (matches == nullptr) return std::vector<std::string>{};
  return *matches;
}


Status MetadataProvider::SaveSnapshot(std::ostream& out) const {
  MutexLock lock(api_mu_);
  return SaveSnapshotLocked(out);
}

Status MetadataProvider::SaveSnapshotLocked(std::ostream& out) const {
  out << "MDVSNAP1\n";
  out << "DATABASE\n";
  MDV_RETURN_IF_ERROR(rdbms::SaveDatabase(*db_, out));
  std::vector<std::string> uris = documents_.DocumentUris();
  out << "DOCUMENTS " << uris.size() << "\n";
  for (const std::string& uri : uris) {
    std::string xml = rdf::WriteRdfXml(*documents_.Find(uri));
    out << "DOC " << uri << " " << xml.size() << "\n" << xml;
  }
  std::vector<const pubsub::Subscription*> subs = registry_.All();
  out << "SUBSCRIPTIONS " << subs.size() << "\n";
  for (const pubsub::Subscription* sub : subs) {
    out << "SUB " << sub->id << " " << sub->lmr << " " << sub->end_rule_id
        << " " << sub->type << " " << (sub->name.empty() ? "-" : sub->name)
        << "\n";
    out << sub->rule_text << "\n";
  }
  // LWW versioning state. Older images lack the section; the loader
  // tolerates its absence (the header stays MDVSNAP1).
  out << "VERSIONS " << resource_versions_.size() << " " << origin_id_ << " "
      << next_version_seq_ << "\n";
  for (const auto& [uri, version] : resource_versions_) {
    out << "V " << uri << " " << version.origin << " " << version.seq << "\n";
  }
  out << "ENDSNAP\n";
  if (!out.good()) return Status::Internal("write failure");
  return Status::OK();
}

Status MetadataProvider::LoadSnapshot(std::istream& in) {
  MutexLock lock(api_mu_);
  return LoadSnapshotLocked(in);
}

Status MetadataProvider::LoadSnapshotLocked(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != "MDVSNAP1") {
    return Status::ParseError("missing snapshot header");
  }
  if (!std::getline(in, line) || line != "DATABASE") {
    return Status::ParseError("missing DATABASE section");
  }
  MDV_ASSIGN_OR_RETURN(std::unique_ptr<rdbms::Database> db,
                       rdbms::LoadDatabase(in));

  DocumentStore documents;
  if (!std::getline(in, line) || line.rfind("DOCUMENTS ", 0) != 0) {
    return Status::ParseError("missing DOCUMENTS section");
  }
  size_t doc_count = 0;
  {
    std::istringstream ss(line.substr(10));
    if (!(ss >> doc_count)) {
      return Status::ParseError("malformed DOCUMENTS line: " + line);
    }
  }
  for (size_t i = 0; i < doc_count; ++i) {
    if (!std::getline(in, line) || line.rfind("DOC ", 0) != 0) {
      return Status::ParseError("missing DOC header");
    }
    std::istringstream ss(line.substr(4));
    std::string uri;
    size_t bytes = 0;
    if (!(ss >> uri >> bytes)) {
      return Status::ParseError("malformed DOC line: " + line);
    }
    std::string xml(bytes, '\0');
    in.read(xml.data(), static_cast<std::streamsize>(bytes));
    if (in.gcount() != static_cast<std::streamsize>(bytes)) {
      return Status::ParseError("truncated document " + uri);
    }
    MDV_ASSIGN_OR_RETURN(rdf::RdfDocument doc, rdf::ParseRdfXml(xml, uri));
    MDV_RETURN_IF_ERROR(documents.Add(std::move(doc)));
  }

  pubsub::SubscriptionRegistry registry;
  if (!std::getline(in, line) || line.rfind("SUBSCRIPTIONS ", 0) != 0) {
    return Status::ParseError("missing SUBSCRIPTIONS section");
  }
  size_t sub_count = 0;
  {
    std::istringstream ss(line.substr(14));
    if (!(ss >> sub_count)) {
      return Status::ParseError("malformed SUBSCRIPTIONS line: " + line);
    }
  }
  for (size_t i = 0; i < sub_count; ++i) {
    if (!std::getline(in, line) || line.rfind("SUB ", 0) != 0) {
      return Status::ParseError("missing SUB header");
    }
    std::istringstream ss(line.substr(4));
    pubsub::Subscription sub;
    std::string name;
    if (!(ss >> sub.id >> sub.lmr >> sub.end_rule_id >> sub.type >> name)) {
      return Status::ParseError("malformed SUB line: " + line);
    }
    if (name != "-") sub.name = name;
    if (!std::getline(in, sub.rule_text)) {
      return Status::ParseError("missing rule text for subscription " +
                                std::to_string(sub.id));
    }
    MDV_RETURN_IF_ERROR(registry.Restore(std::move(sub)));
  }
  bool have_versions = false;
  uint64_t snap_origin = 0;
  uint64_t snap_next_seq = 0;
  std::map<std::string, pubsub::EntryVersion> versions;
  if (!std::getline(in, line)) {
    return Status::ParseError("missing ENDSNAP marker");
  }
  if (line.rfind("VERSIONS ", 0) == 0) {
    std::istringstream ss(line.substr(9));
    size_t version_count = 0;
    if (!(ss >> version_count >> snap_origin >> snap_next_seq)) {
      return Status::ParseError("malformed VERSIONS line: " + line);
    }
    have_versions = true;
    for (size_t i = 0; i < version_count; ++i) {
      if (!std::getline(in, line) || line.rfind("V ", 0) != 0) {
        return Status::ParseError("missing V line");
      }
      std::istringstream vs(line.substr(2));
      std::string uri;
      pubsub::EntryVersion version;
      if (!(vs >> uri >> version.origin >> version.seq)) {
        return Status::ParseError("malformed V line: " + line);
      }
      versions[uri] = version;
    }
    if (!std::getline(in, line)) {
      return Status::ParseError("missing ENDSNAP marker");
    }
  }
  if (line != "ENDSNAP") {
    return Status::ParseError("missing ENDSNAP marker");
  }
  // A snapshot of a provider sharded differently would rebuild a rule
  // store whose routing misses the tables (or rules) of other shards.
  MDV_RETURN_IF_ERROR(
      filter::CheckFilterTables(*db, rule_options_.num_shards));

  // Swap in the restored state and rebuild the components bound to it.
  db_ = std::move(db);
  documents_ = std::move(documents);
  registry_ = std::move(registry);
  if (have_versions) {
    // Restoring the stamp origin and counter keeps the versions this
    // MDP allocates stable across incarnations (the network may assign
    // a recovered provider different sender ids).
    origin_id_ = snap_origin;
    next_version_seq_ = snap_next_seq;
    resource_versions_ = std::move(versions);
  }
  rule_store_ = std::make_unique<filter::RuleStore>(db_.get(), rule_options_);
  engine_ = std::make_unique<filter::FilterEngine>(db_.get(),
                                                   rule_store_.get(),
                                                   engine_options_);
  return Status::OK();
}

void MetadataProvider::AddPeer(MetadataProvider* peer) {
  MutexLock lock(api_mu_);
  peers_.push_back(peer);
  if (journal_ != nullptr && !replaying_) {
    // Journal the mesh edge by name so a recovered incarnation can be
    // re-wired to the same peers (recovered_peer_names()). Best-effort:
    // a failed append degrades recovery hints, not live replication.
    std::string payload;
    wal::PutString(payload, peer->name());
    Status journaled = JournalAppendLocked(kWalMdpAddPeer, std::move(payload));
    (void)journaled;
  }
}

Status MetadataProvider::EnableDurability(const wal::WalOptions& options) {
  wal::Manifest meta;
  meta.kind = "mdp";
  meta.num_shards = static_cast<uint32_t>(rule_options_.num_shards);
  meta.schema_text = rdf::WriteSchemaText(*schema_);
  MDV_ASSIGN_OR_RETURN(std::unique_ptr<wal::Journal> journal,
                       wal::Journal::Open(options, meta));
  const wal::RecoveryInfo& rec = journal->recovery();
  if (!rec.fresh) {
    // The manifest pins the configuration the log was written under.
    // Replaying it into a provider sharded or typed differently would
    // rebuild a silently different rule base.
    if (rec.manifest.num_shards != meta.num_shards) {
      return Status::InvalidArgument(
          "WAL was written with num_shards=" +
          std::to_string(rec.manifest.num_shards) + ", provider has " +
          std::to_string(meta.num_shards));
    }
    if (rec.manifest.schema_text != meta.schema_text) {
      return Status::InvalidArgument(
          "WAL was written under a different RDF schema");
    }
  }
  {
    MutexLock lock(api_mu_);
    if (journal_ != nullptr) {
      return Status::InvalidArgument("durability already enabled");
    }
    if (!peers_.empty()) {
      return Status::InvalidArgument(
          "EnableDurability must run before AddPeer");
    }
    replaying_ = true;
  }
  // Replay outside api_mu_: the snapshot loader and each replayed entry
  // point take the lock themselves.
  Status replay = Status::OK();
  if (!rec.snapshot.empty()) {
    std::istringstream snap(rec.snapshot);
    replay = LoadSnapshot(snap);
  }
  if (replay.ok()) {
    for (const wal::WalRecord& record : rec.records) {
      replay = ReplayRecord(record);
      if (!replay.ok()) break;
    }
  }
  MutexLock lock(api_mu_);
  replaying_ = false;
  if (!replay.ok()) return replay;
  journal_ = std::move(journal);
  return Status::OK();
}

Status MetadataProvider::Checkpoint() {
  MutexLock lock(api_mu_);
  return CheckpointLocked();
}

Status MetadataProvider::CheckpointLocked() {
  if (journal_ == nullptr) {
    return Status::InvalidArgument("durability not enabled");
  }
  std::ostringstream out;
  MDV_RETURN_IF_ERROR(SaveSnapshotLocked(out));
  return journal_->Checkpoint(out.str());
}

Status MetadataProvider::JournalAppendLocked(uint8_t type,
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

Status MetadataProvider::ReplayRecord(const wal::WalRecord& record) {
  wal::PayloadReader reader(record.payload);
  switch (record.type) {
    case kWalMdpRegisterDocuments: {
      const uint32_t count = reader.ReadU32().value_or(0);
      std::vector<rdf::RdfDocument> docs;
      std::vector<pubsub::EntryVersion> stamps;
      docs.reserve(count);
      stamps.reserve(count);
      for (uint32_t i = 0; i < count && !reader.failed(); ++i) {
        const std::string uri = reader.ReadString().value_or("");
        const std::string xml = reader.ReadString().value_or("");
        pubsub::EntryVersion stamp;
        stamp.origin = reader.ReadU64().value_or(0);
        stamp.seq = reader.ReadU64().value_or(0);
        if (reader.failed()) break;
        MDV_ASSIGN_OR_RETURN(rdf::RdfDocument doc, rdf::ParseRdfXml(xml, uri));
        docs.push_back(std::move(doc));
        stamps.push_back(stamp);
      }
      if (!reader.Done()) {
        return Status::Internal("malformed journaled register record");
      }
      // The journaled stamps replay through the peer path so the
      // recovered MDP republishes the exact versions the original run
      // allocated.
      return RegisterDocumentBatchInternal(std::move(docs), Origin::kPeer,
                                           std::move(stamps));
    }
    case kWalMdpUpdateDocument: {
      const std::string uri = reader.ReadString().value_or("");
      const std::string xml = reader.ReadString().value_or("");
      pubsub::EntryVersion stamp;
      stamp.origin = reader.ReadU64().value_or(0);
      stamp.seq = reader.ReadU64().value_or(0);
      if (!reader.Done()) {
        return Status::Internal("malformed journaled update record");
      }
      MDV_ASSIGN_OR_RETURN(rdf::RdfDocument doc, rdf::ParseRdfXml(xml, uri));
      return UpdateDocumentInternal(std::move(doc), Origin::kPeer, stamp);
    }
    case kWalMdpDeleteDocument: {
      const std::string uri = reader.ReadString().value_or("");
      if (!reader.Done()) {
        return Status::Internal("malformed journaled delete record");
      }
      return DeleteDocumentInternal(uri, Origin::kPeer);
    }
    case kWalMdpSubscribe: {
      const int64_t lmr = reader.ReadI64().value_or(0);
      const int64_t id = reader.ReadI64().value_or(0);
      const std::string rule_text = reader.ReadString().value_or("");
      const std::string name = reader.ReadString().value_or("");
      if (!reader.Done()) {
        return Status::Internal("malformed journaled subscribe record");
      }
      MutexLock lock(api_mu_);
      MDV_ASSIGN_OR_RETURN(
          pubsub::SubscriptionId assigned,
          SubscribeLocked(lmr, rule_text, name, obs::SpanContext{}));
      // Id assignment is deterministic (a counter restored from the
      // snapshot), so replay must land on the journaled id — anything
      // else means the snapshot and log suffix disagree.
      if (assigned != id) {
        return Status::Internal("replayed subscription id diverged: journal " +
                                std::to_string(id) + ", replay " +
                                std::to_string(assigned));
      }
      return Status::OK();
    }
    case kWalMdpUnsubscribe: {
      const int64_t id = reader.ReadI64().value_or(0);
      if (!reader.Done()) {
        return Status::Internal("malformed journaled unsubscribe record");
      }
      return Unsubscribe(id);
    }
    case kWalMdpAddPeer: {
      const std::string peer_name = reader.ReadString().value_or("");
      if (!reader.Done()) {
        return Status::Internal("malformed journaled add-peer record");
      }
      MutexLock lock(api_mu_);
      if (std::find(recovered_peer_names_.begin(),
                    recovered_peer_names_.end(),
                    peer_name) == recovered_peer_names_.end()) {
        recovered_peer_names_.push_back(peer_name);
      }
      return Status::OK();
    }
    default:
      return Status::Internal("unknown MDP journal record type " +
                              std::to_string(static_cast<int>(record.type)));
  }
}

pubsub::EntryVersion MetadataProvider::VersionForReferenceLocked(
    const std::string& uri_reference) const {
  auto it = resource_versions_.find(uri_reference);
  return it == resource_versions_.end() ? pubsub::EntryVersion{} : it->second;
}

Status MetadataProvider::ServeSnapshot(
    const net::SnapshotRequestFrame& request) {
  obs::ScopedSpan span("mdp.serve_snapshot");
  span.AddAttribute("lmr", static_cast<int64_t>(request.lmr));
  span.AddAttribute("delta", request.delta ? "true" : "false");

  // What the joiner already holds, per URI reference. The per-entry
  // cursor (not the coarse per-origin vector) decides skips: peer
  // forwarding can reorder per-origin arrival across flows, so only an
  // entry-level comparison is sound.
  std::map<std::string, pubsub::EntryVersion> cursor;
  for (const net::SnapshotRequestFrame::CursorEntry& entry : request.cursor) {
    cursor[entry.uri_reference] = entry.version;
  }

  // Evaluate the LMR's subscriptions in one locked section — a
  // consistent-enough cut: anything that changes while chunks ship is
  // also in the joiner's live buffer (it attaches before requesting)
  // and gets replayed over the snapshot under LWW.
  pubsub::SnapshotManifest manifest;
  std::vector<std::string> to_ship;  // Unique root URIs, manifest order.
  {
    MutexLock lock(api_mu_);
    std::set<std::string> seen;
    for (const pubsub::Subscription* sub : registry_.ByLmr(request.lmr)) {
      MDV_ASSIGN_OR_RETURN(filter::FilterRunResult snap,
                           engine_->EvaluateNewRules({sub->end_rule_id}));
      pubsub::SnapshotManifestEntry entry;
      entry.subscription = sub->id;
      const std::vector<std::string>* matches =
          snap.MatchesFor(sub->end_rule_id);
      if (matches != nullptr) entry.uris = *matches;
      std::sort(entry.uris.begin(), entry.uris.end());
      for (const std::string& uri : entry.uris) {
        if (seen.insert(uri).second) to_ship.push_back(uri);
      }
      manifest.entries.push_back(std::move(entry));
    }
    // The per-origin high water of the served state; the joiner merges
    // it into its version vector (observability + fsck invariant).
    std::map<uint64_t, uint64_t> high;
    for (const auto& [uri, version] : resource_versions_) {
      uint64_t& seq = high[version.origin];
      seq = std::max(seq, version.seq);
    }
    for (const auto& [origin, seq] : high) {
      manifest.cursor.push_back(pubsub::EntryVersion{origin, seq});
    }
  }

  // Every serve gets its own ephemeral sender flow: chunk/done frames
  // ride the reliable link (FIFO, exactly-once) without perturbing live
  // publish flows, and a rebooted durable joiner never sees a sequence
  // gap — snapshot frames are not journaled, so reusing a long-lived
  // flow across a crash would strand its recovered dedup state.
  const uint64_t snapshot_sender = network_->RegisterSender();

  // Ship in chunks, relocking per batch so live publishes interleave
  // with the serve instead of stalling behind it.
  int64_t resources_shipped = 0;
  int64_t cursor_skipped = 0;
  uint64_t chunk_index = 0;
  size_t next = 0;
  while (next < to_ship.size()) {
    pubsub::Notification chunk;
    chunk.kind = pubsub::NotificationKind::kSnapshotChunk;
    chunk.lmr = request.lmr;
    chunk.snapshot_request = request.request_id;
    chunk.trace = span.context();
    {
      MutexLock lock(api_mu_);
      for (size_t batched = 0;
           next < to_ship.size() && batched < snapshot_chunk_resources_;
           ++next, ++batched) {
        const std::string& uri = to_ship[next];
        Result<std::vector<pubsub::TransmittedResource>> closure =
            publisher_->WithStrongClosure(uri);
        if (!closure.ok()) {
          // Deleted since the cut; the joiner's buffered kRemove (or the
          // manifest flag repair) settles it.
          continue;
        }
        for (pubsub::TransmittedResource& shipped : closure.value()) {
          if (request.delta) {
            // Per RESOURCE, not per matched root: a root can be on the
            // joiner's cursor while a closure member changed underneath
            // it (partial document update).
            const auto have = cursor.find(shipped.uri_reference);
            if (have != cursor.end() && shipped.version.seq != 0 &&
                !(have->second < shipped.version)) {
              ++cursor_skipped;  // Joiner already holds this revision.
              continue;
            }
          }
          ++resources_shipped;
          chunk.resources.push_back(std::move(shipped));
        }
      }
    }
    if (chunk.resources.empty()) continue;  // Whole batch skipped.
    chunk.chunk_index = chunk_index++;
    network_->Deliver(chunk, snapshot_sender);
  }

  manifest.total_chunks = chunk_index;
  pubsub::Notification done;
  done.kind = pubsub::NotificationKind::kSnapshotDone;
  done.lmr = request.lmr;
  done.snapshot_request = request.request_id;
  done.chunk_index = chunk_index;
  done.manifest = std::move(manifest);
  done.trace = span.context();
  network_->Deliver(done, snapshot_sender);
  // Each serve registered a sender (an ack endpoint, a worker thread on
  // the threaded transport); hand it back once its frames are acked.
  network_->RetireSender(snapshot_sender);

  span.AddAttribute("resources", resources_shipped);
  span.AddAttribute("skipped", cursor_skipped);
  obs::FlightRecorder::Default().Record(
      obs::FlightEventType::kReplCatchup, static_cast<int64_t>(request.lmr),
      resources_shipped, cursor_skipped);
  return Status::OK();
}

}  // namespace mdv
