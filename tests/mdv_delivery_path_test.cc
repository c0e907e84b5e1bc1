// The one delivery path: whichever transport a Network runs on, every
// notification is encoded by the wire codec and crosses the reliable
// link (sequence numbers, acks, dedup). These tests pin that path on the
// default inline transport, the release of per-serve snapshot senders,
// durable attach refusal, and the refusal of journals written by the
// retired self-journaling protocol.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "mdv/lmr.h"
#include "mdv/metadata_provider.h"
#include "mdv/network.h"
#include "mdv/system.h"
#include "mdv/wal_records.h"
#include "rdf/schema_io.h"
#include "wal/log.h"
#include "wal/record.h"

namespace mdv {
namespace {

namespace fs = std::filesystem;

constexpr const char* kPortRule =
    "search CycleProvider c register c where c.serverPort = 5874";

std::string TestDir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("mdv_delivery_path_" + name);
  fs::remove_all(dir);
  return dir.string();
}

rdf::RdfDocument MakeDoc(const std::string& uri) {
  rdf::RdfDocument doc(uri);
  rdf::Resource host("host", "CycleProvider");
  host.AddProperty("serverHost", rdf::PropertyValue::Literal("x.example"));
  host.AddProperty("serverPort", rdf::PropertyValue::Literal("5874"));
  Status st = doc.AddResource(std::move(host));
  (void)st;
  return doc;
}

size_t ThreadCount() {
  size_t threads = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

TEST(DeliveryPathTest, DefaultNetworkDeliverCrossesCodecAndLink) {
  Network network;  // asynchronous = false: the inline transport.
  int handled = 0;
  ASSERT_TRUE(network
                  .Attach(3,
                          [&](const pubsub::Notification& note) {
                            ++handled;
                            EXPECT_EQ(note.resources.at(0).uri_reference,
                                      "d.rdf#host");
                          })
                  .ok());
  pubsub::Notification note;
  note.kind = pubsub::NotificationKind::kInsert;
  note.lmr = 3;
  note.subscription = 1;
  note.resources.push_back(pubsub::TransmittedResource{
      "d.rdf#host", rdf::Resource("host", "CycleProvider"), false, {}});
  network.Deliver(note);
  EXPECT_EQ(handled, 1);  // Ran on this thread before Deliver returned.
  ASSERT_TRUE(network.WaitQuiescent());
  const net::LinkStats link = network.link_stats();
  EXPECT_EQ(link.published, 1);
  EXPECT_EQ(link.delivered, 1);
  EXPECT_EQ(link.acked, 1);
  const net::TransportStats transport = network.transport_stats();
  // The notify frame and its ack (plus a pair per redelivery, should a
  // stalled thread outlast the retransmit timeout).
  EXPECT_EQ(transport.sent, 2 + 2 * link.redelivered);
  EXPECT_EQ(transport.delivered, transport.sent);
  EXPECT_GT(transport.bytes_sent, 0);
}

TEST(DeliveryPathTest, RefreshesReleaseTheirSnapshotSenders) {
  NetworkOptions options;
  options.asynchronous = true;  // One worker thread per bound endpoint.
  MdvSystem system(rdf::MakeObjectGlobeSchema(), {}, options);
  MetadataProvider* mdp = system.AddProvider();
  LocalMetadataRepository* lmr = system.AddRepository(mdp);
  ASSERT_TRUE(lmr->Subscribe(kPortRule).ok());
  ASSERT_TRUE(mdp->RegisterDocument(MakeDoc("a.rdf")).ok());
  ASSERT_TRUE(system.network().WaitQuiescent());

  ASSERT_TRUE(lmr->Refresh().ok());
  ASSERT_TRUE(system.network().WaitQuiescent());
  const size_t after_one = ThreadCount();
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(lmr->Refresh().ok());
  ASSERT_TRUE(system.network().WaitQuiescent());
  // A sender released from its own ack handler lets its worker exit
  // just after that handler returns; give such stragglers a moment.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ThreadCount() > after_one &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LE(ThreadCount(), after_one);
  EXPECT_EQ(lmr->CacheSize(), 1u);
}

TEST(DeliveryPathTest, SecondDurableLmrAtABoundIdIsRefused) {
  rdf::RdfSchema schema = rdf::MakeObjectGlobeSchema();
  Network network;
  MetadataProvider provider(&schema, &network);
  wal::WalOptions first_options;
  first_options.dir = TestDir("first");
  wal::WalOptions second_options;
  second_options.dir = TestDir("second");

  Result<std::unique_ptr<LocalMetadataRepository>> first =
      LocalMetadataRepository::OpenDurable(7, &schema, &provider, &network,
                                           first_options);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE((*first)->Subscribe(kPortRule).ok());
  {
    Result<std::unique_ptr<LocalMetadataRepository>> second =
        LocalMetadataRepository::OpenDurable(7, &schema, &provider, &network,
                                             second_options);
    EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
  }  // The refused LMR is gone; it must not have detached the first.
  ASSERT_TRUE(provider.RegisterDocument(MakeDoc("a.rdf")).ok());
  EXPECT_EQ((*first)->CacheSize(), 1u);
}

// An LMR snapshot holding only a kWalLmrSnapLocalSeq record of `value`.
void WriteLocalSeqSnapshot(const wal::WalOptions& options,
                           const rdf::RdfSchema& schema, uint64_t value) {
  wal::Manifest meta;
  meta.kind = "lmr";
  meta.schema_text = rdf::WriteSchemaText(schema);
  Result<std::unique_ptr<wal::Journal>> journal =
      wal::Journal::Open(options, meta);
  ASSERT_TRUE(journal.ok()) << journal.status();
  std::string payload;
  wal::PutU64(payload, value);
  ASSERT_TRUE(
      (*journal)
          ->Checkpoint(wal::EncodeWalRecord(kWalLmrSnapLocalSeq, payload))
          .ok());
}

TEST(DeliveryPathTest, SnapshotLocalSequenceMustBeZero) {
  rdf::RdfSchema schema = rdf::MakeObjectGlobeSchema();
  Network network;
  MetadataProvider provider(&schema, &network);

  wal::WalOptions zero;
  zero.dir = TestDir("local_seq_zero");
  WriteLocalSeqSnapshot(zero, schema, 0);
  Result<std::unique_ptr<LocalMetadataRepository>> accepted =
      LocalMetadataRepository::OpenDurable(7, &schema, &provider, &network,
                                           zero);
  EXPECT_TRUE(accepted.ok()) << accepted.status();

  // Nonzero was written by the retired self-journaling protocol.
  wal::WalOptions nonzero;
  nonzero.dir = TestDir("local_seq_nonzero");
  WriteLocalSeqSnapshot(nonzero, schema, 5);
  Result<std::unique_ptr<LocalMetadataRepository>> refused =
      LocalMetadataRepository::OpenDurable(8, &schema, &provider, &network,
                                           nonzero);
  EXPECT_EQ(refused.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace mdv
