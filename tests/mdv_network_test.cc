#include "mdv/network.h"

#include <gtest/gtest.h>

#include "mdv/document_store.h"

namespace mdv {
namespace {

pubsub::Notification MakeNote(pubsub::LmrId lmr, size_t resources) {
  pubsub::Notification note;
  note.kind = pubsub::NotificationKind::kInsert;
  note.lmr = lmr;
  note.subscription = 1;
  for (size_t i = 0; i < resources; ++i) {
    note.resources.push_back(pubsub::TransmittedResource{
        "d.rdf#r" + std::to_string(i), rdf::Resource(), false, {}});
  }
  return note;
}

TEST(NetworkTest, DeliversToAttachedHandler) {
  Network network;
  int delivered = 0;
  network.Attach(7, [&](const pubsub::Notification& note) {
    ++delivered;
    EXPECT_EQ(note.lmr, 7);
  });
  network.Deliver(MakeNote(7, 3));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(network.stats().messages, 1);
  EXPECT_EQ(network.stats().resources_shipped, 3);
  EXPECT_EQ(network.stats().undeliverable, 0);
}

TEST(NetworkTest, CountsUndeliverable) {
  Network network;
  network.Deliver(MakeNote(99, 1));
  EXPECT_EQ(network.stats().messages, 1);
  EXPECT_EQ(network.stats().undeliverable, 1);
}

TEST(NetworkTest, DetachStopsDelivery) {
  Network network;
  int delivered = 0;
  network.Attach(1, [&](const pubsub::Notification&) { ++delivered; });
  network.Deliver(MakeNote(1, 1));
  network.Detach(1);
  network.Deliver(MakeNote(1, 1));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(network.stats().undeliverable, 1);
}

TEST(NetworkTest, DeliverAllAndReset) {
  Network network;
  int delivered = 0;
  network.Attach(1, [&](const pubsub::Notification&) { ++delivered; });
  network.Attach(2, [&](const pubsub::Notification&) { ++delivered; });
  network.DeliverAll({MakeNote(1, 2), MakeNote(2, 5)});
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(network.stats().resources_shipped, 7);
  network.ResetStats();
  EXPECT_EQ(network.stats().messages, 0);
}

TEST(DocumentStoreTest, AddReplaceRemove) {
  DocumentStore store;
  rdf::RdfDocument doc("a.rdf");
  rdf::Resource r("x", "C");
  r.AddProperty("p", rdf::PropertyValue::Literal("1"));
  ASSERT_TRUE(doc.AddResource(std::move(r)).ok());

  ASSERT_TRUE(store.Add(doc).ok());
  EXPECT_EQ(store.Add(doc).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.Find("a.rdf"), nullptr);
  EXPECT_EQ(store.Find("nope"), nullptr);

  const rdf::Resource* res = store.FindResource("a.rdf#x");
  ASSERT_NE(res, nullptr);
  EXPECT_EQ(res->FindProperty("p")->text(), "1");
  EXPECT_EQ(store.FindResource("a.rdf#nope"), nullptr);
  EXPECT_EQ(store.FindResource("nope#x"), nullptr);

  rdf::RdfDocument replacement("a.rdf");
  ASSERT_TRUE(store.Replace(replacement).ok());
  EXPECT_EQ(store.FindResource("a.rdf#x"), nullptr);
  EXPECT_EQ(store.Replace(rdf::RdfDocument("b.rdf")).code(),
            StatusCode::kNotFound);

  EXPECT_EQ(store.DocumentUris(), std::vector<std::string>{"a.rdf"});
  ASSERT_TRUE(store.Remove("a.rdf").ok());
  EXPECT_EQ(store.Remove("a.rdf").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.size(), 0u);
}

TEST(DocumentStoreTest, RejectsEmptyUri) {
  DocumentStore store;
  EXPECT_EQ(store.Add(rdf::RdfDocument()).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mdv
