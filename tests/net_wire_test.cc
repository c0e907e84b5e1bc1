#include "net/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pubsub/notification.h"
#include "rdf/document.h"
#include "rdf/term.h"

namespace mdv::net {
namespace {

using pubsub::Notification;
using pubsub::NotificationKind;
using pubsub::TransmittedResource;

rdf::Resource MakeResource(const std::string& id, const std::string& cls) {
  return rdf::Resource(id, cls);
}

NotifyFrame MakeNotifyFrame() {
  NotifyFrame frame;
  frame.sender = 7;
  frame.sequence = 42;
  Notification& note = frame.notification;
  note.kind = NotificationKind::kInsert;
  note.lmr = 3;
  note.subscription = 11;
  note.trace.trace_id = 0xABCDEF;
  note.trace.span_id = 0x123456;
  rdf::Resource movie = MakeResource("m1", "Movie");
  movie.AddProperty("title", rdf::PropertyValue::Literal("Metropolis"));
  movie.AddProperty("year", rdf::PropertyValue::Literal("1927"));
  movie.AddProperty("director",
                    rdf::PropertyValue::ResourceRef("http://p.example#d1"));
  note.resources.push_back(
      {"http://docs.example/a#m1", std::move(movie), false, {}});
  rdf::Resource person = MakeResource("d1", "Person");
  person.AddProperty("name", rdf::PropertyValue::Literal("Fritz Lang"));
  note.resources.push_back({"http://p.example#d1", std::move(person), true, {}});
  return frame;
}

void ExpectNotificationsEqual(const Notification& a, const Notification& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.lmr, b.lmr);
  EXPECT_EQ(a.subscription, b.subscription);
  EXPECT_EQ(a.trace.trace_id, b.trace.trace_id);
  EXPECT_EQ(a.trace.span_id, b.trace.span_id);
  ASSERT_EQ(a.resources.size(), b.resources.size());
  for (size_t i = 0; i < a.resources.size(); ++i) {
    EXPECT_EQ(a.resources[i].uri_reference, b.resources[i].uri_reference);
    EXPECT_EQ(a.resources[i].via_strong_reference,
              b.resources[i].via_strong_reference);
    EXPECT_TRUE(
        a.resources[i].resource.ContentEquals(b.resources[i].resource));
    EXPECT_EQ(a.resources[i].resource.local_id(),
              b.resources[i].resource.local_id());
  }
}

// ---- Round trips. -------------------------------------------------------

TEST(WireCodecTest, NotifyFrameRoundTrips) {
  NotifyFrame frame = MakeNotifyFrame();
  std::string encoded = EncodeNotifyFrame(frame);
  Result<DecodedFrame> decoded = DecodeFrame(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, FrameType::kNotify);
  EXPECT_EQ(decoded.value().notify.sender, 7u);
  EXPECT_EQ(decoded.value().notify.sequence, 42u);
  ExpectNotificationsEqual(frame.notification,
                           decoded.value().notify.notification);
}

TEST(WireCodecTest, AllNotificationKindsRoundTrip) {
  for (NotificationKind kind :
       {NotificationKind::kInsert, NotificationKind::kUpdate,
        NotificationKind::kRemove}) {
    NotifyFrame frame = MakeNotifyFrame();
    frame.notification.kind = kind;
    Result<DecodedFrame> decoded = DecodeFrame(EncodeNotifyFrame(frame));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().notify.notification.kind, kind);
  }
}

TEST(WireCodecTest, EmptyNotificationRoundTrips) {
  NotifyFrame frame;
  frame.sender = 1;
  frame.sequence = 1;
  frame.notification.kind = NotificationKind::kRemove;
  frame.notification.lmr = 0;
  frame.notification.subscription = -1;
  Result<DecodedFrame> decoded = DecodeFrame(EncodeNotifyFrame(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().notify.notification.subscription, -1);
  EXPECT_TRUE(decoded.value().notify.notification.resources.empty());
}

TEST(WireCodecTest, EmptyAndUnicodeLiteralsRoundTrip) {
  NotifyFrame frame;
  frame.sender = 2;
  frame.sequence = 9;
  frame.notification.lmr = 5;
  rdf::Resource res = MakeResource("r", "Füße");
  res.AddProperty("empty", rdf::PropertyValue::Literal(""));
  res.AddProperty("umlaut", rdf::PropertyValue::Literal("Grüße, Wörld"));
  res.AddProperty("cjk", rdf::PropertyValue::Literal("メタデータ管理"));
  res.AddProperty("emoji", rdf::PropertyValue::Literal("🎬📽️"));
  res.AddProperty("nul", rdf::PropertyValue::Literal(std::string("a\0b", 3)));
  frame.notification.resources.push_back({"", res, false, {}});
  Result<DecodedFrame> decoded = DecodeFrame(EncodeNotifyFrame(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectNotificationsEqual(frame.notification,
                           decoded.value().notify.notification);
  const rdf::Resource& back =
      decoded.value().notify.notification.resources[0].resource;
  EXPECT_EQ(back.FindProperty("nul")->text(), std::string("a\0b", 3));
}

TEST(WireCodecTest, ManyResourcesManyPropertiesRoundTrip) {
  NotifyFrame frame;
  frame.sender = 3;
  frame.sequence = 100;
  frame.notification.lmr = 1;
  for (int i = 0; i < 50; ++i) {
    rdf::Resource res = MakeResource("r" + std::to_string(i), "Movie");
    for (int p = 0; p < 20; ++p) {
      res.AddProperty("prop" + std::to_string(p),
                      p % 2 == 0 ? rdf::PropertyValue::Literal(
                                       "value-" + std::to_string(p))
                                 : rdf::PropertyValue::ResourceRef(
                                       "http://x#" + std::to_string(p)));
    }
    frame.notification.resources.push_back(
        {"http://docs#" + std::to_string(i), std::move(res), i % 3 == 0, {}});
  }
  Result<DecodedFrame> decoded = DecodeFrame(EncodeNotifyFrame(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectNotificationsEqual(frame.notification,
                           decoded.value().notify.notification);
}

TEST(WireCodecTest, AckFrameRoundTrips) {
  AckFrame ack;
  ack.sender = 12;
  ack.sequence = 345;
  ack.lmr = 6;
  Result<DecodedFrame> decoded = DecodeFrame(EncodeAckFrame(ack));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().type, FrameType::kAck);
  EXPECT_EQ(decoded.value().ack.sender, 12u);
  EXPECT_EQ(decoded.value().ack.sequence, 345u);
  EXPECT_EQ(decoded.value().ack.lmr, 6);
}

// ---- Rejection. ---------------------------------------------------------

TEST(WireCodecTest, RejectsEveryTruncationPrefix) {
  std::string encoded = EncodeNotifyFrame(MakeNotifyFrame());
  for (size_t len = 0; len < encoded.size(); ++len) {
    Result<DecodedFrame> decoded =
        DecodeFrame(std::string_view(encoded).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireCodecTest, RejectsTrailingBytes) {
  std::string encoded = EncodeNotifyFrame(MakeNotifyFrame());
  encoded.push_back('\0');
  EXPECT_FALSE(DecodeFrame(encoded).ok());
}

TEST(WireCodecTest, RejectsEveryBitFlip) {
  // Flip each bit of a complete frame; decode must fail (the flip
  // changes magic/version/type/reserved/length/checksum in the header
  // or breaks the payload checksum) or — when the flipped bit is
  // inside the checksum-covered payload — never succeed silently.
  NotifyFrame small;
  small.sender = 1;
  small.sequence = 2;
  small.notification.lmr = 3;
  rdf::Resource res = MakeResource("x", "Movie");
  res.AddProperty("t", rdf::PropertyValue::Literal("v"));
  small.notification.resources.push_back({"http://d#x", res, false, {}});
  const std::string encoded = EncodeNotifyFrame(small);
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = encoded;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      EXPECT_FALSE(DecodeFrame(corrupt).ok())
          << "bit " << bit << " of byte " << byte << " undetected";
    }
  }
}

TEST(WireCodecTest, RejectsOversizedPayloadLength) {
  std::string encoded = EncodeAckFrame(AckFrame{1, 2, 3});
  // Patch the length field (offset 8, little-endian u32) to an absurd
  // value and extend the buffer to match, so only the limit check can
  // reject it.
  const uint32_t huge = (64u << 20) + 1;
  for (int i = 0; i < 4; ++i) {
    encoded[8 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  Result<DecodedFrame> decoded = DecodeFrame(encoded);
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("exceeds limit"),
            std::string::npos);
}

TEST(WireCodecTest, RejectsWrongVersionAndType) {
  std::string encoded = EncodeAckFrame(AckFrame{1, 2, 3});
  std::string bad_version = encoded;
  bad_version[4] = static_cast<char>(kWireVersion + 1);
  EXPECT_FALSE(DecodeFrame(bad_version).ok());
  std::string bad_type = encoded;
  bad_type[5] = 99;
  EXPECT_FALSE(DecodeFrame(bad_type).ok());
  std::string bad_reserved = encoded;
  bad_reserved[6] = 1;
  EXPECT_FALSE(DecodeFrame(bad_reserved).ok());
}

TEST(WireCodecTest, RejectsImplausibleElementCounts) {
  // A frame whose payload claims 2^31 resources but carries none. The
  // checksum is recomputed so only the count plausibility check can
  // reject it.
  NotifyFrame frame;
  frame.sender = 1;
  frame.sequence = 1;
  frame.notification.lmr = 1;
  std::string encoded = EncodeNotifyFrame(frame);
  const size_t count_offset = encoded.size() - 4;  // Trailing resource count.
  const uint32_t absurd = 0x80000000u;
  for (int i = 0; i < 4; ++i) {
    encoded[count_offset + i] = static_cast<char>((absurd >> (8 * i)) & 0xFF);
  }
  // Recompute the checksum over the patched payload.
  std::string payload = encoded.substr(kWireHeaderBytes);
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : payload) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  for (int i = 0; i < 8; ++i) {
    encoded[12 + i] = static_cast<char>((h >> (8 * i)) & 0xFF);
  }
  Result<DecodedFrame> decoded = DecodeFrame(encoded);
  EXPECT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("implausible"), std::string::npos);
}

// ---- Stream framing. ----------------------------------------------------

TEST(FrameBufferTest, ReassemblesFramesFromArbitraryChunks) {
  std::vector<std::string> frames;
  frames.push_back(EncodeNotifyFrame(MakeNotifyFrame()));
  frames.push_back(EncodeAckFrame(AckFrame{7, 42, 3}));
  frames.push_back(EncodeNotifyFrame(MakeNotifyFrame()));
  std::string stream;
  for (const std::string& f : frames) stream += f;

  for (size_t chunk : {1u, 3u, 7u, 64u, 1000u}) {
    FrameBuffer buffer;
    std::vector<std::string> out;
    for (size_t pos = 0; pos < stream.size(); pos += chunk) {
      buffer.Append(std::string_view(stream).substr(
          pos, std::min(chunk, stream.size() - pos)));
      while (true) {
        Result<std::optional<std::string>> next = buffer.Next();
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (!next.value().has_value()) break;
        out.push_back(std::move(*next.value()));
      }
    }
    ASSERT_EQ(out.size(), frames.size()) << "chunk size " << chunk;
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(out[i], frames[i]);
      EXPECT_TRUE(DecodeFrame(out[i]).ok());
    }
    EXPECT_EQ(buffer.buffered_bytes(), 0u);
  }
}

TEST(FrameBufferTest, NeedsMoreInputWithoutFullHeader) {
  FrameBuffer buffer;
  buffer.Append("\x4E\x56");  // First magic bytes only.
  Result<std::optional<std::string>> next = buffer.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value().has_value());
}

TEST(FrameBufferTest, CorruptHeaderPoisonsTheStream) {
  std::string frame = EncodeAckFrame(AckFrame{1, 1, 1});
  frame[0] = 'X';  // Break the magic.
  FrameBuffer buffer;
  buffer.Append(frame);
  EXPECT_FALSE(buffer.Next().ok());
  // And stays broken: resynchronization is impossible.
  EXPECT_FALSE(buffer.Next().ok());
}

}  // namespace
}  // namespace mdv::net
