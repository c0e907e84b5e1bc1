#ifndef MDV_NET_WIRE_H_
#define MDV_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "pubsub/notification.h"

namespace mdv::net {

/// Versioned binary wire format for the notification transport. Every message travels as one self-contained frame:
///
///   offset  size  field
///   ------  ----  -----------------------------------------------
///        0     4  magic 0x4D44564E ("MDVN", little-endian u32)
///        4     1  version (currently 2)
///        5     1  frame type (1 = notify, 2 = ack, 3 = snapshot request)
///        6     2  reserved, must be zero
///        8     4  payload length in bytes (u32, little-endian)
///       12     8  FNV-1a 64 checksum of the payload bytes
///       20     n  payload
///
/// Integers are fixed-width little-endian; strings are a u32 byte
/// length followed by raw bytes (UTF-8 passes through untouched).
/// Decoding verifies the magic, version, type, reserved bits, exact
/// frame length and checksum before parsing, so truncated, oversized
/// and bit-flipped frames are rejected without touching the payload
/// parser. The payload parser itself bounds-checks every read, so a
/// checksum-colliding corruption still cannot read out of bounds.
///
/// Version history: v1 carried unversioned notify payloads; v2 adds
/// per-resource LWW entry versions, the snapshot-stream notification
/// kinds (chunk/done + manifest trailer), and the snapshot-request
/// frame type for the replica join protocol.
inline constexpr uint32_t kWireMagic = 0x4D44564E;  // "NVDM" on the wire.
inline constexpr uint8_t kWireVersion = 2;
inline constexpr size_t kWireHeaderBytes = 20;
/// Upper bound on the payload of a single frame. Frames claiming more
/// are rejected before any allocation happens.
inline constexpr size_t kMaxPayloadBytes = 64u << 20;

enum class FrameType : uint8_t {
  kNotify = 1,  ///< A publish notification plus its delivery header.
  kAck = 2,     ///< Receiver acknowledgement of one notify frame.
  /// A joining LMR asking its provider for a versioned snapshot. The
  /// chunks and the manifest travel back as ordinary notify frames
  /// (kinds kSnapshotChunk/kSnapshotDone) on the provider's dedicated
  /// snapshot sender flow, inheriting ack/retransmit reliability.
  kSnapshotRequest = 3,
};

/// A notification in flight: the at-least-once delivery header (which
/// sender flow it belongs to and its per-(sender, lmr) sequence number)
/// plus the full notification payload, including every transmitted
/// resource's RDF content and the publish's trace context.
struct NotifyFrame {
  uint64_t sender = 0;
  uint64_t sequence = 0;
  pubsub::Notification notification;
};

/// Acknowledgement of one notify frame, addressed back to the sender's
/// ack endpoint.
struct AckFrame {
  uint64_t sender = 0;
  uint64_t sequence = 0;
  pubsub::LmrId lmr = -1;
};

/// A joining LMR's snapshot request (Clone pattern). `cursor` is the
/// catchup cursor: the per-entry versions the replica already holds, so
/// the server can skip shipping content the replica provably has (the
/// manifest is always complete — only chunk content is elided).
struct SnapshotRequestFrame {
  /// Live sender id of the MDP being asked to serve.
  uint64_t provider = 0;
  pubsub::LmrId lmr = -1;
  uint64_t request_id = 0;
  /// False for a full snapshot (ignore the cursor).
  bool delta = false;
  /// Per-origin high-water marks of the replica's applied versions
  /// (observability + server-side catchup accounting).
  std::vector<pubsub::EntryVersion> vector;
  struct CursorEntry {
    std::string uri_reference;
    pubsub::EntryVersion version;
  };
  std::vector<CursorEntry> cursor;
};

/// A decoded frame: exactly one of the payloads is meaningful,
/// selected by `type`.
struct DecodedFrame {
  FrameType type = FrameType::kNotify;
  NotifyFrame notify;
  AckFrame ack;
  SnapshotRequestFrame snapshot_request;
};

/// Serializes a notify frame (header + payload + checksum).
std::string EncodeNotifyFrame(const NotifyFrame& frame);

/// Serializes an ack frame.
std::string EncodeAckFrame(const AckFrame& frame);

/// Serializes a snapshot request frame.
std::string EncodeSnapshotRequestFrame(const SnapshotRequestFrame& frame);

/// Decodes one complete frame. The buffer must hold exactly one frame;
/// anything shorter (truncation), longer (trailing bytes), corrupt
/// (checksum/magic/version mismatch) or oversized is an error, never a
/// crash or an out-of-bounds read.
Result<DecodedFrame> DecodeFrame(std::string_view buffer);

/// Reassembles frames from a byte stream (the length-prefixed framing a
/// future socket transport would need): append arbitrary chunks, pull
/// complete frames out in order. Corrupt headers poison the stream and
/// every subsequent Next() reports the error.
class FrameBuffer {
 public:
  /// Appends raw bytes to the stream.
  void Append(std::string_view bytes);

  /// Returns the next complete frame's bytes, std::nullopt when more
  /// input is needed, or an error if the stream is corrupt (bad magic /
  /// version / oversized length — resynchronization is impossible).
  Result<std::optional<std::string>> Next();

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

}  // namespace mdv::net

#endif  // MDV_NET_WIRE_H_
