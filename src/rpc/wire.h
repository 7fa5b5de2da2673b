// Wire protocol v1: the length-prefixed binary codec `opc serve` speaks.
//
// Every frame is  [u32 length] [u16 magic] [u8 version] [u8 type]
//                 [u64 request id] [type-specific body]
// with all integers little-endian and `length` counting everything after
// the length word itself.  The codec is symmetric (requests and replies
// share the header) and allocation-free on the hot path: encoders append
// into a caller-owned, reused byte buffer and decoders return views into
// the connection's read buffer — no per-frame heap traffic on either side
// (the SBO/slab discipline of the PR-2 kernel, applied to the socket
// boundary).  docs/SERVING.md §2 is the normative description; the codec
// unit tests (tests/rpc/rpc_codec_test.cc) pin round-trips and rejection
// of truncated/corrupt frames.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace opc::rpc {

inline constexpr std::uint16_t kMagic = 0x4F50;  // "PO" on the wire: 'O','P'
inline constexpr std::uint8_t kWireVersion = 1;
/// Hard ceiling on `length`; anything larger is corruption, not a big
/// request (names are capped far below this).
inline constexpr std::uint32_t kMaxFrameBytes = 64 * 1024;
inline constexpr std::size_t kMaxNameBytes = 4096;
inline constexpr std::size_t kHeaderBytes = 4 + 2 + 1 + 1 + 8;

/// Frame types.  1..63 are requests, 64+ are replies.
enum class MsgType : std::uint8_t {
  kPing = 1,    // empty body; replies kOk with inode=0
  kCreate = 2,  // u64 dir, u16 name_len, name       (server allocates inode)
  kMkdir = 3,   // u64 dir, u16 name_len, name       (server allocates inode)
  kRemove = 4,  // u64 dir, u16 name_len, name       (server resolves inode)
  kRename = 5,  // u64 src_dir, u64 dst_dir, u16 src_len, u16 dst_len,
                // src_name, dst_name                (server resolves inode)
  kCreateSpread = 6,  // u8 width, u64 dir, u16 name_len, name
                      // One atomic transaction spanning `width` MDSs: the
                      // named file plus width-2 siblings (name.s1, ...),
                      // each inode on a distinct non-coordinator node.
                      // width must be >= 3 (width 2 is just kCreate).
  kReply = 64,  // u8 status, u64 inode (0 when not applicable)
};

enum class Status : std::uint8_t {
  kOk = 0,        // transaction committed
  kAborted = 1,   // transaction aborted by the protocol
  kBusy = 2,      // shed by backpressure before reaching an engine
  kBadRequest = 3,  // malformed body / unknown op / name too long
  kNotFound = 4,  // remove/rename of a name the namespace does not hold
  kTimeout = 5,   // server-side request deadline elapsed (reply dropped)
  kShutdown = 6,  // server is draining; no new work accepted
};

/// A decoded request, viewing name bytes inside the connection's read
/// buffer — valid only until that buffer is consumed/compacted.
struct Request {
  MsgType op = MsgType::kPing;
  std::uint64_t id = 0;
  std::uint64_t dir = 0;       // create/mkdir/remove: parent directory
  std::uint64_t dir2 = 0;      // rename: destination directory
  std::string_view name;       // create/mkdir/remove: entry; rename: source
  std::string_view name2;      // rename: destination entry
  std::uint8_t width = 0;      // create-spread: participants (>= 3)
};

struct Reply {
  std::uint64_t id = 0;
  Status status = Status::kOk;
  std::uint64_t inode = 0;  // created inode id on kOk create/mkdir
};

/// Reused output buffer: encoders append frames, the socket writer drains
/// from `offset`.  clear() keeps capacity, so a warm connection encodes
/// without allocating.
struct WireBuf {
  std::vector<std::uint8_t> bytes;
  std::size_t offset = 0;  // drained prefix

  [[nodiscard]] std::size_t unread() const { return bytes.size() - offset; }
  [[nodiscard]] const std::uint8_t* data() const { return bytes.data() + offset; }
  void clear() {
    bytes.clear();
    offset = 0;
  }
  /// Drops the drained prefix once it dominates the buffer (amortized O(1)).
  void compact() {
    if (offset == 0) return;
    if (offset == bytes.size()) {
      clear();
    } else if (offset >= 4096 && offset * 2 >= bytes.size()) {
      bytes.erase(bytes.begin(),
                  bytes.begin() + static_cast<std::ptrdiff_t>(offset));
      offset = 0;
    }
  }
};

// ---- encoders (append one frame to `out.bytes`) -------------------------

void encode_ping(WireBuf& out, std::uint64_t id);
void encode_create(WireBuf& out, std::uint64_t id, std::uint64_t dir,
                   std::string_view name, bool is_dir);
void encode_create_spread(WireBuf& out, std::uint64_t id, std::uint64_t dir,
                          std::string_view name, std::uint8_t width);
void encode_remove(WireBuf& out, std::uint64_t id, std::uint64_t dir,
                   std::string_view name);
void encode_rename(WireBuf& out, std::uint64_t id, std::uint64_t src_dir,
                   std::string_view src_name, std::uint64_t dst_dir,
                   std::string_view dst_name);
void encode_reply(WireBuf& out, const Reply& r);

// ---- incremental decoder ------------------------------------------------

enum class DecodeStatus : std::uint8_t {
  kNeedMore,  // buffer holds a frame prefix; read more bytes
  kRequest,   // one request decoded; `consumed` bytes may be dropped
  kReply,     // one reply decoded
  kCorrupt,   // stream is unrecoverable; close the connection
};

struct Decoded {
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::size_t consumed = 0;  // bytes of input this frame occupied
  Request request;
  Reply reply;
};

/// Attempts to decode one frame from `[data, data+len)`.  Never reads past
/// `len`; on kNeedMore nothing is consumed.  Corruption (bad magic/version,
/// oversize length, body/declared-length mismatch, unknown type, embedded
/// truncation) yields kCorrupt — a byte stream cannot be resynchronized.
[[nodiscard]] Decoded decode_frame(const std::uint8_t* data, std::size_t len);

}  // namespace opc::rpc
