#include "rpc/wire.h"

namespace opc::rpc {
namespace {

// Little-endian primitive appends.  memcpy keeps them alignment-safe; the
// byte swap is a no-op on every target we build for.
void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Appends the frame header, leaving the length word to be patched once the
/// body is in place.  Returns the index of the length word.
std::size_t begin_frame(WireBuf& out, MsgType type, std::uint64_t id) {
  const std::size_t at = out.bytes.size();
  put_u32(out.bytes, 0);  // patched by end_frame
  put_u16(out.bytes, kMagic);
  out.bytes.push_back(kWireVersion);
  out.bytes.push_back(static_cast<std::uint8_t>(type));
  put_u64(out.bytes, id);
  return at;
}

void end_frame(WireBuf& out, std::size_t at) {
  const auto len = static_cast<std::uint32_t>(out.bytes.size() - at - 4);
  for (int i = 0; i < 4; ++i) {
    out.bytes[at + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
}

void put_name(WireBuf& out, std::string_view name) {
  put_u16(out.bytes, static_cast<std::uint16_t>(name.size()));
  out.bytes.insert(out.bytes.end(), name.begin(), name.end());
}

}  // namespace

void encode_ping(WireBuf& out, std::uint64_t id) {
  end_frame(out, begin_frame(out, MsgType::kPing, id));
}

void encode_create(WireBuf& out, std::uint64_t id, std::uint64_t dir,
                   std::string_view name, bool is_dir) {
  const std::size_t at =
      begin_frame(out, is_dir ? MsgType::kMkdir : MsgType::kCreate, id);
  put_u64(out.bytes, dir);
  put_name(out, name);
  end_frame(out, at);
}

void encode_create_spread(WireBuf& out, std::uint64_t id, std::uint64_t dir,
                          std::string_view name, std::uint8_t width) {
  const std::size_t at = begin_frame(out, MsgType::kCreateSpread, id);
  out.bytes.push_back(width);
  put_u64(out.bytes, dir);
  put_name(out, name);
  end_frame(out, at);
}

void encode_remove(WireBuf& out, std::uint64_t id, std::uint64_t dir,
                   std::string_view name) {
  const std::size_t at = begin_frame(out, MsgType::kRemove, id);
  put_u64(out.bytes, dir);
  put_name(out, name);
  end_frame(out, at);
}

void encode_rename(WireBuf& out, std::uint64_t id, std::uint64_t src_dir,
                   std::string_view src_name, std::uint64_t dst_dir,
                   std::string_view dst_name) {
  const std::size_t at = begin_frame(out, MsgType::kRename, id);
  put_u64(out.bytes, src_dir);
  put_u64(out.bytes, dst_dir);
  put_u16(out.bytes, static_cast<std::uint16_t>(src_name.size()));
  put_u16(out.bytes, static_cast<std::uint16_t>(dst_name.size()));
  out.bytes.insert(out.bytes.end(), src_name.begin(), src_name.end());
  out.bytes.insert(out.bytes.end(), dst_name.begin(), dst_name.end());
  end_frame(out, at);
}

void encode_reply(WireBuf& out, const Reply& r) {
  const std::size_t at = begin_frame(out, MsgType::kReply, r.id);
  out.bytes.push_back(static_cast<std::uint8_t>(r.status));
  put_u64(out.bytes, r.inode);
  end_frame(out, at);
}

namespace {

/// Body cursor: sequential reads that fail closed on truncation.
struct Cursor {
  const std::uint8_t* p;
  std::size_t left;
  bool ok = true;

  std::uint64_t u64() {
    if (left < 8) {
      ok = false;
      return 0;
    }
    const std::uint64_t v = get_u64(p);
    p += 8;
    left -= 8;
    return v;
  }
  std::uint16_t u16() {
    if (left < 2) {
      ok = false;
      return 0;
    }
    const std::uint16_t v = get_u16(p);
    p += 2;
    left -= 2;
    return v;
  }
  std::uint8_t u8() {
    if (left < 1) {
      ok = false;
      return 0;
    }
    const std::uint8_t v = *p;
    p += 1;
    left -= 1;
    return v;
  }
  std::string_view str(std::size_t n) {
    if (left < n || n > kMaxNameBytes) {
      ok = false;
      return {};
    }
    const auto* s = reinterpret_cast<const char*>(p);
    p += n;
    left -= n;
    return {s, n};
  }
};

}  // namespace

Decoded decode_frame(const std::uint8_t* data, std::size_t len) {
  Decoded d;
  if (len < 4) return d;  // kNeedMore
  const std::uint32_t frame_len = get_u32(data);
  if (frame_len < kHeaderBytes - 4 || frame_len > kMaxFrameBytes) {
    d.status = DecodeStatus::kCorrupt;
    return d;
  }
  if (len < 4 + frame_len) return d;  // kNeedMore
  d.consumed = 4 + frame_len;

  const std::uint8_t* p = data + 4;
  if (get_u16(p) != kMagic || p[2] != kWireVersion) {
    d.status = DecodeStatus::kCorrupt;
    return d;
  }
  const auto type = static_cast<MsgType>(p[3]);
  const std::uint64_t id = get_u64(p + 4);
  Cursor c{p + kHeaderBytes - 4, frame_len - (kHeaderBytes - 4)};

  switch (type) {
    case MsgType::kPing:
      d.request = {type, id, 0, 0, {}, {}};
      break;
    case MsgType::kCreate:
    case MsgType::kMkdir:
    case MsgType::kRemove: {
      const std::uint64_t dir = c.u64();
      const std::uint16_t n = c.u16();
      d.request = {type, id, dir, 0, c.str(n), {}};
      break;
    }
    case MsgType::kRename: {
      const std::uint64_t src = c.u64();
      const std::uint64_t dst = c.u64();
      const std::uint16_t sn = c.u16();
      const std::uint16_t dn = c.u16();
      d.request = {type, id, src, dst, c.str(sn), c.str(dn)};
      break;
    }
    case MsgType::kCreateSpread: {
      const std::uint8_t width = c.u8();
      const std::uint64_t dir = c.u64();
      const std::uint16_t n = c.u16();
      d.request = {type, id, dir, 0, c.str(n), {}, width};
      // width <= 2 is a protocol violation (width 2 is spelled kCreate);
      // a peer that sends it disagrees with us about the format.
      if (width < 3) {
        d.status = DecodeStatus::kCorrupt;
        return d;
      }
      break;
    }
    case MsgType::kReply: {
      const std::uint8_t status = c.u8();
      if (status > static_cast<std::uint8_t>(Status::kShutdown)) {
        d.status = DecodeStatus::kCorrupt;
        return d;
      }
      d.reply = {id, static_cast<Status>(status), c.u64()};
      break;
    }
    default:
      d.status = DecodeStatus::kCorrupt;
      return d;
  }
  // The declared length must match what the body actually used: trailing
  // garbage inside a frame means the peer and we disagree on the format.
  if (!c.ok || c.left != 0) {
    d.status = DecodeStatus::kCorrupt;
    return d;
  }
  d.status = type == MsgType::kReply ? DecodeStatus::kReply
                                     : DecodeStatus::kRequest;
  return d;
}

}  // namespace opc::rpc
