#include "txn/types.h"

namespace opc {
namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}
// Little-endian byte writes, batched: one resize + direct stores instead of
// per-byte push_back capacity checks (these sit under every log record and
// message encode on the commit hot path).
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  for (int i = 0; i < 4; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  for (int i = 0; i < 8; ++i) out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}
bool get_u8(const std::vector<std::uint8_t>& b, std::size_t& o, std::uint8_t& v) {
  if (o + 1 > b.size()) return false;
  v = b[o++];
  return true;
}
bool get_u32(const std::vector<std::uint8_t>& b, std::size_t& o, std::uint32_t& v) {
  if (o + 4 > b.size()) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[o + i]) << (8 * i);
  o += 4;
  return true;
}
bool get_u64(const std::vector<std::uint8_t>& b, std::size_t& o, std::uint64_t& v) {
  if (o + 8 > b.size()) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[o + i]) << (8 * i);
  o += 8;
  return true;
}

}  // namespace

const char* namespace_op_name(NamespaceOpKind k) {
  switch (k) {
    case NamespaceOpKind::kCreate: return "CREATE";
    case NamespaceOpKind::kDelete: return "DELETE";
    case NamespaceOpKind::kRename: return "RENAME";
    case NamespaceOpKind::kCustom: return "CUSTOM";
  }
  return "?";
}

std::size_t ops_wire_size(const std::vector<Operation>& ops) {
  std::size_t size = 4;  // count
  for (const Operation& op : ops) {
    size += 1 + 8 + 8 + 4 + op.name.size() + 8 + 8;
  }
  return size;
}

void encode_ops(const std::vector<Operation>& ops,
                std::vector<std::uint8_t>& out) {
  out.reserve(out.size() + ops_wire_size(ops));
  put_u32(out, static_cast<std::uint32_t>(ops.size()));
  for (const Operation& op : ops) {
    put_u8(out, static_cast<std::uint8_t>(op.type));
    put_u64(out, op.target.value());
    put_u64(out, op.child.value());
    put_u32(out, static_cast<std::uint32_t>(op.name.size()));
    out.insert(out.end(), op.name.begin(), op.name.end());
    put_u64(out, op.log_bytes);
    put_u64(out, static_cast<std::uint64_t>(op.compute.count_nanos()));
  }
}

bool decode_ops(const std::vector<std::uint8_t>& buf,
                std::vector<Operation>& out) {
  std::size_t o = 0;
  std::uint32_t n = 0;
  if (!get_u32(buf, o, n)) return false;
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Operation op;
    std::uint8_t type = 0;
    std::uint64_t target = 0, child = 0, log_bytes = 0, compute = 0;
    std::uint32_t name_len = 0;
    if (!get_u8(buf, o, type) || type < 1 || type > 8) return false;
    if (!get_u64(buf, o, target) || !get_u64(buf, o, child) ||
        !get_u32(buf, o, name_len)) {
      return false;
    }
    if (o + name_len > buf.size()) return false;
    op.type = static_cast<OpType>(type);
    op.target = ObjectId(target);
    op.child = ObjectId(child);
    op.name.assign(buf.begin() + static_cast<std::ptrdiff_t>(o),
                   buf.begin() + static_cast<std::ptrdiff_t>(o + name_len));
    o += name_len;
    if (!get_u64(buf, o, log_bytes) || !get_u64(buf, o, compute)) return false;
    op.log_bytes = log_bytes;
    op.compute = Duration::nanos(static_cast<std::int64_t>(compute));
    out.push_back(std::move(op));
  }
  return o == buf.size();
}

}  // namespace opc
