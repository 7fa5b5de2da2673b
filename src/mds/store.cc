#include "mds/store.h"

#include <algorithm>

#include "sim/check.h"

namespace opc {
namespace {
const std::vector<Operation> kNoOps;
constexpr std::size_t kMaxPooledOps = 32;
}  // namespace

const char* store_status_name(StoreStatus s) {
  switch (s) {
    case StoreStatus::kOk: return "Ok";
    case StoreStatus::kInodeExists: return "InodeExists";
    case StoreStatus::kInodeNotFound: return "InodeNotFound";
    case StoreStatus::kNotADirectory: return "NotADirectory";
    case StoreStatus::kDentryExists: return "DentryExists";
    case StoreStatus::kDentryNotFound: return "DentryNotFound";
    case StoreStatus::kChildMismatch: return "ChildMismatch";
    case StoreStatus::kLinkUnderflow: return "LinkUnderflow";
    case StoreStatus::kDirNotEmpty: return "DirNotEmpty";
  }
  return "?";
}

// --- DentryTable -----------------------------------------------------------

MetaStore::DentryTable::Entries::const_iterator
MetaStore::DentryTable::lower_bound(const Entries& es, std::string_view name) {
  return std::lower_bound(
      es.begin(), es.end(), name,
      [](const std::pair<std::string, ObjectId>& e, std::string_view n) {
        return e.first < n;
      });
}

const ObjectId* MetaStore::DentryTable::find(ObjectId dir,
                                             std::string_view name) const {
  const Entries* es = dirs_.find(dir.value());
  if (es == nullptr) return nullptr;
  auto it = lower_bound(*es, name);
  if (it == es->end() || it->first != name) return nullptr;
  return &it->second;
}

bool MetaStore::DentryTable::insert(ObjectId dir, const std::string& name,
                                    ObjectId child) {
  Entries& es = dirs_[dir.value()];
  auto it = lower_bound(es, name);
  if (it != es.end() && it->first == name) return false;
  es.emplace(it, name, child);
  ++size_;
  return true;
}

bool MetaStore::DentryTable::erase(ObjectId dir, std::string_view name) {
  Entries* es = dirs_.find(dir.value());
  if (es == nullptr) return false;
  auto it = lower_bound(*es, name);
  if (it == es->end() || it->first != name) return false;
  es->erase(it);
  --size_;
  if (es->empty()) dirs_.erase(dir.value());
  return true;
}

void MetaStore::DentryTable::upsert(ObjectId dir, const std::string& name,
                                    ObjectId child) {
  Entries& es = dirs_[dir.value()];
  auto it = lower_bound(es, name);
  if (it != es.end() && it->first == name) {
    es[static_cast<std::size_t>(it - es.begin())].second = child;
    return;
  }
  es.emplace(it, name, child);
  ++size_;
}

std::size_t MetaStore::DentryTable::entry_count(ObjectId dir) const {
  const Entries* es = dirs_.find(dir.value());
  return es == nullptr ? 0 : es->size();
}

const MetaStore::DentryTable::Entries* MetaStore::DentryTable::entries(
    ObjectId dir) const {
  return dirs_.find(dir.value());
}

void MetaStore::DentryTable::clear() {
  dirs_.clear();
  size_ = 0;
}

void MetaStore::DentryTable::clone_from(const DentryTable& o) {
  dirs_.clone_from(o.dirs_);
  size_ = o.size_;
}

// --- MetaStore -------------------------------------------------------------

std::optional<Inode> MetaStore::mem_inode(ObjectId id) const {
  const Inode* ino = mem_inodes_.find(id.value());
  if (ino == nullptr) return std::nullopt;
  return *ino;
}

std::optional<ObjectId> MetaStore::mem_lookup(ObjectId dir,
                                              const std::string& name) const {
  const ObjectId* child = mem_dentries_.find(dir, name);
  if (child == nullptr) return std::nullopt;
  return *child;
}

std::vector<std::pair<std::string, ObjectId>> MetaStore::mem_list_dir(
    ObjectId dir) const {
  const auto* es = mem_dentries_.entries(dir);
  if (es == nullptr) return {};
  return *es;  // already name-sorted
}

std::optional<Inode> MetaStore::effective_inode(TxnId txn, ObjectId id) const {
  std::optional<Inode> ino = mem_inode(id);
  const std::vector<Operation>* pend = pending_.find(txn);
  if (pend == nullptr) return ino;
  for (const Operation& op : *pend) {
    if (op.target != id) continue;
    switch (op.type) {
      case OpType::kCreateInode:
        ino = Inode{id, /*is_dir=*/op.child == id, 0, 0};
        break;
      case OpType::kRemoveInode:
        ino.reset();
        break;
      case OpType::kIncLink:
        if (ino) ++ino->nlink;
        break;
      case OpType::kDecLink:
        if (ino) {
          --ino->nlink;
          if (ino->nlink == 0) ino.reset();
        }
        break;
      case OpType::kSetAttr:
        if (ino) ++ino->version;
        break;
      default:
        break;
    }
  }
  return ino;
}

std::optional<ObjectId> MetaStore::effective_lookup(
    TxnId txn, ObjectId dir, const std::string& name) const {
  std::optional<ObjectId> child = mem_lookup(dir, name);
  const std::vector<Operation>* pend = pending_.find(txn);
  if (pend == nullptr) return child;
  for (const Operation& op : *pend) {
    if (op.target != dir || op.name != name) continue;
    if (op.type == OpType::kAddDentry) child = op.child;
    if (op.type == OpType::kRemoveDentry) child.reset();
  }
  return child;
}

bool MetaStore::effective_dir_empty(TxnId txn, ObjectId dir) const {
  std::size_t entries = mem_dentries_.entry_count(dir);
  if (const std::vector<Operation>* pend = pending_.find(txn)) {
    for (const Operation& op : *pend) {
      if (op.target != dir) continue;
      if (op.type == OpType::kAddDentry) ++entries;
      if (op.type == OpType::kRemoveDentry) --entries;
    }
  }
  return entries == 0;
}

StoreStatus MetaStore::validate(TxnId txn, const Operation& op) const {
  switch (op.type) {
    case OpType::kCreateInode:
      if (effective_inode(txn, op.target)) return StoreStatus::kInodeExists;
      return StoreStatus::kOk;
    case OpType::kRemoveInode: {
      auto ino = effective_inode(txn, op.target);
      if (!ino) return StoreStatus::kInodeNotFound;
      if (ino->is_dir && !effective_dir_empty(txn, op.target)) {
        return StoreStatus::kDirNotEmpty;
      }
      return StoreStatus::kOk;
    }
    case OpType::kSetAttr:
    case OpType::kIncLink:
      if (!effective_inode(txn, op.target)) return StoreStatus::kInodeNotFound;
      return StoreStatus::kOk;
    case OpType::kDecLink: {
      auto ino = effective_inode(txn, op.target);
      if (!ino) return StoreStatus::kInodeNotFound;
      if (ino->nlink == 0) return StoreStatus::kLinkUnderflow;
      if (ino->nlink == 1 && ino->is_dir &&
          !effective_dir_empty(txn, op.target)) {
        // The last link is about to drop: an occupied directory must not
        // vanish (it would orphan its children and dangle their dentries).
        return StoreStatus::kDirNotEmpty;
      }
      return StoreStatus::kOk;
    }
    case OpType::kAddDentry: {
      auto dir = effective_inode(txn, op.target);
      if (!dir) return StoreStatus::kInodeNotFound;
      if (!dir->is_dir) return StoreStatus::kNotADirectory;
      if (effective_lookup(txn, op.target, op.name)) {
        return StoreStatus::kDentryExists;
      }
      return StoreStatus::kOk;
    }
    case OpType::kRemoveDentry: {
      auto dir = effective_inode(txn, op.target);
      if (!dir) return StoreStatus::kInodeNotFound;
      if (!dir->is_dir) return StoreStatus::kNotADirectory;
      auto child = effective_lookup(txn, op.target, op.name);
      if (!child) return StoreStatus::kDentryNotFound;
      if (op.child.valid() && *child != op.child) {
        return StoreStatus::kChildMismatch;
      }
      return StoreStatus::kOk;
    }
  }
  return StoreStatus::kOk;
}

StoreStatus MetaStore::apply(TxnId txn, const Operation& op) {
  const StoreStatus st = validate(txn, op);
  if (st != StoreStatus::kOk) return st;
  auto [ops, inserted] = pending_.try_emplace(txn);
  if (inserted && !ops_pool_.empty()) {
    *ops = std::move(ops_pool_.back());
    ops_pool_.pop_back();
  }
  ops->push_back(op);
  return StoreStatus::kOk;
}

void MetaStore::apply_to(const Operation& op, InodeTable& inodes,
                         DentryTable& dentries) {
  switch (op.type) {
    case OpType::kCreateInode: {
      // Convention: CreateInode with child==target marks a directory.
      const bool inserted =
          inodes
              .try_emplace(op.target.value(),
                           Inode{op.target, op.child == op.target, 0, 0})
              .second;
      SIM_CHECK_MSG(inserted, "CreateInode on existing inode");
      break;
    }
    case OpType::kRemoveInode:
      SIM_CHECK_MSG(inodes.erase(op.target.value()),
                    "RemoveInode on missing inode");
      break;
    case OpType::kIncLink: {
      Inode* ino = inodes.find(op.target.value());
      SIM_CHECK_MSG(ino != nullptr, "IncLink on missing inode");
      ++ino->nlink;
      break;
    }
    case OpType::kDecLink: {
      Inode* ino = inodes.find(op.target.value());
      SIM_CHECK_MSG(ino != nullptr, "DecLink on missing inode");
      SIM_CHECK_MSG(ino->nlink > 0, "DecLink underflow");
      if (--ino->nlink == 0) inodes.erase(op.target.value());
      break;
    }
    case OpType::kSetAttr: {
      Inode* ino = inodes.find(op.target.value());
      SIM_CHECK_MSG(ino != nullptr, "SetAttr on missing inode");
      ++ino->version;
      break;
    }
    case OpType::kAddDentry:
      SIM_CHECK_MSG(dentries.insert(op.target, op.name, op.child),
                    "AddDentry on existing name");
      break;
    case OpType::kRemoveDentry:
      SIM_CHECK_MSG(dentries.erase(op.target, op.name),
                    "RemoveDentry on missing name");
      break;
  }
}

void MetaStore::recycle_ops(std::vector<Operation>&& ops) {
  if (ops_pool_.size() >= kMaxPooledOps) return;
  ops.clear();
  ops_pool_.push_back(std::move(ops));
}

void MetaStore::commit_mem(TxnId txn) {
  std::vector<Operation>* ops = pending_.find(txn);
  if (ops == nullptr) return;  // empty share
  SIM_CHECK_MSG(!unflushed_.contains(txn), "commit_mem called twice");
  for (const Operation& op : *ops) {
    apply_to(op, mem_inodes_, mem_dentries_);
  }
  unflushed_.try_emplace(txn, std::move(*ops));
  pending_.erase(txn);
}

void MetaStore::commit_stable(TxnId txn) {
  std::vector<Operation>* ops = unflushed_.find(txn);
  if (ops == nullptr) return;  // empty share
  for (const Operation& op : *ops) {
    apply_to(op, stable_inodes_, stable_dentries_);
  }
  stable_applied_.insert(txn);
  std::vector<Operation> shell = std::move(*ops);
  unflushed_.erase(txn);
  recycle_ops(std::move(shell));
}

void MetaStore::abort_txn(TxnId txn) {
  SIM_CHECK_MSG(!unflushed_.contains(txn),
                "abort after commit_mem is a protocol bug");
  if (std::vector<Operation>* ops = pending_.find(txn)) {
    std::vector<Operation> shell = std::move(*ops);
    pending_.erase(txn);
    recycle_ops(std::move(shell));
  }
}

void MetaStore::crash() {
  pending_.clear();
  unflushed_.clear();
  mem_inodes_.clone_from(stable_inodes_);
  mem_dentries_.clone_from(stable_dentries_);
}

bool MetaStore::replay_committed(TxnId txn,
                                 const std::vector<Operation>& ops) {
  if (stable_applied_.contains(txn)) return false;
  for (const Operation& op : ops) {
    apply_to(op, stable_inodes_, stable_dentries_);
    apply_to(op, mem_inodes_, mem_dentries_);
  }
  stable_applied_.insert(txn);
  return true;
}

std::optional<Inode> MetaStore::stable_inode(ObjectId id) const {
  const Inode* ino = stable_inodes_.find(id.value());
  if (ino == nullptr) return std::nullopt;
  return *ino;
}

std::optional<ObjectId> MetaStore::stable_lookup(
    ObjectId dir, const std::string& name) const {
  const ObjectId* child = stable_dentries_.find(dir, name);
  if (child == nullptr) return std::nullopt;
  return *child;
}

std::vector<std::tuple<ObjectId, std::string, ObjectId>>
MetaStore::stable_dentries() const {
  std::vector<std::tuple<ObjectId, std::string, ObjectId>> out;
  out.reserve(stable_dentries_.size());
  stable_dentries_.for_each_entry(
      [&out](ObjectId dir, const std::string& name, ObjectId child) {
        out.emplace_back(dir, name, child);
      });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Inode> MetaStore::stable_inodes() const {
  std::vector<Inode> out;
  out.reserve(stable_inodes_.size());
  stable_inodes_.for_each(
      [&out](const std::uint64_t&, const Inode& ino) { out.push_back(ino); });
  std::sort(out.begin(), out.end(),
            [](const Inode& a, const Inode& b) { return a.id < b.id; });
  return out;
}

const std::vector<Operation>& MetaStore::pending_ops(TxnId txn) const {
  const std::vector<Operation>* ops = pending_.find(txn);
  return ops == nullptr ? kNoOps : *ops;
}

void MetaStore::bootstrap_inode(const Inode& ino) {
  mem_inodes_[ino.id.value()] = ino;
  stable_inodes_[ino.id.value()] = ino;
}

void MetaStore::bootstrap_dentry(ObjectId dir, const std::string& name,
                                 ObjectId child) {
  mem_dentries_.upsert(dir, name, child);
  stable_dentries_.upsert(dir, name, child);
}

}  // namespace opc
