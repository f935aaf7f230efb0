#include "columnar/key_table.h"

#include <cstring>
#include <functional>
#include <string_view>

namespace eon {

namespace {

inline uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

KeyTable::KeyTable(std::vector<const ColumnBatch*> keys, size_t expected)
    : keys_(std::move(keys)) {
  size_t capacity = 16;
  while (capacity < 2 * expected) capacity *= 2;
  Rehash(capacity);
}

std::vector<uint64_t> KeyTable::HashRows(
    const std::vector<const ColumnBatch*>& cols, size_t n) {
  std::vector<uint64_t> h(n, 0);
  for (const ColumnBatch* c : cols) {
    switch (c->type()) {
      case DataType::kInt64: {
        const int64_t* v = c->ints();
        for (size_t r = 0; r < n; ++r) {
          h[r] = Mix(h[r] ^ static_cast<uint64_t>(v[r]));
        }
        break;
      }
      case DataType::kDouble: {
        const double* v = c->dbls();
        for (size_t r = 0; r < n; ++r) {
          // +0.0 for -0.0: the two compare equal, so they hash equal.
          const double d = v[r] == 0.0 ? 0.0 : v[r];
          uint64_t bits;
          std::memcpy(&bits, &d, sizeof(bits));
          h[r] = Mix(h[r] ^ bits);
        }
        break;
      }
      case DataType::kString: {
        const std::string* v = c->strs();
        for (size_t r = 0; r < n; ++r) {
          h[r] = Mix(h[r] ^ std::hash<std::string_view>()(v[r]));
        }
        break;
      }
    }
    // A NULL row hashes its zero/empty placeholder: every NULL of a
    // column hashes alike, and Equal tells NULL from a real zero.
  }
  return h;
}

bool KeyTable::Equal(const std::vector<const ColumnBatch*>& cols, size_t r,
                     size_t b) const {
  for (size_t k = 0; k < cols.size(); ++k) {
    const ColumnBatch& x = *cols[k];
    const ColumnBatch& y = *keys_[k];
    const bool xn = x.IsNull(r);
    if (xn || y.IsNull(b)) {
      if (xn != y.IsNull(b)) return false;
      continue;
    }
    switch (x.type()) {
      case DataType::kInt64:
        if (x.ints()[r] != y.ints()[b]) return false;
        break;
      case DataType::kDouble:
        if (x.dbls()[r] != y.dbls()[b]) return false;
        break;
      case DataType::kString:
        if (x.strs()[r] != y.strs()[b]) return false;
        break;
    }
  }
  return true;
}

void KeyTable::Rehash(size_t capacity) {
  std::vector<uint32_t> old_slots = std::move(slots_);
  std::vector<uint64_t> old_hashes = std::move(slot_hashes_);
  slots_.assign(capacity, 0);
  slot_hashes_.assign(capacity, 0);
  mask_ = capacity - 1;
  for (size_t s = 0; s < old_slots.size(); ++s) {
    if (old_slots[s] == 0) continue;
    size_t i = old_hashes[s] & mask_;
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = old_slots[s];
    slot_hashes_[i] = old_hashes[s];
  }
}

uint32_t KeyTable::Insert(size_t r, uint64_t hash) {
  size_t i = hash & mask_;
  while (slots_[i] != 0) {
    const uint32_t id = slots_[i] - 1;
    if (slot_hashes_[i] == hash && Equal(keys_, r, first_rows_[id])) {
      return id;
    }
    i = (i + 1) & mask_;
  }
  const uint32_t id = static_cast<uint32_t>(first_rows_.size());
  first_rows_.push_back(static_cast<uint32_t>(r));
  slots_[i] = id + 1;
  slot_hashes_[i] = hash;
  // Load factor at most 1/2 keeps probe runs short.
  if (2 * first_rows_.size() > slots_.size()) Rehash(2 * slots_.size());
  return id;
}

uint32_t KeyTable::Find(const std::vector<const ColumnBatch*>& probe,
                        size_t r, uint64_t hash) const {
  size_t i = hash & mask_;
  while (slots_[i] != 0) {
    const uint32_t id = slots_[i] - 1;
    if (slot_hashes_[i] == hash && Equal(probe, r, first_rows_[id])) {
      return id;
    }
    i = (i + 1) & mask_;
  }
  return kNone;
}

}  // namespace eon
