#include "wasm/memory.h"

#include <cstdlib>
#include <cstring>
#include <new>

namespace rr::wasm {

LinearMemory::LinearMemory(Limits limits) : limits_(limits), pages_(limits.min_pages) {
  if (!limits_.has_max || limits_.max_pages > kDefaultMaxPages) {
    limits_.has_max = true;
    limits_.max_pages = kDefaultMaxPages;
  }
  data_ = static_cast<uint8_t*>(std::calloc(byte_size(), 1));
  if (data_ == nullptr && byte_size() != 0) throw std::bad_alloc();
}

LinearMemory::~LinearMemory() { std::free(data_); }

int32_t LinearMemory::Grow(uint32_t delta_pages) {
  const uint64_t target = static_cast<uint64_t>(pages_) + delta_pages;
  if (target > limits_.max_pages) return -1;
  const size_t old_size = byte_size();
  const size_t new_size = static_cast<size_t>(target) * kWasmPageSize;
  if (new_size != old_size) {
    void* grown = std::realloc(data_, new_size);
    if (grown == nullptr) return -1;
    data_ = static_cast<uint8_t*>(grown);
    std::memset(data_ + old_size, 0, new_size - old_size);
  }
  const uint32_t old_pages = pages_;
  pages_ = static_cast<uint32_t>(target);
  return static_cast<int32_t>(old_pages);
}

Status LinearMemory::Read(uint64_t addr, MutableByteSpan out) const {
  if (!InBounds(addr, out.size())) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                        "host read [" + std::to_string(addr) + ", +" +
                            std::to_string(out.size()) + ")");
  }
  // memcpy requires non-null pointers even for n=0, and an empty span's
  // data() is null (zero-length payloads are legal on the data plane).
  if (!out.empty()) std::memcpy(out.data(), data_ + addr, out.size());
  host_bytes_read_.fetch_add(out.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Status LinearMemory::Write(uint64_t addr, ByteSpan data) {
  if (!InBounds(addr, data.size())) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                        "host write [" + std::to_string(addr) + ", +" +
                            std::to_string(data.size()) + ")");
  }
  if (!data.empty()) std::memcpy(data_ + addr, data.data(), data.size());
  host_bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
  return Status::Ok();
}

Result<ByteSpan> LinearMemory::Slice(uint64_t addr, uint64_t len) const {
  if (!InBounds(addr, len)) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                        "slice [" + std::to_string(addr) + ", +" +
                            std::to_string(len) + ")");
  }
  return ByteSpan(data_ + addr, len);
}

Result<MutableByteSpan> LinearMemory::MutableSlice(uint64_t addr, uint64_t len) {
  if (!InBounds(addr, len)) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                        "mutable slice [" + std::to_string(addr) + ", +" +
                            std::to_string(len) + ")");
  }
  return MutableByteSpan(data_ + addr, len);
}

Status LinearMemory::Copy(uint64_t dst, uint64_t src, uint64_t len) {
  if (!InBounds(dst, len) || !InBounds(src, len)) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds, "memory.copy");
  }
  std::memmove(data_ + dst, data_ + src, len);
  return Status::Ok();
}

Status LinearMemory::Fill(uint64_t dst, uint8_t value, uint64_t len) {
  if (!InBounds(dst, len)) {
    return TrapToStatus(TrapKind::kMemoryOutOfBounds, "memory.fill");
  }
  std::memset(data_ + dst, value, len);
  return Status::Ok();
}

}  // namespace rr::wasm
