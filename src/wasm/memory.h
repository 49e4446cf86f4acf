// WebAssembly linear memory: a contiguous, byte-addressable, bounds-checked
// array that grows in 64 KiB pages (§2.1 "Linear Memory" in the paper).
//
// This is the object Roadrunner's shim reads from and writes into. All host
// access goes through the checked Read/Write/Slice APIs, which is how the
// shim "applies bounds checking before any read or write operation" (§3.1).
//
// Storage is one block from the C allocator. Pages come zeroed from calloc,
// so the kernel commits a page only when the guest first touches it: a warm
// instance costs the pages its guest uses, not its declared size. Grow
// reallocs the block and zeroes the new tail; glibc moves a large block by
// remapping its pages, not copying them. The block may move on Grow.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "wasm/types.h"

namespace rr::wasm {

class LinearMemory {
 public:
  explicit LinearMemory(Limits limits);
  ~LinearMemory();

  LinearMemory(const LinearMemory&) = delete;
  LinearMemory& operator=(const LinearMemory&) = delete;

  uint32_t pages() const { return pages_; }
  size_t byte_size() const { return static_cast<size_t>(pages_) * kWasmPageSize; }
  const Limits& limits() const { return limits_; }

  // memory.grow semantics: returns the previous page count, or -1 when the
  // request exceeds the limit or the host cannot supply the pages.
  int32_t Grow(uint32_t delta_pages);

  // True when [addr, addr+len) lies inside the current memory size.
  bool InBounds(uint64_t addr, uint64_t len) const {
    return addr + len <= byte_size() && addr + len >= addr;
  }

  // Guest-side typed access (used by the interpreter). Out-of-bounds access
  // is a trap, reported via Status.
  template <typename T>
  Result<T> Load(uint64_t addr) const {
    if (!InBounds(addr, sizeof(T))) {
      return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                          "load at " + std::to_string(addr));
    }
    return LoadLE<T>(data_ + addr);
  }

  template <typename T>
  Status Store(uint64_t addr, T value) {
    if (!InBounds(addr, sizeof(T))) {
      return TrapToStatus(TrapKind::kMemoryOutOfBounds,
                          "store at " + std::to_string(addr));
    }
    StoreLE<T>(data_ + addr, value);
    return Status::Ok();
  }

  // Host-side bulk access (the shim's read_memory_host / write_memory_host
  // path). Copies across the sandbox boundary and is accounted as Wasm VM
  // I/O (the "penalty to access data in the Wasm VM" of Fig. 6a).
  Status Read(uint64_t addr, MutableByteSpan out) const;
  Status Write(uint64_t addr, ByteSpan data);

  // Cumulative bytes moved across the guest/host boundary via Read/Write.
  // Atomic: shims may read different regions from worker threads.
  uint64_t host_bytes_read() const {
    return host_bytes_read_.load(std::memory_order_relaxed);
  }
  uint64_t host_bytes_written() const {
    return host_bytes_written_.load(std::memory_order_relaxed);
  }

  // Zero-copy view into linear memory. The span is invalidated by Grow();
  // callers (the shim) must not hold it across guest re-entry.
  Result<ByteSpan> Slice(uint64_t addr, uint64_t len) const;
  Result<MutableByteSpan> MutableSlice(uint64_t addr, uint64_t len);

  // memory.copy / memory.fill (bulk memory proposal).
  Status Copy(uint64_t dst, uint64_t src, uint64_t len);
  Status Fill(uint64_t dst, uint8_t value, uint64_t len);

 private:
  Limits limits_;
  uint32_t pages_ = 0;
  uint8_t* data_ = nullptr;
  mutable std::atomic<uint64_t> host_bytes_read_{0};
  std::atomic<uint64_t> host_bytes_written_{0};
};

}  // namespace rr::wasm
