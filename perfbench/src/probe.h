// Instrumentation the benchmark owns: a forwarding Env around RealEnv and a
// span ledger.
//
// ProbeEnv forwards every Disk, LogDevice and HeapMapping call to the real
// devices. It always counts calls and bytes (a few integer adds next to a
// syscall), so the measured run can see stable-collector flips through the
// mapping's Protect calls without reading any heap stats. When `timed` is
// set (the traced run) every device call also becomes a span whose parent
// is the StableHeap call that caused it (ApiSpan, one per public call on the
// calling thread).
//
// The ledger aggregates spans as they close instead of storing them: per
// API layer a count, total wall time and time spent in child device spans,
// per (API layer, device layer) pair the device time and count. Self time
// of an API layer is its total minus its device children.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/env.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// StableHeap entry points, grouped the way the per-layer metrics need.
enum Api : int {
  kApiNone = 0,  // device calls outside any heap call (env setup)
  kApiBegin,
  kApiRead,      // ReadScalar, ReadRef, GetRoot
  kApiWrite,     // WriteScalar, WriteRef, SetRoot
  kApiAllocate,  // Allocate
  kApiCommit,
  kApiCheckpoint,
  kApiOpen,
  kApiOther,     // RegisterClass, StepStableCollection, SimulateCrash
  kApiCount
};

/// Device calls, one bucket per method family.
enum Dev : int {
  kDevDiskRead = 0,
  kDevDiskWrite,   // WritePage, WritePageRun
  kDevLogAppend,   // Append, AppendAsync
  kDevLogForce,    // Force
  kDevLogBarrier,  // MarkDurableBarrier (syncs only when bytes are staged)
  kDevLogRead,     // ReadAt
  kDevLogOther,    // SetMasterLsn, TruncatePrefix, TearTail
  kDevMapTouch,
  kDevMapProtect,  // Protect, Unprotect
  kDevCount
};

/// One thread's aggregated spans.
struct Ledger {
  std::array<uint64_t, kApiCount> api_count{};
  std::array<uint64_t, kApiCount> api_ns{};
  std::array<std::array<uint64_t, kDevCount>, kApiCount> dev_count{};
  std::array<std::array<uint64_t, kDevCount>, kApiCount> dev_ns{};

  void Add(const Ledger& o);
  uint64_t DevNsUnder(Api a) const;
  uint64_t DevNs(Dev d) const;
  uint64_t DevCount(Dev d) const;
};

/// Registry of per-thread ledgers. Merge and Reset require that no traced
/// call is in flight (worker threads joined or parked).
class LedgerSet {
 public:
  Ledger* ForThisThread();
  Ledger Merged() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Ledger>> ledgers_;
};

LedgerSet& Ledgers();

/// The enclosing API span of the calling thread, or null.
struct ApiSpan;
ApiSpan*& CurrentSpan();

/// A traced StableHeap call. Device spans opened while it is current are
/// its children.
struct ApiSpan {
  explicit ApiSpan(Api api) : api(api), parent(CurrentSpan()) {
    CurrentSpan() = this;
    start = NowNs();
  }
  ~ApiSpan() {
    const uint64_t ns = NowNs() - start;
    Ledger* l = Ledgers().ForThisThread();
    ++l->api_count[api];
    l->api_ns[api] += ns;
    CurrentSpan() = parent;
  }
  ApiSpan(const ApiSpan&) = delete;
  ApiSpan& operator=(const ApiSpan&) = delete;

  Api api;
  ApiSpan* parent;
  uint64_t start = 0;
};

/// Totals the forwarding devices saw, kept in both runs.
struct DeviceCounts {
  std::atomic<uint64_t> page_reads{0};
  std::atomic<uint64_t> page_writes{0};  // pages, runs counted per page
  std::atomic<uint64_t> log_bytes{0};
  std::atomic<uint64_t> log_forces{0};  // LogDevice::Force calls
  std::atomic<uint64_t> flips{0};       // Protect calls = collector flips
  std::atomic<uint64_t> traps{0};       // Touch calls that trapped
};

/// Forwarding Env over a real one; see file comment.
class ProbeEnv final : public sheap::Env {
 public:
  ProbeEnv(std::unique_ptr<sheap::Env> inner, bool timed);
  ~ProbeEnv() override;
  ProbeEnv(const ProbeEnv&) = delete;
  ProbeEnv& operator=(const ProbeEnv&) = delete;

  sheap::SimClock* clock() override { return inner_->clock(); }
  sheap::Disk* disk() override;
  sheap::LogDevice* log() override;
  sheap::FaultInjector* faults() override { return inner_->faults(); }
  sheap::HeapMapping* mapping() override;
  const char* backend_name() const override { return inner_->backend_name(); }

  const DeviceCounts& counts() const { return counts_; }

 private:
  class Disk;
  class Log;
  class Mapping;

  std::unique_ptr<sheap::Env> inner_;
  DeviceCounts counts_;
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<Log> log_;
  std::unique_ptr<Mapping> mapping_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
