// Counters the traced run reads from the heap's own stats accessors. Kept
// in a file that only the traced binary compiles, so the measured binary
// depends on nothing but the transaction API and the Env interface.

#ifndef PERFBENCH_LAYER_STATS_H_
#define PERFBENCH_LAYER_STATS_H_

#include <cstdint>

#include "core/stable_heap.h"

namespace perfbench {

/// Cumulative heap counters. Read only while no mutator thread runs.
struct HeapCounters {
  uint64_t lock_acquires = 0;
  uint64_t lock_conflicts = 0;
  uint64_t gate_handshakes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t stable_completed = 0;
  uint64_t objects_copied = 0;
  uint64_t barrier_traps = 0;
  uint64_t barrier_fast_hits = 0;
  uint64_t barrier_fast_misses = 0;
  uint64_t hw_barrier_traps = 0;
  uint64_t volatile_completed = 0;
  uint64_t objects_promoted = 0;
  uint64_t disk_page_writes = 0;
  uint64_t disk_page_reads = 0;
  uint64_t log_bytes = 0;
  uint64_t log_forces = 0;
  uint64_t fdatasyncs = 0;
};

HeapCounters ReadCounters(sheap::StableHeap* heap);

/// Progress marks compared before and after one call to tell whether the
/// stable collector advanced, a volatile collection ran, or a commit
/// promoted objects. Single-mutator heaps only (GcStats is not atomic).
struct GcMark {
  uint64_t stable_progress = 0;
  uint64_t volatile_done = 0;
  uint64_t promotions = 0;
};

GcMark MarkGc(sheap::StableHeap* heap);

struct RecoveryCounters {
  uint64_t log_bytes_read = 0;
  uint64_t redo_records_applied = 0;
};

RecoveryCounters ReadRecovery(sheap::StableHeap* heap);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_STATS_H_
