#include "layer_stats.h"

namespace perfbench {

HeapCounters ReadCounters(sheap::StableHeap* heap) {
  HeapCounters c;
  const sheap::LockStats& locks = heap->lock_stats();
  c.lock_acquires = locks.acquires.load(std::memory_order_relaxed);
  c.lock_conflicts = locks.conflicts.load(std::memory_order_relaxed);
  c.gate_handshakes = heap->gate_stats().handshakes;
  const sheap::HeapStats s = heap->stats();
  c.pool_hits = s.pool.hits;
  c.pool_misses = s.pool.misses;
  c.disk_page_writes = s.disk.page_writes;
  c.disk_page_reads = s.disk.page_reads;
  c.log_bytes = s.log_device.bytes_appended;
  c.log_forces = s.log_device.forces;
  c.fdatasyncs = s.log_device.fdatasyncs;
  const sheap::GcStats& gc = heap->stable_gc_stats();
  c.stable_completed = gc.collections_completed;
  c.objects_copied = gc.objects_copied;
  c.barrier_traps = gc.read_barrier_traps;
  c.barrier_fast_hits = gc.read_barrier_fast_hits;
  c.barrier_fast_misses = gc.read_barrier_fast_misses;
  c.hw_barrier_traps = gc.hw_barrier_traps;
  c.volatile_completed = heap->volatile_gc_stats().collections_completed;
  c.objects_promoted = heap->promotion_stats().objects_promoted;
  return c;
}

GcMark MarkGc(sheap::StableHeap* heap) {
  const sheap::GcStats& gc = heap->stable_gc_stats();
  GcMark m;
  m.stable_progress = gc.collections_started + gc.pages_scanned;
  m.volatile_done = heap->volatile_gc_stats().collections_completed;
  m.promotions = heap->promotion_stats().commits_with_promotion;
  return m;
}

RecoveryCounters ReadRecovery(sheap::StableHeap* heap) {
  const sheap::RecoveryStats& r = heap->recovery_stats();
  RecoveryCounters c;
  c.log_bytes_read = r.log_bytes_read;
  c.redo_records_applied = r.redo_records_applied;
  return c;
}

}  // namespace perfbench
