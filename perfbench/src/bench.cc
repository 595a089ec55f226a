// Wall-clock benchmark of the stable heap on RealEnv.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --dir <scratch>
//             [--self-check]
//
// Each run formats a heap in <scratch> (which must be empty; the caller
// deletes it afterwards), sets it up from the seed, runs a closed loop for
// <s> seconds, then 21 times finishes any collection in progress, commits a
// fixed tail of update transactions, crashes (no page written back, the
// unforced log tail torn off), times the reopen and audits every object
// against the model the benchmark kept. The last stdout line is the
// result as JSON. Built twice: perfbench (tracing compiled out; the
// end-to-end numbers) and perfbench_traced (spans around every heap and
// device call plus the heap's stats; the per-layer numbers).
//
// Workloads (README.md gives sizes and the reasons for them):
//   debit_credit_4t  4 threads, two-read two-write transfers over accounts
//                    each thread owns; the commit path and nothing else.
//   oo7_divided      OO7-style part graph, 16-link walks, every other txn
//                    replaces parts; divided heap (promotion, volatile and
//                    stable collections).
//   oo7_all_stable   the same operations with every object stable.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/stable_heap.h"
#include "probe.h"
#include "storage/real_env.h"
#if PERFBENCH_TRACED
#include "layer_stats.h"
#endif

namespace perfbench {
namespace {

using sheap::ClassId;
using sheap::Ref;
using sheap::StableHeap;
using sheap::StableHeapOptions;
using sheap::Status;
using sheap::StatusOr;
using sheap::TxnId;

/// A heap call failed. The workloads are built so that none fails, so this
/// ends the run without a result.
struct HeapError {
  std::string what;
};

void Must(const Status& s, const char* what) {
  if (!s.ok()) throw HeapError{std::string(what) + ": " + s.ToString()};
}

template <class T>
T Must(StatusOr<T> s, const char* what) {
  if (!s.ok()) throw HeapError{std::string(what) + ": " + s.status().ToString()};
  return std::move(s.value());
}

/// SplitMix64: every input the benchmark makes comes from one of these,
/// seeded from --seed and a stream number.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t stream)
      : s_(seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

#if PERFBENCH_TRACED
/// Wall time of heap calls during which a collector or promotion ran.
struct GcPauses {
  uint64_t stable_ns = 0, stable_calls = 0;
  uint64_t volatile_ns = 0, volatile_calls = 0;
  uint64_t promotion_ns = 0, promotion_calls = 0;
};
#endif

/// Every StableHeap call the workloads make goes through here. In the
/// traced build each call is an ApiSpan; with `watch_gc` (single-mutator
/// heaps) it also notes whether the call advanced a collector or promoted.
class Client {
 private:
  template <class F>
  decltype(auto) Call([[maybe_unused]] Api api, F&& f) {
#if PERFBENCH_TRACED
    ApiSpan span(api);
    Watch watch(this, api);
#endif
    return f();
  }

#if PERFBENCH_TRACED
  struct Watch {
    Watch(Client* c, Api api) : c(c), api(api) {
      if (c->watch_gc_) {
        before = MarkGc(c->heap_);
        start = NowNs();
      }
    }
    ~Watch() {
      if (!c->watch_gc_) return;
      const uint64_t ns = NowNs() - start;
      const GcMark after = MarkGc(c->heap_);
      GcPauses& p = c->pauses_;
      if (after.stable_progress != before.stable_progress) {
        p.stable_ns += ns;
        ++p.stable_calls;
      }
      if (after.volatile_done != before.volatile_done) {
        p.volatile_ns += ns;
        ++p.volatile_calls;
      }
      if (api == kApiCommit && after.promotions != before.promotions) {
        p.promotion_ns += ns;
        ++p.promotion_calls;
      }
    }
    Client* c;
    Api api;
    GcMark before;
    uint64_t start = 0;
  };
  GcPauses pauses_;
#endif


 public:
  Client(StableHeap* heap, bool watch_gc) : heap_(heap), watch_gc_(watch_gc) {}

  ClassId RegisterClass(const std::vector<bool>& map) {
    return Call(kApiOther, [&] { return Must(heap_->RegisterClass(map), "RegisterClass"); });
  }
  TxnId Begin() {
    return Call(kApiBegin, [&] { return Must(heap_->Begin(), "Begin"); });
  }
  void Commit(TxnId t) {
    Call(kApiCommit, [&] { Must(heap_->Commit(t), "Commit"); });
  }
  Ref Allocate(TxnId t, ClassId cls, uint64_t nslots) {
    return Call(kApiAllocate, [&] { return Must(heap_->Allocate(t, cls, nslots), "Allocate"); });
  }
  uint64_t ReadScalar(TxnId t, Ref r, uint64_t slot) {
    return Call(kApiRead, [&] { return Must(heap_->ReadScalar(t, r, slot), "ReadScalar"); });
  }
  Ref ReadRef(TxnId t, Ref r, uint64_t slot) {
    return Call(kApiRead, [&] { return Must(heap_->ReadRef(t, r, slot), "ReadRef"); });
  }
  Ref GetRoot(TxnId t, uint64_t index) {
    return Call(kApiRead, [&] { return Must(heap_->GetRoot(t, index), "GetRoot"); });
  }
  void WriteScalar(TxnId t, Ref r, uint64_t slot, uint64_t v) {
    Call(kApiWrite, [&] { Must(heap_->WriteScalar(t, r, slot, v), "WriteScalar"); });
  }
  void WriteRef(TxnId t, Ref r, uint64_t slot, Ref target) {
    Call(kApiWrite, [&] { Must(heap_->WriteRef(t, r, slot, target), "WriteRef"); });
  }
  void SetRoot(TxnId t, uint64_t index, Ref target) {
    Call(kApiWrite, [&] { Must(heap_->SetRoot(t, index, target), "SetRoot"); });
  }
  void Checkpoint() {
    Call(kApiCheckpoint, [&] { Must(heap_->CheckpointWithWriteback(), "CheckpointWithWriteback"); });
  }
  void Release(TxnId t, Ref r) {
    Call(kApiOther, [&] { Must(heap_->ReleaseRef(t, r), "ReleaseRef"); });
  }
  /// Runs any collection in progress to completion (a no-op when idle).
  void FinishStableCollection() {
    Call(kApiOther, [&] { Must(heap_->StepStableCollection(UINT32_MAX), "StepStableCollection"); });
  }

#if PERFBENCH_TRACED
  const GcPauses& pauses() const { return pauses_; }
  void ResetPauses() { pauses_ = GcPauses(); }
#endif

 private:
  StableHeap* heap_;
  bool watch_gc_;
};

/// Audit findings; empty means every check passed.
struct Audit {
  std::vector<std::string> problems;
  void Expect(bool ok, const std::string& what) {
    if (!ok && problems.size() < 20) problems.push_back(what);
  }
};

/// Latencies and counts of one thread's closed loop.
struct LoopStats {
  std::vector<uint64_t> latency_ns;  // Begin to commit-OK, one per txn
  std::vector<uint64_t> end_ns;      // commit-OK time, one per txn
  uint64_t committed = 0;
  uint64_t mismatches = 0;  // reads that disagreed with the model

  void Record(uint64_t begin, uint64_t end) {
    latency_ns.push_back(end - begin);
    end_ns.push_back(end);
    ++committed;
  }
};

/// A workload: set-up, the timed closed loop, a fixed tail, the audit.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Geometry, divided_heap and mutator_threads; everything else default.
  virtual StableHeapOptions Options() const = 0;
  virtual void Setup(Client* c) = 0;
  /// Each thread runs its closed loop until `deadline_ns` or until it has
  /// committed `max_txns`, drawing from RNG streams keyed by `stream`; one
  /// LoopStats per mutator thread.
  virtual std::vector<LoopStats> Run(Client* c, uint64_t stream,
                                     uint64_t deadline_ns,
                                     uint64_t max_txns) = 0;
  /// Transactions per thread between the loop's flush checkpoints; the
  /// set-up's warm-up runs this many.
  virtual uint64_t CheckpointEvery() const = 0;
  /// A fixed number of update-only transactions (no allocation, so no
  /// collector work) committed after a checkpoint: the log that recovery
  /// must replay is the same size in every crash cycle of every run.
  virtual void Tail(Client* c, uint64_t cycle) = 0;
  virtual void Check(Client* c, Audit* audit) = 0;
  /// Self-check: change the model by one unit so the audit must fail.
  virtual void Perturb() = 0;
  /// Whether the timed loop must have run a stable collection.
  virtual bool Collects() const = 0;
};

// ------------------------------------------------------------ debit-credit

class DebitCredit final : public Workload {
 public:
  static constexpr uint32_t kThreads = 4;
  static constexpr uint64_t kAccounts = 4096;  // per thread
  static constexpr uint64_t kLeaf = 64;        // accounts per leaf directory
  static constexpr uint64_t kInitial = 1000;
  static constexpr uint64_t kCheckpointEvery = 4096;  // thread 0's txns
  static constexpr uint64_t kTailTxns = 2048;

  explicit DebitCredit(uint64_t seed) : seed_(seed) {}

  StableHeapOptions Options() const override {
    StableHeapOptions o;
    o.mutator_threads = kThreads;
    return o;
  }

  void Setup(Client* c) override {
    acct_cls_ = c->RegisterClass({false, false});  // balance, account id
    leaf_cls_ = c->RegisterClass(std::vector<bool>(kLeaf, true));
    dir_cls_ = c->RegisterClass(std::vector<bool>(kAccounts / kLeaf, true));
    model_.assign(kThreads, std::vector<uint64_t>(kAccounts, kInitial));
    // One transaction per thread's accounts: set-up time is allocation
    // and promotion work, not a few hundred log forces.
    for (uint32_t t = 0; t < kThreads; ++t) {
      TxnId txn = c->Begin();
      Ref dir = c->Allocate(txn, dir_cls_, kAccounts / kLeaf);
      for (uint64_t l = 0; l < kAccounts / kLeaf; ++l) {
        Ref leaf = c->Allocate(txn, leaf_cls_, kLeaf);
        for (uint64_t i = 0; i < kLeaf; ++i) {
          Ref a = c->Allocate(txn, acct_cls_, 2);
          c->WriteScalar(txn, a, 0, kInitial);
          c->WriteScalar(txn, a, 1, AccountId(t, l * kLeaf + i));
          c->WriteRef(txn, leaf, i, a);
          c->Release(txn, a);
        }
        c->WriteRef(txn, dir, l, leaf);
        c->Release(txn, leaf);
      }
      c->SetRoot(txn, t, dir);
      c->Commit(txn);
    }
  }

  std::vector<LoopStats> Run(Client* c, uint64_t stream, uint64_t deadline_ns,
                             uint64_t max_txns) override {
    std::vector<LoopStats> stats(kThreads);
    std::vector<std::string> errors(kThreads);
    std::vector<std::thread> threads;
    for (uint32_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        try {
          Loop(c, t, stream, deadline_ns, max_txns, &stats[t]);
        } catch (const HeapError& e) {
          errors[t] = e.what;
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::string& e : errors) {
      if (!e.empty()) throw HeapError{e};
    }
    return stats;
  }

  void Tail(Client* c, uint64_t cycle) override {
    Rng rng(seed_, 1000 + cycle);
    for (uint64_t i = 0; i < kTailTxns; ++i) {
      Transfer(c, static_cast<uint32_t>(i % kThreads), &rng, &tail_);
    }
  }

  void Check(Client* c, Audit* audit) override {
    TxnId txn = c->Begin();
    uint64_t found = 0;
    uint64_t total = 0;
    for (uint32_t t = 0; t < kThreads; ++t) {
      Ref dir = c->GetRoot(txn, t);
      for (uint64_t l = 0; l < kAccounts / kLeaf; ++l) {
        Ref leaf = c->ReadRef(txn, dir, l);
        for (uint64_t i = 0; i < kLeaf; ++i) {
          const uint64_t a = l * kLeaf + i;
          Ref acct = c->ReadRef(txn, leaf, i);
          const uint64_t bal = c->ReadScalar(txn, acct, 0);
          const uint64_t id = c->ReadScalar(txn, acct, 1);
          audit->Expect(bal == model_[t][a] && id == AccountId(t, a),
                        "account " + std::to_string(t) + "/" +
                            std::to_string(a) + " differs from the model");
          total += bal;
          ++found;
          c->Release(txn, acct);
        }
        c->Release(txn, leaf);
      }
    }
    c->Commit(txn);
    uint64_t model_total = 0;
    for (const auto& m : model_) {
      for (uint64_t b : m) model_total += b;
    }
    audit->Expect(tail_.mismatches == 0,
                  "tail transfers read values that differ from the model");
    audit->Expect(found == kThreads * kAccounts, "reachable account count");
    audit->Expect(total == kThreads * kAccounts * kInitial,
                  "balances not conserved");
    audit->Expect(model_total == kThreads * kAccounts * kInitial,
                  "model balances not conserved");
  }

  void Perturb() override { model_[0][0] += 1; }
  bool Collects() const override { return false; }
  uint64_t CheckpointEvery() const override { return kCheckpointEvery; }

 private:
  static uint64_t AccountId(uint32_t t, uint64_t a) {
    return (uint64_t{t} << 32) | a;
  }

  void Loop(Client* c, uint32_t t, uint64_t stream, uint64_t deadline_ns,
            uint64_t max_txns, LoopStats* s) {
    Rng rng(seed_, stream + t);
    s->latency_ns.reserve(1 << 20);
    s->end_ns.reserve(1 << 20);
    while (s->committed < max_txns && NowNs() < deadline_ns) {
      if (t == 0 && s->committed > 0 && s->committed % kCheckpointEvery == 0) {
        c->Checkpoint();
      }
      const uint64_t start = NowNs();
      Transfer(c, t, &rng, s);
      s->Record(start, NowNs());
    }
  }

  /// Moves 1..100 units between two distinct accounts of thread `t`.
  /// Only thread `t` touches them, so no transfer waits on a lock.
  void Transfer(Client* c, uint32_t t, Rng* rng, LoopStats* s) {
    const uint64_t from = rng->Below(kAccounts);
    uint64_t to = rng->Below(kAccounts - 1);
    if (to >= from) ++to;
    const uint64_t amount = 1 + rng->Below(100);
    TxnId txn = c->Begin();
    Ref dir = c->GetRoot(txn, t);
    Ref fa = c->ReadRef(txn, c->ReadRef(txn, dir, from / kLeaf), from % kLeaf);
    Ref ta = c->ReadRef(txn, c->ReadRef(txn, dir, to / kLeaf), to % kLeaf);
    const uint64_t fbal = c->ReadScalar(txn, fa, 0);
    const uint64_t tbal = c->ReadScalar(txn, ta, 0);
    std::vector<uint64_t>& m = model_[t];
    if (fbal != m[from] || tbal != m[to]) ++s->mismatches;
    c->WriteScalar(txn, fa, 0, fbal - amount);
    c->WriteScalar(txn, ta, 0, tbal + amount);
    c->Commit(txn);
    m[from] -= amount;
    m[to] += amount;
  }

  const uint64_t seed_;
  ClassId acct_cls_ = 0, leaf_cls_ = 0, dir_cls_ = 0;
  std::vector<std::vector<uint64_t>> model_;  // [thread][account] balance
  LoopStats tail_;
};

// --------------------------------------------------------------------- OO7

class Oo7 final : public Workload {
 public:
  static constexpr uint64_t kParts = 1024;
  static constexpr uint64_t kLeaf = 64;  // parts per directory array
  static constexpr uint64_t kLinks = 3;
  static constexpr uint64_t kAtoms = 3;
  static constexpr uint64_t kHops = 16;
  static constexpr uint64_t kReplace = 4;  // parts replaced by odd txns
  static constexpr uint64_t kCheckpointEvery = 4096;
  static constexpr uint64_t kTailTxns = 1024;
  static constexpr uint64_t kTailWrites = 8;
  // Part slots: payload, links, atom refs, part number.
  static constexpr uint64_t kPayload = 0;
  static constexpr uint64_t kLink0 = 1;
  static constexpr uint64_t kAtom0 = kLink0 + kLinks;
  static constexpr uint64_t kPartNo = kAtom0 + kAtoms;
  static constexpr uint64_t kPartSlots = kPartNo + 1;

  Oo7(uint64_t seed, bool divided) : seed_(seed), divided_(divided) {}

  StableHeapOptions Options() const override {
    StableHeapOptions o;
    o.divided_heap = divided_;
    // Each all-stable flip makes about 3 slow transactions (the flip and
    // the next two). At 96 pages a flip comes every ~800 transactions, so
    // the slow ones fall inside p999 and well beyond p99; at 64 pages they
    // were 0.9% of all transactions, and p99 sat at their edge.
    o.stable_space_pages = 96;
    o.volatile_space_pages = 16;
    return o;
  }

  void Setup(Client* c) override {
    std::vector<bool> part_map(kPartSlots, false);
    for (uint64_t k = 0; k < kAtoms; ++k) part_map[kAtom0 + k] = true;
    part_cls_ = c->RegisterClass(part_map);
    atom_cls_ = c->RegisterClass({false, false});  // value, part number
    leaf_cls_ = c->RegisterClass(std::vector<bool>(kLeaf, true));
    top_cls_ = c->RegisterClass(std::vector<bool>(kParts / kLeaf, true));
    model_.resize(kParts);
    Rng rng(seed_, 100);
    TxnId txn = c->Begin();
    c->SetRoot(txn, 0, c->Allocate(txn, top_cls_, kParts / kLeaf));
    c->Commit(txn);
    // Four directory arrays per transaction: few log forces, and each
    // batch (about 37 KiB) fits the volatile area before promotion.
    for (uint64_t l = 0; l < kParts / kLeaf; ++l) {
      if (l % 4 == 0) txn = c->Begin();
      Ref leaf = c->Allocate(txn, leaf_cls_, kLeaf);
      for (uint64_t i = 0; i < kLeaf; ++i) {
        const uint64_t p = l * kLeaf + i;
        model_[p] = NewPart(&rng);
        Ref part = Build(c, txn, p, model_[p]);
        c->WriteRef(txn, leaf, i, part);
        c->Release(txn, part);
      }
      c->WriteRef(txn, c->GetRoot(txn, 0), l, leaf);
      c->Release(txn, leaf);
      if (l % 4 == 3) c->Commit(txn);
    }
  }

  std::vector<LoopStats> Run(Client* c, uint64_t stream, uint64_t deadline_ns,
                             uint64_t max_txns) override {
    std::vector<LoopStats> stats(1);
    LoopStats* s = &stats[0];
    s->latency_ns.reserve(1 << 20);
    s->end_ns.reserve(1 << 20);
    Rng rng(seed_, stream);
    while (s->committed < max_txns && NowNs() < deadline_ns) {
      if (s->committed > 0 && s->committed % kCheckpointEvery == 0) {
        c->Checkpoint();
      }
      const uint64_t start = NowNs();
      Txn(c, &rng, s->committed % 2 == 1, s);
      s->Record(start, NowNs());
    }
    return stats;
  }

  void Tail(Client* c, uint64_t cycle) override {
    Rng rng(seed_, 1000 + cycle);
    for (uint64_t i = 0; i < kTailTxns; ++i) {
      TxnId txn = c->Begin();
      Ref top = c->GetRoot(txn, 0);
      std::vector<std::pair<uint64_t, Part>> updates;
      for (uint64_t w = 0; w < kTailWrites; ++w) {
        const uint64_t p = rng.Below(kParts);
        Part next = model_[p];
        for (const auto& u : updates) {
          if (u.first == p) next = u.second;
        }
        next.payload = rng.Next() >> 1;
        const uint64_t k = rng.Below(kAtoms);
        next.atoms[k] = rng.Next() >> 1;
        Ref part = c->ReadRef(txn, c->ReadRef(txn, top, p / kLeaf), p % kLeaf);
        c->WriteScalar(txn, part, kPayload, next.payload);
        c->WriteScalar(txn, c->ReadRef(txn, part, kAtom0 + k), 0,
                       next.atoms[k]);
        updates.emplace_back(p, next);
      }
      c->Commit(txn);
      for (const auto& u : updates) model_[u.first] = u.second;
    }
  }

  void Check(Client* c, Audit* audit) override {
    TxnId txn = c->Begin();
    Ref top = c->GetRoot(txn, 0);
    uint64_t parts = 0, atoms = 0;
    for (uint64_t l = 0; l < kParts / kLeaf; ++l) {
      Ref leaf = c->ReadRef(txn, top, l);
      for (uint64_t i = 0; i < kLeaf; ++i) {
        const uint64_t p = l * kLeaf + i;
        const Part& m = model_[p];
        Ref part = c->ReadRef(txn, leaf, i);
        ++parts;
        bool same = c->ReadScalar(txn, part, kPayload) == m.payload &&
                    c->ReadScalar(txn, part, kPartNo) == p;
        for (uint64_t k = 0; k < kLinks; ++k) {
          same = same && c->ReadScalar(txn, part, kLink0 + k) == m.links[k];
        }
        for (uint64_t k = 0; k < kAtoms; ++k) {
          Ref atom = c->ReadRef(txn, part, kAtom0 + k);
          ++atoms;
          same = same && c->ReadScalar(txn, atom, 0) == m.atoms[k] &&
                 c->ReadScalar(txn, atom, 1) == p;
          c->Release(txn, atom);
        }
        audit->Expect(same, "part " + std::to_string(p) +
                                " differs from the model");
        c->Release(txn, part);
      }
      c->Release(txn, leaf);
    }
    c->Commit(txn);
    audit->Expect(parts == kParts, "reachable part count");
    audit->Expect(atoms == kParts * kAtoms, "reachable atom count");
  }

  void Perturb() override { model_[0].payload += 1; }
  bool Collects() const override { return true; }
  uint64_t CheckpointEvery() const override { return kCheckpointEvery; }

 private:
  struct Part {
    uint64_t payload = 0;
    uint64_t links[kLinks] = {};
    uint64_t atoms[kAtoms] = {};
  };

  static Part NewPart(Rng* rng) {
    Part p;
    p.payload = rng->Next() >> 1;
    for (uint64_t& l : p.links) l = rng->Below(kParts);
    for (uint64_t& a : p.atoms) a = rng->Next() >> 1;
    return p;
  }

  /// Allocates part `p` with its private atoms; returns the part.
  Ref Build(Client* c, TxnId txn, uint64_t p, const Part& m) {
    Ref part = c->Allocate(txn, part_cls_, kPartSlots);
    c->WriteScalar(txn, part, kPayload, m.payload);
    for (uint64_t k = 0; k < kLinks; ++k) {
      c->WriteScalar(txn, part, kLink0 + k, m.links[k]);
    }
    for (uint64_t k = 0; k < kAtoms; ++k) {
      Ref atom = c->Allocate(txn, atom_cls_, 2);
      c->WriteScalar(txn, atom, 0, m.atoms[k]);
      c->WriteScalar(txn, atom, 1, p);
      c->WriteRef(txn, part, kAtom0 + k, atom);
    }
    c->WriteScalar(txn, part, kPartNo, p);
    return part;
  }

  /// One transaction: a 16-link walk from a random part, checked against
  /// the model's walk; with `replace`, kReplace random parts are then
  /// replaced by new ones and the old ones become garbage.
  void Txn(Client* c, Rng* rng, bool replace, LoopStats* s) {
    uint64_t p = rng->Below(kParts);
    uint64_t mp = p;
    uint64_t sum = 0, model_sum = 0;
    TxnId txn = c->Begin();
    Ref top = c->GetRoot(txn, 0);
    for (uint64_t hop = 0; hop < kHops; ++hop) {
      Ref part = c->ReadRef(txn, c->ReadRef(txn, top, p / kLeaf), p % kLeaf);
      sum += c->ReadScalar(txn, part, kPayload);
      model_sum += model_[mp].payload;
      for (uint64_t k = 0; k < kAtoms; ++k) {
        sum += c->ReadScalar(txn, c->ReadRef(txn, part, kAtom0 + k), 0);
        model_sum += model_[mp].atoms[k];
      }
      const uint64_t k = rng->Below(kLinks);
      p = c->ReadScalar(txn, part, kLink0 + k) % kParts;
      mp = model_[mp].links[k];
    }
    if (sum != model_sum || p != mp) ++s->mismatches;
    std::vector<std::pair<uint64_t, Part>> replaced;
    if (replace) {
      for (uint64_t r = 0; r < kReplace; ++r) {
        const uint64_t q = rng->Below(kParts);
        const Part m = NewPart(rng);
        Ref leaf = c->ReadRef(txn, top, q / kLeaf);
        c->WriteRef(txn, leaf, q % kLeaf, Build(c, txn, q, m));
        replaced.emplace_back(q, m);
      }
    }
    c->Commit(txn);
    for (const auto& r : replaced) model_[r.first] = r.second;
  }

  const uint64_t seed_;
  const bool divided_;
  ClassId part_cls_ = 0, atom_cls_ = 0, leaf_cls_ = 0, top_cls_ = 0;
  std::vector<Part> model_;
};

// ------------------------------------------------------------------ driver

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string dir;
  bool self_check = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-check") {
      a->self_check = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--dir") {
      a->dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  if (a.workload == "debit_credit_4t") {
    return std::make_unique<DebitCredit>(a.seed);
  }
  if (a.workload == "oo7_divided") return std::make_unique<Oo7>(a.seed, true);
  if (a.workload == "oo7_all_stable") {
    return std::make_unique<Oo7>(a.seed, false);
  }
  return nullptr;
}

/// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return static_cast<double>(sorted[rank]);
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    values_[name] = {value, unit};
  }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [name, v] : values_) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    out.size() > 1 ? ", " : "", name.c_str(), v.first, v.second);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, const char*>> values_;
};

double PerTxn(uint64_t n, uint64_t txns) {
  return txns == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(txns);
}

[[maybe_unused]] double Mean(uint64_t ns, uint64_t calls) {
  return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
}

/// RNG streams of the timed loop and of the set-up's warm-up (plus the
/// thread number on debit_credit_4t); set-up draws from 100, tails from
/// 1000 + cycle.
constexpr uint64_t kLoopStream = 0;
constexpr uint64_t kWarmStream = 200;

/// The loop metrics are medians over this many equal windows of the loop,
/// by commit time. A disk stall that fills a few seconds of a run then
/// moves a window or two, not the run's figures.
constexpr uint64_t kWindows = 10;
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Crash/recover cycles per run. Every reopen replays the same tail, so
/// they do the same work; recovery_s is the fastest of them, because on a
/// shared machine the same work runs at two speeds about 1.5x apart (see
/// README) and a median of reopens flips between the two.
constexpr uint64_t kCrashCycles = 21;

int Main(int argc, char** argv) {
  const uint64_t process_start = NowNs();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--dir <scratch dir> [--self-check]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = MakeWorkload(args);
  if (!w) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  // The caller owns the directory and deletes it (run.py does, however the
  // run ends); a heap is only ever formatted in an empty one.
  std::error_code ec;
  if (std::filesystem::exists(args.dir, ec) &&
      !std::filesystem::is_empty(args.dir, ec)) {
    std::fprintf(stderr, "perfbench: %s is not empty\n", args.dir.c_str());
    return 2;
  }
  sheap::RealEnvOptions ropts;
  ropts.dir = args.dir;
  ProbeEnv env(Must(sheap::RealEnv::Create(ropts), "RealEnv::Create"),
               /*timed=*/PERFBENCH_TRACED);
  const StableHeapOptions opts = w->Options();
  const bool single = opts.mutator_threads == 1;
  const uint64_t env_ready = NowNs();

  std::unique_ptr<StableHeap> heap;
  {
#if PERFBENCH_TRACED
    ApiSpan span(kApiOpen);
#endif
    heap = Must(StableHeap::Open(&env, opts), "Open");
  }
  const uint64_t opened = NowNs();
  auto client = std::make_unique<Client>(heap.get(), single);
  w->Setup(client.get());
  const uint64_t populated = NowNs();
  client->Checkpoint();
  const uint64_t checkpointed = NowNs();
  // Warm-up: the workload's own transactions up to where the loop takes
  // its first flush checkpoint, then that checkpoint. It is the first to
  // write scattered pages, and so the first to start the buffer pool's
  // writer threads; a process that has had a second thread runs the heap
  // about 1.5x slower from then on (README). It also makes set-up a second
  // or two of work, not 20-170 ms of CPU that the VM ran at either of two
  // speeds.
  const std::vector<LoopStats> warm =
      w->Run(client.get(), kWarmStream, UINT64_MAX, w->CheckpointEvery());
  client->Checkpoint();
  const uint64_t setup_end = NowNs();
  const double setup_s = static_cast<double>(setup_end - process_start) / 1e9;
  std::fprintf(stderr,
               "perfbench: setup ms: env %.2f open %.2f populate %.2f "
               "checkpoint %.2f warm-up %.2f\n",
               (env_ready - process_start) / 1e6, (opened - env_ready) / 1e6,
               (populated - opened) / 1e6, (checkpointed - populated) / 1e6,
               (setup_end - checkpointed) / 1e6);

  // ---- timed closed loop
  Ledgers().Reset();
#if PERFBENCH_TRACED
  client->ResetPauses();
  const HeapCounters c0 = ReadCounters(heap.get());
#endif
  const sheap::LogDeviceStats log0 = env.log()->stats();
  const uint64_t flips0 = env.counts().flips.load();
  const uint64_t traps0 = env.counts().traps.load();
  const uint64_t start_ns = NowNs();
  std::vector<LoopStats> loops =
      w->Run(client.get(), kLoopStream,
             start_ns + static_cast<uint64_t>(args.seconds * 1e9), UINT64_MAX);
  const uint64_t loop_ns = NowNs() - start_ns;
  const sheap::LogDeviceStats log1 = env.log()->stats();
  const Ledger run_ledger = Ledgers().Merged();
#if PERFBENCH_TRACED
  const HeapCounters c1 = ReadCounters(heap.get());
  const GcPauses pauses = client->pauses();
#endif

  std::vector<uint64_t> lat;  // the whole loop's latencies
  std::vector<std::vector<uint64_t>> window_lat(kWindows);
  uint64_t committed = 0, mismatches = 0;
  for (const LoopStats& s : warm) mismatches += s.mismatches;
  for (const LoopStats& s : loops) {
    committed += s.committed;
    mismatches += s.mismatches;
    lat.insert(lat.end(), s.latency_ns.begin(), s.latency_ns.end());
    for (size_t i = 0; i < s.end_ns.size(); ++i) {
      const uint64_t w = std::min<uint64_t>(
          kWindows - 1, (s.end_ns[i] - start_ns) * kWindows / loop_ns);
      window_lat[w].push_back(s.latency_ns[i]);
    }
  }
  std::sort(lat.begin(), lat.end());
  std::vector<double> window_rate, window_p50, window_p99;
  for (std::vector<uint64_t>& v : window_lat) {
    std::sort(v.begin(), v.end());
    window_rate.push_back(static_cast<double>(v.size() * kWindows) * 1e9 /
                          static_cast<double>(loop_ns));
    window_p50.push_back(Percentile(v, 0.50) / 1e3);
    window_p99.push_back(Percentile(v, 0.99) / 1e3);
  }

  const uint64_t flips = env.counts().flips.load() - flips0;
  const uint64_t traps = env.counts().traps.load() - traps0;

  // ---- crash cycles: quiesce, checkpoint, fixed tail, crash, timed reopen
  Audit audit;
  audit.Expect(mismatches == 0,
               std::to_string(mismatches) + " transactions read values "
                                            "that differ from the model");
  // A collector flip protects the new to-space in the hardware mirror, so
  // the forwarding mapping sees every flip. Without a mirror only the
  // traced run can tell (it reads GcStats).
  if (w->Collects() && env.mapping() != nullptr) {
    audit.Expect(flips >= 1, "no stable collection ran");
  }
  std::vector<double> recovery_s;
  Ledger open_ledger;
#if PERFBENCH_TRACED
  RecoveryCounters rc;
#endif
  for (uint64_t cycle = 0; cycle < kCrashCycles; ++cycle) {
    client->FinishStableCollection();
    client->Checkpoint();
    w->Tail(client.get(), cycle);
    // Two totals reached by independent paths: the forwarding log's byte
    // count against the log file on disk. Every commit was forced, the log
    // file has no header, and truncation does not shrink it.
    const uint64_t file_bytes =
        std::filesystem::file_size(args.dir + "/wal.log", ec);
    audit.Expect(!ec && file_bytes == env.counts().log_bytes.load(),
                 "log file size " + std::to_string(file_bytes) +
                     " != bytes appended " +
                     std::to_string(env.counts().log_bytes.load()));
    // Nothing written back; every log byte not yet forced is torn off.
    Must(heap->SimulateCrash(
             sheap::CrashOptions{0.0, args.seed + cycle, UINT64_MAX}),
         "SimulateCrash");
    client.reset();
    heap.reset();
    Ledgers().Reset();
    const uint64_t open_start = NowNs();
    {
#if PERFBENCH_TRACED
      ApiSpan span(kApiOpen);
#endif
      heap = Must(StableHeap::Open(&env, opts), "reopen");
    }
    recovery_s.push_back(static_cast<double>(NowNs() - open_start) / 1e9);
    open_ledger.Add(Ledgers().Merged());
#if PERFBENCH_TRACED
    const RecoveryCounters r = ReadRecovery(heap.get());
    rc.log_bytes_read += r.log_bytes_read;
    rc.redo_records_applied += r.redo_records_applied;
#endif
    client = std::make_unique<Client>(heap.get(), single);
    if (args.self_check && cycle + 1 == kCrashCycles) w->Perturb();
    w->Check(client.get(), &audit);
  }

  Metrics m;
  const double txn_per_s = Median(window_rate);
  const double p50 = Median(window_p50);
  const double p99 = Median(window_p99);
#if PERFBENCH_TRACED
  // Too few samples per window for a p999: this one spans the whole loop.
  const double p999 = Percentile(lat, 0.999) / 1e3;
  // Device totals seen by the forwarding Env against the devices' own.
  const uint64_t txns = committed;
  const Ledger& L = run_ledger;
  audit.Expect(env.counts().log_bytes.load() ==
                   env.log()->stats().bytes_appended,
               "forwarding log bytes != LogDeviceStats.bytes_appended");
  audit.Expect(env.counts().log_forces.load() == env.log()->stats().forces,
               "forwarding log forces != LogDeviceStats.forces");
  audit.Expect(env.counts().page_writes.load() ==
                   env.disk()->stats().page_writes,
               "forwarding page writes != DiskStats.page_writes");
  audit.Expect(env.counts().page_reads.load() ==
                   env.disk()->stats().page_reads +
                       env.disk()->stats().fresh_reads,
               "forwarding page reads != DiskStats page + fresh reads");
  audit.Expect(c1.log_bytes - c0.log_bytes == log1.bytes_appended -
                                                  log0.bytes_appended,
               "HeapStats log bytes != LogDeviceStats log bytes");
  if (env.mapping() != nullptr) {
    audit.Expect(traps == c1.hw_barrier_traps - c0.hw_barrier_traps,
                 "forwarding mapping traps != GcStats.hw_barrier_traps");
  }
  if (w->Collects()) {
    audit.Expect(c1.stable_completed > c0.stable_completed,
                 "no stable collection completed");
  }
  uint64_t calls = 0;
  for (int a = kApiBegin; a <= kApiCommit; ++a) calls += L.api_count[a];
  const uint64_t reads = c1.pool_hits - c0.pool_hits;
  const uint64_t misses = c1.pool_misses - c0.pool_misses;
  const uint64_t fast = c1.barrier_fast_hits - c0.barrier_fast_hits;
  const uint64_t slow = c1.barrier_fast_misses - c0.barrier_fast_misses;
  m.Add("traced.txn_per_s", txn_per_s, "1/s");
  m.Add("traced.txn_p50_us", p50, "us");
  m.Add("traced.txn_p99_us", p99, "us");
  m.Add("traced.txn_p999_us", p999, "us");
  m.Add("core.read_ns", Mean(L.api_ns[kApiRead], L.api_count[kApiRead]), "ns");
  m.Add("core.write_ns", Mean(L.api_ns[kApiWrite], L.api_count[kApiWrite]), "ns");
  m.Add("core.begin_ns", Mean(L.api_ns[kApiBegin], L.api_count[kApiBegin]), "ns");
  m.Add("core.allocate_ns",
        Mean(L.api_ns[kApiAllocate], L.api_count[kApiAllocate]), "ns");
  m.Add("core.calls_per_txn", PerTxn(calls, txns), "count");
  m.Add("txn.lock_acquires_per_txn",
        PerTxn(c1.lock_acquires - c0.lock_acquires, txns), "count");
  m.Add("storage.pool_hit_ratio",
        reads + misses == 0 ? 0.0
                            : static_cast<double>(reads) / (reads + misses),
        "ratio");
  m.Add("core.commit_ns", Mean(L.api_ns[kApiCommit], L.api_count[kApiCommit]),
        "ns");
  m.Add("core.commit_self_ns",
        Mean(L.api_ns[kApiCommit] - L.DevNsUnder(kApiCommit),
             L.api_count[kApiCommit]),
        "ns");
  m.Add("wal.force_ns", Mean(L.DevNs(kDevLogForce), L.DevCount(kDevLogForce)),
        "ns");
  m.Add("wal.forces_per_txn", PerTxn(log1.forces - log0.forces, txns), "count");
  m.Add("wal.fdatasyncs_per_txn",
        PerTxn(log1.fdatasyncs - log0.fdatasyncs, txns), "count");
  m.Add("wal.append_ns",
        Mean(L.DevNs(kDevLogAppend), L.DevCount(kDevLogAppend)), "ns");
  m.Add("core.gate_handshakes_per_txn",
        PerTxn(c1.gate_handshakes - c0.gate_handshakes, txns), "count");
  m.Add("txn.lock_conflicts_per_txn",
        PerTxn(c1.lock_conflicts - c0.lock_conflicts, txns), "count");
  m.Add("gc.stable_collections",
        static_cast<double>(c1.stable_completed - c0.stable_completed),
        "count");
  m.Add("gc.stable_pause_ns", Mean(pauses.stable_ns, pauses.stable_calls),
        "ns");
  m.Add("gc.objects_copied_per_txn",
        PerTxn(c1.objects_copied - c0.objects_copied, txns), "count");
  m.Add("gc.volatile_collections",
        static_cast<double>(c1.volatile_completed - c0.volatile_completed),
        "count");
  m.Add("gc.volatile_pause_ns",
        Mean(pauses.volatile_ns, pauses.volatile_calls), "ns");
  m.Add("gc.barrier_traps_per_txn",
        PerTxn(c1.barrier_traps - c0.barrier_traps, txns), "count");
  m.Add("gc.barrier_fast_hit_ratio",
        fast + slow == 0 ? 0.0 : static_cast<double>(fast) / (fast + slow),
        "ratio");
  m.Add("storage.mapping_touch_ns",
        Mean(L.DevNs(kDevMapTouch), L.DevCount(kDevMapTouch)), "ns");
  m.Add("storage.mapping_protect_ns",
        Mean(L.DevNs(kDevMapProtect), L.DevCount(kDevMapProtect)), "ns");
  m.Add("storage.mapping_traps_per_txn", PerTxn(traps, txns), "count");
  m.Add("stability.promoted_objects_per_txn",
        PerTxn(c1.objects_promoted - c0.objects_promoted, txns), "count");
  m.Add("stability.promotion_commit_ns",
        Mean(pauses.promotion_ns, pauses.promotion_calls), "ns");
  // Recovery figures are means over the crash cycles.
  const Ledger& R = open_ledger;
  m.Add("recovery.log_read_ns",
        PerTxn(R.dev_ns[kApiOpen][kDevLogRead], kCrashCycles), "ns");
  m.Add("recovery.page_read_ns",
        PerTxn(R.dev_ns[kApiOpen][kDevDiskRead], kCrashCycles), "ns");
  m.Add("recovery.cpu_ns",
        PerTxn(R.api_ns[kApiOpen] - R.DevNsUnder(kApiOpen), kCrashCycles),
        "ns");
  m.Add("recovery.log_bytes_read", PerTxn(rc.log_bytes_read, kCrashCycles),
        "bytes");
  m.Add("recovery.redo_records_applied",
        PerTxn(rc.redo_records_applied, kCrashCycles), "count");
  m.Add("storage.disk_read_ns",
        Mean(R.DevNs(kDevDiskRead), R.DevCount(kDevDiskRead)), "ns");
  m.Add("core.checkpoint_ns",
        Mean(L.api_ns[kApiCheckpoint], L.api_count[kApiCheckpoint]), "ns");
#else
  (void)run_ledger;
  (void)traps;
  m.Add("setup_s", setup_s, "s");
  m.Add("txn_per_s", txn_per_s, "1/s");
  m.Add("txn_p50_us", p50, "us");
  m.Add("txn_p99_us", p99, "us");
  m.Add("recovery_s", *std::min_element(recovery_s.begin(), recovery_s.end()),
        "s");
  m.Add("log_bytes_per_txn",
        PerTxn(log1.bytes_appended - log0.bytes_appended, committed), "bytes");
#endif
  (void)setup_s;
  (void)recovery_s;

  std::fprintf(stderr, "perfbench: reopen ms:");
  for (double r : recovery_s) std::fprintf(stderr, " %.2f", r * 1e3);
  std::fprintf(stderr, "\nperfbench: window txn/s:");
  for (double r : window_rate) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr, "\nperfbench: window p50 us:");
  for (double r : window_p50) std::fprintf(stderr, " %.1f", r);
  std::fprintf(stderr, "\nperfbench: window p99 us:");
  for (double r : window_p99) std::fprintf(stderr, " %.1f", r);
  std::fprintf(stderr, "\n");
  for (const std::string& p : audit.problems) {
    std::fprintf(stderr, "audit: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": 0, \"metrics\": %s}\n",
              audit.problems.empty() ? "true" : "false", committed,
              m.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const perfbench::HeapError& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what.c_str());
    return 1;
  }
}
