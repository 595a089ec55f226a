#include "probe.h"

namespace perfbench {

void Ledger::Add(const Ledger& o) {
  for (int a = 0; a < kApiCount; ++a) {
    api_count[a] += o.api_count[a];
    api_ns[a] += o.api_ns[a];
    for (int d = 0; d < kDevCount; ++d) {
      dev_count[a][d] += o.dev_count[a][d];
      dev_ns[a][d] += o.dev_ns[a][d];
    }
  }
}

uint64_t Ledger::DevNsUnder(Api a) const {
  uint64_t ns = 0;
  for (int d = 0; d < kDevCount; ++d) ns += dev_ns[a][d];
  return ns;
}

uint64_t Ledger::DevNs(Dev d) const {
  uint64_t ns = 0;
  for (int a = 0; a < kApiCount; ++a) ns += dev_ns[a][d];
  return ns;
}

uint64_t Ledger::DevCount(Dev d) const {
  uint64_t n = 0;
  for (int a = 0; a < kApiCount; ++a) n += dev_count[a][d];
  return n;
}

Ledger* LedgerSet::ForThisThread() {
  thread_local Ledger* mine = nullptr;
  if (mine == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    ledgers_.push_back(std::make_unique<Ledger>());
    mine = ledgers_.back().get();
  }
  return mine;
}

Ledger LedgerSet::Merged() const {
  std::lock_guard<std::mutex> lock(mu_);
  Ledger all;
  for (const auto& l : ledgers_) all.Add(*l);
  return all;
}

void LedgerSet::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& l : ledgers_) *l = Ledger();
}

LedgerSet& Ledgers() {
  static LedgerSet set;
  return set;
}

ApiSpan*& CurrentSpan() {
  thread_local ApiSpan* current = nullptr;
  return current;
}

namespace {

/// A device call: a child span of the calling thread's current API span.
class DevSpan {
 public:
  DevSpan(bool timed, Dev dev) : dev_(dev), start_(timed ? NowNs() : 0) {}
  ~DevSpan() {
    if (start_ == 0) return;
    const uint64_t ns = NowNs() - start_;
    const ApiSpan* parent = CurrentSpan();
    const Api api = parent != nullptr ? parent->api : kApiNone;
    Ledger* l = Ledgers().ForThisThread();
    ++l->dev_count[api][dev_];
    l->dev_ns[api][dev_] += ns;
  }
  DevSpan(const DevSpan&) = delete;
  DevSpan& operator=(const DevSpan&) = delete;

 private:
  Dev dev_;
  uint64_t start_;
};

}  // namespace

class ProbeEnv::Disk final : public sheap::Disk {
 public:
  Disk(sheap::Disk* inner, DeviceCounts* counts, bool timed)
      : inner_(inner), counts_(counts), timed_(timed) {}

  sheap::Status ReadPage(sheap::PageId pid, sheap::PageImage* out) override {
    DevSpan span(timed_, kDevDiskRead);
    counts_->page_reads.fetch_add(1, std::memory_order_relaxed);
    return inner_->ReadPage(pid, out);
  }
  sheap::Status WritePage(sheap::PageId pid,
                          const sheap::PageImage& image) override {
    DevSpan span(timed_, kDevDiskWrite);
    counts_->page_writes.fetch_add(1, std::memory_order_relaxed);
    return inner_->WritePage(pid, image);
  }
  sheap::Status WritePageRun(sheap::PageId first,
                             const sheap::PageImage* const* images,
                             size_t n) override {
    DevSpan span(timed_, kDevDiskWrite);
    counts_->page_writes.fetch_add(n, std::memory_order_relaxed);
    return inner_->WritePageRun(first, images, n);
  }
  void DropPage(sheap::PageId pid) override { inner_->DropPage(pid); }
  bool Exists(sheap::PageId pid) const override { return inner_->Exists(pid); }
  size_t PageCount() const override { return inner_->PageCount(); }
  sheap::DiskStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  sheap::FaultInjector* faults() const override { return inner_->faults(); }
  sheap::SimClock* clock() const override { return inner_->clock(); }

 private:
  sheap::Disk* inner_;
  DeviceCounts* counts_;
  bool timed_;
};

class ProbeEnv::Log final : public sheap::LogDevice {
 public:
  Log(sheap::LogDevice* inner, DeviceCounts* counts, bool timed)
      : inner_(inner), counts_(counts), timed_(timed) {}

  sheap::Status Append(const uint8_t* data, size_t n) override {
    DevSpan span(timed_, kDevLogAppend);
    counts_->log_bytes.fetch_add(n, std::memory_order_relaxed);
    return inner_->Append(data, n);
  }
  sheap::Status AppendAsync(const uint8_t* data, size_t n) override {
    DevSpan span(timed_, kDevLogAppend);
    counts_->log_bytes.fetch_add(n, std::memory_order_relaxed);
    return inner_->AppendAsync(data, n);
  }
  void Force() override {
    DevSpan span(timed_, kDevLogForce);
    counts_->log_forces.fetch_add(1, std::memory_order_relaxed);
    inner_->Force();
  }
  uint64_t size() const override { return inner_->size(); }
  sheap::Status ReadAt(uint64_t offset, size_t n,
                       uint8_t* out) const override {
    DevSpan span(timed_, kDevLogRead);
    return inner_->ReadAt(offset, n, out);
  }
  void SetMasterLsn(sheap::Lsn lsn) override {
    DevSpan span(timed_, kDevLogOther);
    inner_->SetMasterLsn(lsn);
  }
  sheap::Lsn master_lsn() const override { return inner_->master_lsn(); }
  void TruncatePrefix(uint64_t offset) override {
    DevSpan span(timed_, kDevLogOther);
    inner_->TruncatePrefix(offset);
  }
  uint64_t truncated_prefix() const override {
    return inner_->truncated_prefix();
  }
  void MarkDurableBarrier() override {
    DevSpan span(timed_, kDevLogBarrier);
    inner_->MarkDurableBarrier();
  }
  uint64_t durable_barrier() const override {
    return inner_->durable_barrier();
  }
  void TearTail(size_t n) override {
    DevSpan span(timed_, kDevLogOther);
    inner_->TearTail(n);
  }
  sheap::FaultInjector* faults() const override { return inner_->faults(); }
  sheap::LogDeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  sheap::LogDevice* inner_;
  DeviceCounts* counts_;
  bool timed_;
};

class ProbeEnv::Mapping final : public sheap::HeapMapping {
 public:
  Mapping(sheap::HeapMapping* inner, DeviceCounts* counts, bool timed)
      : inner_(inner), counts_(counts), timed_(timed) {}

  uint64_t capacity_pages() const override { return inner_->capacity_pages(); }
  void Protect(sheap::PageId first, uint64_t count) override {
    DevSpan span(timed_, kDevMapProtect);
    counts_->flips.fetch_add(1, std::memory_order_relaxed);
    inner_->Protect(first, count);
  }
  void Unprotect(sheap::PageId first, uint64_t count) override {
    DevSpan span(timed_, kDevMapProtect);
    inner_->Unprotect(first, count);
  }
  bool Touch(sheap::PageId pid) override {
    DevSpan span(timed_, kDevMapTouch);
    const bool trapped = inner_->Touch(pid);
    if (trapped) counts_->traps.fetch_add(1, std::memory_order_relaxed);
    return trapped;
  }
  uint64_t trap_count() const override { return inner_->trap_count(); }

 private:
  sheap::HeapMapping* inner_;
  DeviceCounts* counts_;
  bool timed_;
};

ProbeEnv::ProbeEnv(std::unique_ptr<sheap::Env> inner, bool timed)
    : inner_(std::move(inner)) {
  disk_ = std::make_unique<Disk>(inner_->disk(), &counts_, timed);
  log_ = std::make_unique<Log>(inner_->log(), &counts_, timed);
  if (inner_->mapping() != nullptr) {
    mapping_ = std::make_unique<Mapping>(inner_->mapping(), &counts_, timed);
  }
}

ProbeEnv::~ProbeEnv() = default;

sheap::Disk* ProbeEnv::disk() { return disk_.get(); }
sheap::LogDevice* ProbeEnv::log() { return log_.get(); }
sheap::HeapMapping* ProbeEnv::mapping() { return mapping_.get(); }

}  // namespace perfbench
