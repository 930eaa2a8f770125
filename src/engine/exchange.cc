#include "engine/exchange.h"

#include <algorithm>

#include "exec/row_utils.h"

namespace stagedb::engine {

void ExchangeBuffer::BindProducer(Stage* stage, StageTask* task) {
  MutexLock lock(mu_);
  producers_.push_back({stage, task});
}

void ExchangeBuffer::BindConsumer(Stage* stage, StageTask* task) {
  MutexLock lock(mu_);
  consumers_.push_back({stage, task});
}

void ExchangeBuffer::WakeAll(const std::vector<Endpoint>& endpoints) {
  // Called outside mu_, so the buffer's critical sections stay short
  // (Activate takes the endpoint stage's lock). The endpoint vectors are
  // only appended to during query wiring (before any packet runs), so
  // reading them unlocked here is safe.
  for (const Endpoint& e : endpoints) {
    if (e.stage != nullptr && e.task != nullptr) e.stage->Activate(e.task);
  }
}

ExchangeBuffer::PushResult ExchangeBuffer::TryPush(RowBatch* batch) {
  bool was_empty = false;
  {
    MutexLock lock(mu_);
    if (closed_) return PushResult::kClosed;
    if (pages_.size() >= capacity_) return PushResult::kFull;
    was_empty = pages_.empty();
    pages_.push_back(std::move(*batch));
    if (returned_.empty()) {
      *batch = RowBatch{};
    } else {
      *batch = std::move(returned_.back());
      returned_.pop_back();
    }
    ++pages_pushed_;
  }
  batch->Truncate(0, morsel_rows_);
  // Parent activation: the empty -> non-empty transition wakes the parked
  // (or not yet activated) consumers. A consumer can only be parked when it
  // observed an empty buffer (the runtime re-checks CanMakeProgress just
  // before parking), so pushes onto a non-empty buffer need not wake
  // anyone — that keeps fan-in edges from multiplying stage-lock traffic by
  // their endpoint count. One push wakes ALL consumers:
  // a batch is popped whole, but with several consumers bound the batch may
  // be consumed "in pieces" across packets, and only the wake lets each
  // re-evaluate.
  if (was_empty) WakeAll(consumers_);
  return PushResult::kOk;
}

void ExchangeBuffer::MarkEof() {
  bool became_eof = false;
  {
    MutexLock lock(mu_);
    ++eof_marks_;
    // With at most one producer bound this is the classic single-producer
    // EOF; with M bound, the stream ends at the M-th mark (fan-in).
    if (eof_marks_ >= std::max<size_t>(1, producers_.size()) && !eof_) {
      eof_ = true;
      became_eof = true;
    }
  }
  // Only the mark that actually ends the stream can unblock a consumer
  // (AtEof needs eof_); earlier marks change nothing a parked packet polls.
  if (became_eof) WakeAll(consumers_);
}

void ExchangeBuffer::ForceEof() {
  {
    MutexLock lock(mu_);
    eof_ = true;
  }
  WakeAll(consumers_);
}

bool ExchangeBuffer::TryPop(RowBatch* out, bool* eof) {
  bool popped = false;
  bool was_full = false;
  RowBatch drained;  // freed outside the lock when no push wants it
  {
    MutexLock lock(mu_);
    *eof = false;
    if (!pages_.empty()) {
      was_full = pages_.size() >= capacity_;
      drained = std::move(*out);
      *out = std::move(pages_.front());
      pages_.pop_front();
      popped = true;
      if (returned_.size() < capacity_ &&
          !(drained.tuples.empty() && drained.spares.empty())) {
        returned_.push_back(std::move(drained));
      }
    } else if (eof_ || closed_) {
      // Closed counts as end of stream: Close() discards the buffered
      // batches and guarantees no producer will deliver more, so a consumer
      // still polling this edge must not wait for producer EOF marks.
      *eof = true;
    }
  }
  // Space freed: the full -> not-full transition wakes producers parked on
  // back-pressure (a producer can only be parked when it observed a full
  // buffer, mirroring the consumer-side argument in TryPush).
  if (popped && was_full) WakeAll(producers_);
  return popped;
}

void ExchangeBuffer::Close() {
  {
    MutexLock lock(mu_);
    closed_ = true;
    pages_.clear();
    returned_.clear();
  }
  WakeAll(producers_);
  // Lost-wakeup fix: with several consumers bound, the closing consumer
  // must wake its siblings — after Close no push (and possibly no MarkEof:
  // a producer seeing kClosed finishes early) will ever arrive, so a parked
  // sibling would otherwise sleep forever. They observe AtEof (closed ==
  // end of stream) and retire.
  WakeAll(consumers_);
}

bool ExchangeBuffer::HasData() const {
  MutexLock lock(mu_);
  return !pages_.empty();
}

bool ExchangeBuffer::AtEof() const {
  MutexLock lock(mu_);
  return pages_.empty() && (eof_ || closed_);
}

bool ExchangeBuffer::HasSpaceOrClosed() const {
  MutexLock lock(mu_);
  return closed_ || pages_.size() < capacity_;
}

bool ExchangeBuffer::closed() const {
  MutexLock lock(mu_);
  return closed_;
}

int64_t ExchangeBuffer::pages_pushed() const {
  MutexLock lock(mu_);
  return pages_pushed_;
}

// ---------------------------------------------------------- SpscRingBuffer --

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

SpscRingBuffer::SpscRingBuffer(size_t capacity_pages, size_t morsel_rows)
    : ExchangeBuffer(capacity_pages, morsel_rows),
      mask_(RoundUpPow2(std::max<size_t>(1, capacity_pages)) - 1),
      slots_(mask_ + 1) {}

void SpscRingBuffer::WakeConsumerIfWaiting() {
  // Dekker handshake, all-seq_cst-accesses form: the caller published its
  // state change with a seq_cst store (tail_ in TryPush), the parking
  // consumer arms its flag with a seq_cst store before re-checking that
  // state with a seq_cst load (HasData/AtEof). The seq_cst total order
  // forbids the store-buffering outcome where both sides read the old
  // values, so either this load sees the armed flag or the consumer's
  // re-check sees the new state. Deliberately *not* the fence+relaxed-load
  // form: on x86 this load is a plain MOV and the caller's seq_cst store an
  // XCHG, which together are cheaper than an mfence on every push.
  if (consumer_waiting_.load(std::memory_order_seq_cst)) {
    consumer_waiting_.store(false, std::memory_order_relaxed);
    WakeAll(consumers_);
  }
}

void SpscRingBuffer::WakeProducerIfWaiting() {
  // Mirror of WakeConsumerIfWaiting; the caller's seq_cst store is head_ in
  // TryPop, the arming side is HasSpaceOrClosed.
  if (producer_waiting_.load(std::memory_order_seq_cst)) {
    producer_waiting_.store(false, std::memory_order_relaxed);
    WakeAll(producers_);
  }
}

ExchangeBuffer::PushResult SpscRingBuffer::TryPush(RowBatch* batch) {
  if (closed_.load(std::memory_order_acquire)) return PushResult::kClosed;
  const uint64_t tail = tail_.load(std::memory_order_relaxed);
  if (tail - head_.load(std::memory_order_acquire) > mask_) {
    return PushResult::kFull;
  }
  // The slot holds the batch the consumer handed back when it last popped
  // this slot; the swap gives it to the producer.
  std::swap(slots_[tail & mask_], *batch);
  // seq_cst (not just release): the publication store is the first half of
  // the Dekker pair in WakeConsumerIfWaiting below.
  tail_.store(tail + 1, std::memory_order_seq_cst);
  // Single-writer counter: a relaxed load+store is a plain increment, not a
  // locked RMW — fetch_add would cost another full barrier on the hot path.
  pushed_.store(pushed_.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
  if (tail == 0) {
    // Bottom-up activation: the very first push must wake unconditionally —
    // a consumer packet that has never run (the engine only enqueues leaves;
    // parents wait for their first input) has never armed the waiting flag.
    // From then on the consumer is live and every park arms the flag.
    WakeAll(consumers_);
  } else {
    WakeConsumerIfWaiting();
  }
  batch->Truncate(0, morsel_rows_);
  return PushResult::kOk;
}

void SpscRingBuffer::MarkEof() {
  // Single producer: the first (only) mark ends the stream. The release
  // store orders it after every batch publication, and TryPop reads the
  // flag before the tail so the final batch is never skipped. Wakes
  // unconditionally: an empty stream's consumer may never have been
  // activated at all (see TryPush), and EOF is once-per-stream so the
  // unconditional stage-lock hop costs nothing measurable.
  eof_.store(true, std::memory_order_release);
  WakeAll(consumers_);
}

void SpscRingBuffer::ForceEof() {
  eof_.store(true, std::memory_order_release);
  WakeAll(consumers_);
}

bool SpscRingBuffer::TryPop(RowBatch* out, bool* eof) {
  *eof = false;
  // Cancellation wins over buffered data, matching the mutex buffer (which
  // drops its pages under the lock in Close): a closed ring never delivers.
  // The undelivered slots are reclaimed when the ring is destroyed with its
  // query — clearing them here would race a Fail()-initiated close on
  // another thread against this consumer.
  if (closed_.load(std::memory_order_acquire)) {
    *eof = true;
    return false;
  }
  const uint64_t head = head_.load(std::memory_order_relaxed);
  // Read end-of-stream BEFORE the tail: MarkEof stores eof after the last
  // batch's tail publication, so observing eof==true here guarantees the
  // subsequent tail load sees every batch — the reverse order could report
  // EOF while the final batch is still invisible.
  const bool end = EndOfStream();
  if (head == tail_.load(std::memory_order_acquire)) {
    *eof = end;
    return false;
  }
  // The drained batch stays in the slot until the producer's next push into
  // it takes it back.
  std::swap(*out, slots_[head & mask_]);
  // seq_cst: first half of the Dekker pair in WakeProducerIfWaiting.
  head_.store(head + 1, std::memory_order_seq_cst);
  WakeProducerIfWaiting();
  return true;
}

void SpscRingBuffer::Close() {
  // The slots stay untouched (only the endpoints may touch them; the
  // remaining batches are reclaimed when the ring is destroyed with its
  // query). Producers see kClosed on the next push; a sibling-less parked
  // consumer — or the peer of a Fail()-initiated close — sees end of
  // stream.
  closed_.store(true, std::memory_order_seq_cst);
  WakeAll(producers_);
  WakeAll(consumers_);
}

bool SpscRingBuffer::HasData() const {
  if (head_.load(std::memory_order_relaxed) !=
      tail_.load(std::memory_order_acquire)) {
    return true;
  }
  // Empty: the consumer is about to park. Arm the waiting flag (seq_cst),
  // then re-check with a seq_cst load — the producer's post-push flag read
  // sees the armed flag unless this re-check already sees the push (the
  // all-seq_cst Dekker pair; see WakeConsumerIfWaiting). This is the slow
  // path (a park/unpark is coming either way), so the XCHG the seq_cst
  // store costs here is irrelevant.
  consumer_waiting_.store(true, std::memory_order_seq_cst);
  return head_.load(std::memory_order_relaxed) !=
         tail_.load(std::memory_order_seq_cst);
}

bool SpscRingBuffer::AtEof() const {
  if (!EndOfStream()) {
    // Not ended yet — arm the flag so a concurrent MarkEof/ForceEof/Close
    // wakes the consumer that is about to park on this answer (those three
    // wake unconditionally, so the flag is belt-and-braces here).
    consumer_waiting_.store(true, std::memory_order_seq_cst);
    if (!EndOfStream()) return false;
  }
  return head_.load(std::memory_order_relaxed) ==
         tail_.load(std::memory_order_seq_cst);
}

bool SpscRingBuffer::HasSpaceOrClosed() const {
  if (closed_.load(std::memory_order_acquire)) return true;
  if (tail_.load(std::memory_order_relaxed) -
          head_.load(std::memory_order_acquire) <=
      mask_) {
    return true;
  }
  // Full: the producer is about to park. Same all-seq_cst handshake; the
  // consumer side's seq_cst head_ publication is in TryPop.
  producer_waiting_.store(true, std::memory_order_seq_cst);
  return closed_.load(std::memory_order_seq_cst) ||
         tail_.load(std::memory_order_relaxed) -
                 head_.load(std::memory_order_seq_cst) <=
             mask_;
}

bool SpscRingBuffer::closed() const {
  return closed_.load(std::memory_order_acquire);
}

int64_t SpscRingBuffer::pages_pushed() const {
  return pushed_.load(std::memory_order_relaxed);
}

// ----------------------------------------------------- PartitionedExchange --

StatusOr<size_t> PartitionedExchange::PartitionOf(const catalog::Tuple& tuple,
                                                  uint64_t* rr_cursor) const {
  const size_t n = partitions_.size();
  if (!key_columns_.empty()) {
    for (size_t c : key_columns_) {
      if (c >= tuple.size()) {
        return Status::Internal("partition key column out of range");
      }
    }
    return exec::HashColumns(tuple, key_columns_) % n;
  }
  if (!key_exprs_.empty()) {
    size_t h = exec::kKeyHashSeed;
    for (const optimizer::BoundExpr* expr : key_exprs_) {
      auto v = optimizer::Eval(*expr, tuple);
      if (!v.ok()) return v.status();
      h = exec::HashFold(h, *v);
    }
    return h % n;
  }
  return (*rr_cursor)++ % n;
}

Status PartitionedExchange::ScatterBatch(RowBatch* batch, uint64_t* rr_cursor,
                                         std::vector<RowBatch>* staging,
                                         std::vector<uint32_t>* route) const {
  // Route pass first (a tight loop over the batch, no buffer traffic), then
  // the scatter moves each tuple into its partition's staging batch. `route`
  // is caller-owned scratch: the exchange object is shared by every producer
  // of the edge, so it keeps no mutable state of its own.
  const size_t n = batch->size();
  route->resize(n);
  for (size_t i = 0; i < n; ++i) {
    auto p = PartitionOf(batch->tuples[i], rr_cursor);
    if (!p.ok()) return p.status();
    (*route)[i] = static_cast<uint32_t>(*p);
  }
  for (size_t i = 0; i < n; ++i) {
    (*staging)[(*route)[i]].push_back(std::move(batch->tuples[i]));
  }
  batch->clear();
  return Status::OK();
}

}  // namespace stagedb::engine
