// Page-based producer-consumer dataflow between operator stages (§4.1.2):
// "Dataflow takes place through the use of intermediate result buffers and
//  page-based data exchange using a producer-consumer type of operator/stage
//  communication."
//
// The unit of exchange is a RowBatch — a cache-friendly morsel of tuples.
// Operators consume and produce whole batches (the batch ABI, docs/DESIGN.md
// §9), so the per-tuple synchronization tax the paper's Figures 1–2 measure
// is paid once per batch instead of once per row.
//
// Partitioned intra-query parallelism (§4.3) extends the same machinery:
// a buffer may have several producers (fan-in: N partition packets merging
// into one consumer; end-of-stream is reached when every producer has marked
// EOF) and several consumers (fan-out wake-up), and a PartitionedExchange
// groups N partition buffers behind one hash partition function so a
// producer can spread its output across N parallel operator packets.
//
// Exchange edges come in two implementations behind one interface:
//   * ExchangeBuffer    — the mutex-guarded deque. Handles any endpoint
//                         shape (MxN fan-in/fan-out) and is the fallback.
//   * SpscRingBuffer    — a lock-free bounded power-of-two ring for the hot
//                         1-producer/1-consumer edges (the overwhelmingly
//                         common DOP=1 shape and every scatter edge of a
//                         1->N fan-out). Acquire/release atomics on the
//                         ring indices; parking coordination through
//                         Dekker-style waiting flags (see the .cc).
// The Submit builder picks the implementation per edge; bench/
// exchange_pingpong measures the swap in isolation.
//
// Rows circulate: a consumer's next pop hands the rows it drained back to
// the edge, and a producer's push receives them as RowBatch spares (at most
// one morsel per batch), so a scan's rows are allocated once per edge slot
// and refilled, not allocated on one worker and freed on another.
#ifndef STAGEDB_ENGINE_EXCHANGE_H_
#define STAGEDB_ENGINE_EXCHANGE_H_

#include <atomic>
#include <deque>
#include <vector>

#include "catalog/tuple.h"
#include "common/mutex.h"
#include "engine/runtime.h"
#include "exec/row_utils.h"
#include "optimizer/bound_expr.h"

namespace stagedb::engine {

using exec::RowBatch;

/// A bounded buffer of batches between producer and consumer operator
/// instances. Non-blocking on both sides: a full buffer makes the producer
/// yield its packet (back-pressure), an empty one parks the consumer; pushes
/// and pops wake the peers through Stage::Activate (the paper's "checks for
/// parent activation" step).
///
/// This class is both the interface every exchange edge implements and the
/// mutex-guarded implementation that serves as the general fallback (any
/// number of producers and consumers). SpscRingBuffer below overrides the
/// data path with a lock-free ring for 1:1 edges.
///
/// Endpoints: Bind{Producer,Consumer} may each be called several times — a
/// partitioned plan wires M producer packets and (for fan-out buffers) the
/// partition's consumer packet. With M producers bound, the stream ends when
/// all M have called MarkEof; with zero or one bound (the DOP=1 wiring and
/// unit tests), a single MarkEof ends it, exactly the pre-parallelism
/// semantics.
class ExchangeBuffer {
 public:
  /// `morsel_rows` bounds the spare rows a push hands back to its producer.
  explicit ExchangeBuffer(size_t capacity_pages,
                          size_t morsel_rows = exec::kDefaultMorselRows)
      : capacity_(capacity_pages), morsel_rows_(morsel_rows) {}
  virtual ~ExchangeBuffer() = default;

  /// Which data path this edge runs on (monitoring / tests; the Submit
  /// builder records its per-edge choice here implicitly).
  enum class Impl { kMutex, kSpscRing };
  virtual Impl impl() const { return Impl::kMutex; }

  /// Registers a producer endpoint so pops can wake packets parked on
  /// back-pressure. Each registered producer is expected to MarkEof exactly
  /// once.
  void BindProducer(Stage* stage, StageTask* task);
  /// Registers a consumer endpoint so pushes / EOF can wake packets parked
  /// on an empty buffer.
  void BindConsumer(Stage* stage, StageTask* task);

  enum class PushResult { kOk, kFull, kClosed };

  /// Offers a batch; consumes *batch only on kOk. kFull = back-pressure (the
  /// caller keeps the batch and re-enqueues its packet); kClosed = the
  /// consumer no longer wants data (caller should finish early). A
  /// zero-capacity buffer rejects every push with kFull (kClosed once
  /// closed); the engine therefore never creates one. On kOk, *batch comes
  /// back with no tuples and, as spares, up to one morsel of rows that a
  /// consumer drained.
  [[nodiscard]] virtual PushResult TryPush(RowBatch* batch);

  /// Marks end-of-stream for one producer and, once every bound producer has
  /// done so (or immediately when at most one is bound), activates the
  /// consumers.
  virtual void MarkEof();

  /// Unconditional end-of-stream, regardless of how many producers have
  /// reported: used by query cancellation (StagedQuery::Fail), where waiting
  /// for M producer EOFs could deadlock against the failure being delivered.
  virtual void ForceEof();

  /// Takes the next batch if available. Returns false with *eof=false when
  /// the buffer is momentarily empty, false with *eof=true at end of stream.
  /// On success the rows *out held before (the consumer's drained batch)
  /// go back to the edge for a producer to refill.
  /// A closed buffer reports end of stream once drained: closed means no
  /// further data will ever be delivered, so a parked peer consumer must not
  /// wait for an EOF mark that will never come (see Close).
  [[nodiscard]] virtual bool TryPop(RowBatch* out, bool* eof);

  /// Consumer-side cancellation (e.g. LIMIT satisfied): discards buffered
  /// batches and makes future pushes return kClosed. Wakes producers parked
  /// on back-pressure AND consumers parked on empty — with several consumers
  /// bound, one consumer closing the edge must not leave its siblings parked
  /// forever waiting for data the producers will no longer send.
  virtual void Close();

  virtual bool HasData() const;
  virtual bool AtEof() const;  // drained and (eof or closed)
  virtual bool HasSpaceOrClosed() const;
  virtual bool closed() const;

  virtual int64_t pages_pushed() const;

  size_t capacity_pages() const { return capacity_; }

 protected:
  struct Endpoint {
    Stage* stage = nullptr;
    StageTask* task = nullptr;
  };

  void WakeAll(const std::vector<Endpoint>& endpoints);

  const size_t capacity_;
  const size_t morsel_rows_;
  // Endpoint vectors are appended to only during query wiring (before any
  // packet runs) and read unlocked by WakeAll afterwards.
  std::vector<Endpoint> producers_;
  std::vector<Endpoint> consumers_;

 private:
  mutable Mutex mu_;
  std::deque<RowBatch> pages_ GUARDED_BY(mu_);
  // Drained batches consumers handed back, for the next pushes (at most
  // capacity_ of them).
  std::vector<RowBatch> returned_ GUARDED_BY(mu_);
  bool eof_ GUARDED_BY(mu_) = false;
  bool closed_ GUARDED_BY(mu_) = false;
  size_t eof_marks_ GUARDED_BY(mu_) = 0;  // producers that have MarkEof'd
  int64_t pages_pushed_ GUARDED_BY(mu_) = 0;
};

/// Lock-free single-producer / single-consumer exchange edge: a bounded
/// power-of-two ring of RowBatch slots. The producer owns tail_, the
/// consumer owns head_; publication is release-store / acquire-load on the
/// indices, so the hot push/pop path takes no lock and touches no shared
/// cacheline beyond the two indices.
///
/// Parking coordination (the staged runtime parks a packet that reports
/// kBlocked) cannot ride a stage lock from the fast path without
/// reintroducing the lock. Instead each side arms a waiting flag before its
/// final emptiness/fullness re-check (HasData / HasSpaceOrClosed / AtEof are
/// exactly the re-checks CanMakeProgress issues just before parking), and
/// the opposite side reads the flag after publishing its index — all four
/// accesses seq_cst, so the store-buffering outcome where both sides read
/// stale values is forbidden and at least one of {parker re-check, waker
/// flag-read} observes the other's store; a wake is never lost (Dekker/
/// eventcount pattern; regression-tested under TSan). EOF and Close wake
/// unconditionally — they are once-per-stream and must reach a consumer
/// that has never run (bottom-up activation), as must the first push.
///
/// Cancellation (Close / ForceEof) works through atomic flags and may be
/// called from any thread; the data slots themselves are only ever touched
/// by the two owning endpoints. Capacity is rounded up to a power of two.
///
/// A pop swaps the consumer's drained batch into the slot it empties, and
/// the push that next fills that slot swaps it out to the producer, so rows
/// go back upstream without any shared state beyond the two indices.
class SpscRingBuffer : public ExchangeBuffer {
 public:
  explicit SpscRingBuffer(size_t capacity_pages,
                          size_t morsel_rows = exec::kDefaultMorselRows);

  Impl impl() const override { return Impl::kSpscRing; }
  /// Actual slot count (capacity_pages rounded up to a power of two).
  size_t ring_capacity() const { return mask_ + 1; }

  [[nodiscard]] PushResult TryPush(RowBatch* batch) override;
  void MarkEof() override;
  void ForceEof() override;
  [[nodiscard]] bool TryPop(RowBatch* out, bool* eof) override;
  void Close() override;

  bool HasData() const override;
  bool AtEof() const override;
  bool HasSpaceOrClosed() const override;
  bool closed() const override;
  int64_t pages_pushed() const override;

 private:
  bool EndOfStream() const {
    return eof_.load(std::memory_order_acquire) ||
           closed_.load(std::memory_order_acquire);
  }
  void WakeConsumerIfWaiting();
  void WakeProducerIfWaiting();

  const size_t mask_;
  std::vector<RowBatch> slots_;
  // Separate cachelines: head_ is written by the consumer, tail_ by the
  // producer; sharing a line would make every push/pop a coherence miss.
  alignas(64) std::atomic<uint64_t> head_{0};  // next slot to pop
  alignas(64) std::atomic<uint64_t> tail_{0};  // next slot to fill
  alignas(64) std::atomic<bool> eof_{false};
  std::atomic<bool> closed_{false};
  std::atomic<int64_t> pushed_{0};
  // Waiting flags for the park/wake handshake; mutable because the arming
  // re-checks (HasData & co.) are const.
  mutable std::atomic<bool> consumer_waiting_{false};
  mutable std::atomic<bool> producer_waiting_{false};
};

/// Hash fan-out for partitioned intra-query parallelism (§4.3): routes each
/// tuple of a producer's output to one of N partition exchange edges, so the
/// N packets of a parallel hash-join or partial-aggregation each receive a
/// disjoint, key-complete share of the stream.
///
/// The partition function is the hash of the partition key — either key
/// *columns* (equi-join keys: both join inputs hash with exec::HashColumns,
/// so matching keys always meet in the same partition) or key *expressions*
/// (group-by exprs of a partial aggregation) — taken modulo N. With no key
/// (a global aggregate), tuples are dealt round-robin from a caller-held
/// cursor. Does not own the buffers: they live in StagedQuery::buffers with
/// every other exchange buffer so cancellation closes them uniformly.
class PartitionedExchange {
 public:
  explicit PartitionedExchange(std::vector<ExchangeBuffer*> partitions)
      : partitions_(std::move(partitions)) {}

  /// Partition on the hash of these column positions of the input tuple.
  void SetKeyColumns(std::vector<size_t> columns) {
    key_columns_ = std::move(columns);
  }
  /// Partition on the hash of these expressions evaluated over the input
  /// tuple (pointers must outlive the exchange; they point into the plan).
  void SetKeyExprs(std::vector<const optimizer::BoundExpr*> exprs) {
    key_exprs_ = std::move(exprs);
  }

  size_t num_partitions() const { return partitions_.size(); }
  ExchangeBuffer* partition(size_t i) const { return partitions_[i]; }

  /// The partition for `tuple`. `rr_cursor` is the caller's (per-producer)
  /// round-robin cursor, advanced only when the exchange has no key.
  StatusOr<size_t> PartitionOf(const catalog::Tuple& tuple,
                               uint64_t* rr_cursor) const;

  /// Batch-aware routing: hashes the whole batch in one pass, then scatters
  /// the tuples into `staging` (one staging batch per partition; must be
  /// sized num_partitions()). `*batch` is consumed. The hash loop runs over
  /// the batch without touching any exchange buffer — partition pushes are
  /// the caller's (it flushes full staging batches), so one batch pays one
  /// routing pass instead of a per-tuple route-then-push. `route` is
  /// caller-owned scratch for the per-tuple targets (reused across batches
  /// to avoid an allocation per batch).
  Status ScatterBatch(RowBatch* batch, uint64_t* rr_cursor,
                      std::vector<RowBatch>* staging,
                      std::vector<uint32_t>* route) const;

 private:
  std::vector<ExchangeBuffer*> partitions_;
  std::vector<size_t> key_columns_;
  std::vector<const optimizer::BoundExpr*> key_exprs_;
};

}  // namespace stagedb::engine

#endif  // STAGEDB_ENGINE_EXCHANGE_H_
