#include "engine/staged_engine.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "exec/partial_agg.h"
#include "exec/row_utils.h"
#include "optimizer/bound_expr.h"

namespace stagedb::engine {

using catalog::Tuple;
using catalog::Value;
using exec::AggAccumulator;
using exec::RowKey;
using exec::RowKeyHash;
using exec::RowKeyFromColumns;
using optimizer::EvalPredicate;
using optimizer::PhysicalPlan;
using optimizer::PlanKind;

// ------------------------------------------------------------ StagedQuery ---

StatusOr<std::vector<Tuple>> StagedQuery::Await() {
  MutexLock lock(mu_);
  cv_.Wait(mu_, [&]() REQUIRES(mu_) { return remaining_ == 0; });
  if (!status_.ok()) return status_;
  return std::move(rows_);
}

void StagedQuery::AppendResult(Tuple t) {
  MutexLock lock(mu_);
  rows_.push_back(std::move(t));
}

void StagedQuery::Fail(Status status) {
  {
    MutexLock lock(mu_);
    if (!failed_) {
      failed_ = true;
      status_ = std::move(status);
    }
  }
  // Cancel the dataflow: producers see closed sinks, consumers see EOF.
  // ForceEof (not MarkEof): a fan-in buffer normally waits for every
  // producer's EOF mark, but cancellation must not wait for anyone.
  for (auto& buffer : buffers) {
    buffer->Close();
    buffer->ForceEof();
  }
}

bool StagedQuery::done() const {
  MutexLock lock(mu_);
  return remaining_ == 0;
}

void StagedQuery::NotifyOnDone(std::function<void()> callback) {
  {
    MutexLock lock(mu_);
    if (remaining_ > 0) {
      on_done_ = std::move(callback);
      return;
    }
  }
  callback();  // already done: fire on the caller's thread
}

void StagedQuery::OnInstanceRetired() {
  std::function<void()> on_done;
  {
    MutexLock lock(mu_);
    --remaining_;
    if (remaining_ > 0) return;
    cv_.NotifyAll();
    on_done = std::move(on_done_);
  }
  if (on_done) on_done();
}

bool StagedQuery::failed() const {
  MutexLock lock(mu_);
  return failed_;
}

// ------------------------------------------------------- OperatorInstance ---

namespace {

/// Why a packet parked (drives CanMakeProgress).
enum class BlockReason { kNone, kInput0, kInput1, kAnyInput, kOutput };

/// One relational operator of one query: the paper's packet. Run() performs
/// up to a work quantum of page-granular processing and re-enqueues itself
/// when it cannot continue. A dop>1 plan node is instantiated as `dop`
/// packets (partitions) of the same node; each receives the hash partition
/// of the input streams its key share maps to (§4.3 intra-operator
/// parallelism).
class OperatorInstance : public StageTask {
 public:
  OperatorInstance(StagedEngine* engine, StagedQuery* query,
                   const PhysicalPlan* plan)
      : engine_(engine), query_(query), plan_(plan) {
    set_query_id(query->id);
  }

  std::vector<ExchangeBuffer*> inputs_;
  /// Output sinks: empty = root (rows append to the query result), one =
  /// the classic single-consumer edge, N = hash fan-out to the consumer's N
  /// partition packets through out_exchange_.
  std::vector<ExchangeBuffer*> outputs_;
  PartitionedExchange* out_exchange_ = nullptr;  // set iff outputs_ > 1
  int partition_ = 0;  // this packet's id within its dop group

  /// Called once the wiring above is final: sizes the per-partition output
  /// staging pages and decorrelates the round-robin cursors of sibling
  /// producers.
  void FinishWiring() {
    out_batches_.resize(outputs_.size());
    rr_cursor_ = static_cast<uint64_t>(partition_);
  }

  RunOutcome Run() override;
  bool CanMakeProgress() override;
  void OnRetired() override { query_->OnInstanceRetired(); }

 private:
  enum class Fetch { kTuple, kWait, kEof };
  enum class Sink { kOk, kFull, kClosed };

  struct InputCursor {
    RowBatch batch;
    size_t pos = 0;
  };

  /// Morsel size at this node's output edge: the optimizer's per-node hint
  /// when stamped, else the engine-wide §4.4(c) page size.
  size_t page_size() const {
    return plan_->batch_hint > 0 ? static_cast<size_t>(plan_->batch_hint)
                                 : engine_->options().tuples_per_page;
  }
  int quantum_tuples() const {
    return static_cast<int>(page_size()) *
           engine_->options().work_quantum_pages;
  }

  Fetch NextInput(size_t idx, Tuple* out) {
    InputCursor& cur = cursors_[idx];
    while (true) {
      if (cur.pos < cur.batch.tuples.size()) {
        *out = std::move(cur.batch.tuples[cur.pos++]);
        return Fetch::kTuple;
      }
      bool eof = false;
      if (inputs_[idx]->TryPop(&cur.batch, &eof)) {
        cur.pos = 0;
        continue;
      }
      return eof ? Fetch::kEof : Fetch::kWait;
    }
  }

  /// Batch-at-a-time fetch: takes the next whole morsel from input `idx`
  /// (zero-copy when the cursor holds an untouched batch — the common case
  /// for operators that never interleave with NextInput on the same input).
  /// kTuple means "got a non-empty batch".
  Fetch NextBatch(size_t idx, RowBatch* out) {
    InputCursor& cur = cursors_[idx];
    if (cur.pos < cur.batch.tuples.size()) {
      if (cur.pos == 0) {
        *out = std::move(cur.batch);
      } else {
        out->tuples.assign(
            std::make_move_iterator(cur.batch.tuples.begin() + cur.pos),
            std::make_move_iterator(cur.batch.tuples.end()));
      }
      cur.batch.clear();
      cur.pos = 0;
      return Fetch::kTuple;
    }
    bool eof = false;
    if (inputs_[idx]->TryPop(out, &eof)) return Fetch::kTuple;
    return eof ? Fetch::kEof : Fetch::kWait;
  }

  Sink EmitTuple(Tuple t) {
    if (outputs_.empty()) {
      query_->AppendResult(std::move(t));
      return Sink::kOk;
    }
    size_t idx = 0;
    if (out_exchange_ != nullptr) {
      auto p = out_exchange_->PartitionOf(t, &rr_cursor_);
      if (!p.ok()) {
        query_->Fail(p.status());
        return Sink::kClosed;  // caller finishes early; failure is recorded
      }
      idx = *p;
    }
    out_batches_[idx].tuples.push_back(std::move(t));
    if (out_batches_[idx].size() >= page_size()) return FlushPartition(idx);
    return Sink::kOk;
  }

  /// Batch-at-a-time emit. Always consumes *batch: tuples either reach an
  /// exchange buffer, the query result, or the per-partition staging batches
  /// (which EnsureOutputWritable re-flushes after a kFull park), so a caller
  /// never tracks a remainder. Single-consumer edges hand a full morsel to
  /// the buffer zero-copy — no per-tuple staging at all.
  Sink EmitBatch(RowBatch* batch) {
    if (batch->empty()) return Sink::kOk;
    if (outputs_.empty()) {
      for (Tuple& t : batch->tuples) query_->AppendResult(std::move(t));
      batch->clear();
      return Sink::kOk;
    }
    if (out_exchange_ != nullptr) {
      Status s = out_exchange_->ScatterBatch(batch, &rr_cursor_,
                                             &out_batches_, &route_scratch_);
      if (!s.ok()) {
        query_->Fail(std::move(s));
        return Sink::kClosed;
      }
      return FlushFullPages();
    }
    RowBatch& staged = out_batches_[0];
    if (staged.empty() && batch->size() >= page_size()) {
      switch (outputs_[0]->TryPush(batch)) {
        case ExchangeBuffer::PushResult::kOk:
          return Sink::kOk;
        case ExchangeBuffer::PushResult::kFull:
          // Park with the morsel staged; the resume path retries the push.
          staged.Append(batch);
          blocked_output_ = 0;
          return Sink::kFull;
        case ExchangeBuffer::PushResult::kClosed:
          return Sink::kClosed;
      }
      return Sink::kOk;
    }
    staged.Append(batch);
    if (staged.size() >= page_size()) return FlushPartition(0);
    return Sink::kOk;
  }

  Sink FlushPartition(size_t idx) {
    if (out_batches_[idx].empty()) return Sink::kOk;
    switch (outputs_[idx]->TryPush(&out_batches_[idx])) {
      case ExchangeBuffer::PushResult::kOk:
        return Sink::kOk;
      case ExchangeBuffer::PushResult::kFull:
        blocked_output_ = idx;
        return Sink::kFull;
      case ExchangeBuffer::PushResult::kClosed:
        return Sink::kClosed;
    }
    return Sink::kOk;
  }

  /// Flushes every pending page (full or partial). kFull parks on the first
  /// partition that pushes back; the rest retry on the next invocation.
  Sink FlushAll() {
    for (size_t i = 0; i < outputs_.size(); ++i) {
      const Sink s = FlushPartition(i);
      if (s != Sink::kOk) return s;
    }
    return Sink::kOk;
  }

  /// Pushes every staging batch that has reached a full page (partial pages
  /// keep accumulating). kFull parks on the first partition that pushes
  /// back; the rest retry on the next invocation.
  Sink FlushFullPages() {
    for (size_t i = 0; i < out_batches_.size(); ++i) {
      if (out_batches_[i].size() < page_size()) continue;
      const Sink s = FlushPartition(i);
      if (s != Sink::kOk) return s;
    }
    return Sink::kOk;
  }

  /// If previously filled pages are still pending, retry them. Returns false
  /// (with *outcome set) when the packet must park or finish.
  bool EnsureOutputWritable(RunOutcome* outcome) {
    switch (FlushFullPages()) {
      case Sink::kOk:
        return true;
      case Sink::kFull:
        block_ = BlockReason::kOutput;
        *outcome = RunOutcome::kBlocked;
        return false;
      case Sink::kClosed:
        *outcome = FinishEarly();
        return false;
    }
    return true;
  }

  /// Handles the result of EmitTuple inside a processing loop. Returns true
  /// to continue; false with *outcome set to stop this invocation.
  bool HandleSink(Sink sink, RunOutcome* outcome) {
    switch (sink) {
      case Sink::kOk:
        return true;
      case Sink::kFull:
        block_ = BlockReason::kOutput;
        *outcome = RunOutcome::kBlocked;
        return false;
      case Sink::kClosed:
        *outcome = FinishEarly();
        return false;
    }
    return true;
  }

  /// Emission phase shared by sort and aggregate: slices staged_rows_ into
  /// page-sized morsels from emit_pos_ and emits them batch-at-a-time.
  RunOutcome EmitStagedRows(int budget) {
    RunOutcome oc;
    RowBatch morsel;
    while (budget > 0) {
      if (emit_pos_ >= staged_rows_.size()) return Finish();
      const size_t n = std::min({page_size(), static_cast<size_t>(budget),
                                 staged_rows_.size() - emit_pos_});
      morsel.clear();
      morsel.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        morsel.push_back(std::move(staged_rows_[emit_pos_++]));
      }
      budget -= static_cast<int>(n);
      if (!HandleSink(EmitBatch(&morsel), &oc)) return oc;
    }
    return RunOutcome::kYield;
  }

  /// Normal completion: flush the final partial pages and mark EOF on every
  /// output partition (a fan-in consumer ends only at the last producer's
  /// marks).
  RunOutcome Finish() {
    switch (FlushAll()) {
      case Sink::kFull:
        block_ = BlockReason::kOutput;
        finishing_ = true;
        return RunOutcome::kBlocked;
      case Sink::kOk:
      case Sink::kClosed:
        break;
    }
    for (ExchangeBuffer* out : outputs_) out->MarkEof();
    return RunOutcome::kDone;
  }

  /// Early termination (sink closed, query failed): cancel upstream work.
  RunOutcome FinishEarly() {
    for (ExchangeBuffer* input : inputs_) input->Close();
    shared_cursor_.Detach();  // leave the elevator promptly, not at teardown
    for (ExchangeBuffer* out : outputs_) out->MarkEof();
    return RunOutcome::kDone;
  }

  Status Error(Status s) {
    query_->Fail(std::move(s));
    return Status::OK();
  }

  RunOutcome RunSeqScan();
  RunOutcome RunSharedSeqScan();
  RunOutcome RunIndexScan();
  RunOutcome RunQual();       // filter / project / limit
  RunOutcome RunNestedLoopJoin();
  RunOutcome RunHashJoin();
  RunOutcome RunMergeJoin();
  RunOutcome RunSort();
  RunOutcome RunAggregate();
  RunOutcome RunValues();

  /// Folds one raw input row into groups_ (kComplete / kPartial modes).
  Status AccumulateInputRow(const Tuple& t);
  /// Folds one partial-state row from a kPartial child into groups_
  /// (kMerge mode).
  Status AccumulateMergeRow(const Tuple& t);

  StagedEngine* engine_;
  StagedQuery* query_;
  const PhysicalPlan* plan_;

  InputCursor cursors_[2];
  std::vector<RowBatch> out_batches_;  // one staging batch per output
  std::vector<uint32_t> route_scratch_;  // ScatterBatch per-tuple targets
  size_t blocked_output_ = 0;            // partition that returned kFull
  uint64_t rr_cursor_ = 0;               // keyless round-robin partitioning
  BlockReason block_ = BlockReason::kNone;
  bool finishing_ = false;

  /// MVCC view for this packet's scans: the statement's registered snapshot
  /// when the query carries one, last-committed visibility otherwise. Same
  /// fallback as the volcano engine's MvccViewFor, so the differential tests
  /// compare identical semantics.
  storage::MvccReadView MvccView() const {
    if (query_->exec_ctx != nullptr && query_->exec_ctx->mvcc != nullptr) {
      return query_->exec_ctx->mvcc->View();
    }
    return storage::MvccReadView{
        engine_->catalog()->mvcc()->last_committed(), 0};
  }
  bool MvccOn() const { return engine_->catalog()->mvcc_enabled(); }

  // Scan state. Private-iterator path (shared_scans=false):
  std::unique_ptr<storage::HeapFile::Iterator> scan_iter_;
  // Cooperative path (shared_scans=true): a cursor attached to the table's
  // elevator plus the page delivery currently being drained.
  SharedScanManager::Cursor shared_cursor_;
  std::shared_ptr<const std::vector<std::string>> shared_page_;
  size_t shared_page_pos_ = 0;
  bool shared_attached_ = false;
  std::vector<std::pair<int64_t, storage::Rid>> index_matches_;
  size_t index_pos_ = 0;
  bool index_loaded_ = false;

  // Join / sort / aggregate state.
  int phase_ = 0;
  std::vector<Tuple> materialized_[2];
  std::unordered_map<RowKey, std::vector<Tuple>, RowKeyHash> hash_table_;
  Tuple probe_;
  bool probe_valid_ = false;
  const std::vector<Tuple>* matches_ = nullptr;
  size_t match_pos_ = 0;
  size_t inner_pos_ = 0;
  std::unordered_map<RowKey, std::vector<AggAccumulator>, RowKeyHash> groups_;
  std::vector<Tuple> staged_rows_;  // sorted / finalized rows to emit
  size_t emit_pos_ = 0;
  // Merge-join group cursors.
  size_t lg_begin_ = 0, lg_end_ = 0, rg_begin_ = 0, rg_end_ = 0;
  size_t li_ = 0, ri_ = 0;
  int64_t limit_produced_ = 0;
  size_t values_pos_ = 0;
};

RunOutcome OperatorInstance::Run() {
  block_ = BlockReason::kNone;
  if (query_->failed()) return FinishEarly();
  if (finishing_) return Finish();
  switch (plan_->kind) {
    case PlanKind::kSeqScan:
      return RunSeqScan();
    case PlanKind::kIndexScan:
      return RunIndexScan();
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kLimit:
      return RunQual();
    case PlanKind::kNestedLoopJoin:
      return RunNestedLoopJoin();
    case PlanKind::kHashJoin:
      return RunHashJoin();
    case PlanKind::kMergeJoin:
      return RunMergeJoin();
    case PlanKind::kSort:
      return RunSort();
    case PlanKind::kHashAggregate:
      return RunAggregate();
    case PlanKind::kValues:
      return RunValues();
    default:
      query_->Fail(Status::Internal("operator kind not stageable"));
      return FinishEarly();
  }
}

bool OperatorInstance::CanMakeProgress() {
  switch (block_) {
    case BlockReason::kNone:
      return true;
    case BlockReason::kOutput:
      return outputs_.empty() ||
             outputs_[blocked_output_]->HasSpaceOrClosed();
    case BlockReason::kInput0:
      return inputs_[0]->HasData() || inputs_[0]->AtEof();
    case BlockReason::kInput1:
      return inputs_[1]->HasData() || inputs_[1]->AtEof();
    case BlockReason::kAnyInput: {
      for (ExchangeBuffer* input : inputs_) {
        if (input->HasData() || input->AtEof()) return true;
      }
      return false;
    }
  }
  return true;
}

RunOutcome OperatorInstance::RunSeqScan() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (engine_->options().shared_scans) return RunSharedSeqScan();
  if (!scan_iter_) {
    scan_iter_ = std::make_unique<storage::HeapFile::Iterator>(
        plan_->table->heap->Scan());
  }
  const bool mvcc_on = MvccOn();
  const storage::MvccReadView view =
      mvcc_on ? MvccView() : storage::MvccReadView{};
  int budget = quantum_tuples();
  RowBatch morsel;
  while (budget > 0) {
    // Fill one page-sized morsel and hand it downstream whole (fscan emits
    // morsels, not tuples).
    morsel.clear();
    const size_t target = std::min(page_size(), static_cast<size_t>(budget));
    morsel.reserve(target);
    while (morsel.size() < target) {
      if (!scan_iter_->Next()) {
        if (!scan_iter_->status().ok()) {
          query_->Fail(scan_iter_->status());
          return FinishEarly();
        }
        // End of table: flush the final partial morsel, then finish.
        if (!HandleSink(EmitBatch(&morsel), &oc)) return oc;
        return Finish();
      }
      Tuple tuple;
      auto visible = exec::DecodeVisibleRecord(
          mvcc_on, view, plan_->table->schema, scan_iter_->record(), &tuple);
      if (!visible.ok()) {
        query_->Fail(visible.status());
        return FinishEarly();
      }
      if (!*visible) continue;
      morsel.push_back(std::move(tuple));
    }
    budget -= static_cast<int>(morsel.size());
    if (!HandleSink(EmitBatch(&morsel), &oc)) return oc;
  }
  return RunOutcome::kYield;
}

/// The cooperative fscan driver (§5.4): instead of owning a private
/// iterator, the packet attaches to the table's elevator at its current
/// position, drains one delivered page at a time, and finishes when the
/// elevator wraps back to its attach point. Output back-pressure parks the
/// packet between tuples of a delivered page; the shared_page_ reference
/// keeps the delivery alive across the park.
RunOutcome OperatorInstance::RunSharedSeqScan() {
  RunOutcome oc;
  if (!shared_attached_) {
    shared_cursor_ = engine_->shared_scans()->Attach(plan_->table->heap.get());
    shared_attached_ = true;
  }
  const bool mvcc_on = MvccOn();
  const storage::MvccReadView view =
      mvcc_on ? MvccView() : storage::MvccReadView{};
  int budget = quantum_tuples();
  RowBatch morsel;
  while (budget > 0) {
    if (shared_page_ != nullptr && shared_page_pos_ < shared_page_->size()) {
      // Decode a morsel's worth of the delivered page and emit it whole.
      // Visibility is evaluated against this rider's own snapshot: elevator
      // riders share page deliveries but never visibility decisions.
      morsel.clear();
      const size_t target =
          std::min(page_size(), static_cast<size_t>(budget));
      morsel.reserve(target);
      while (morsel.size() < target &&
             shared_page_pos_ < shared_page_->size()) {
        Tuple tuple;
        auto visible = exec::DecodeVisibleRecord(
            mvcc_on, view, plan_->table->schema,
            (*shared_page_)[shared_page_pos_], &tuple);
        ++shared_page_pos_;
        if (!visible.ok()) {
          query_->Fail(visible.status());
          return FinishEarly();
        }
        if (!*visible) continue;
        morsel.push_back(std::move(tuple));
      }
      budget -= static_cast<int>(morsel.size());
      if (!HandleSink(EmitBatch(&morsel), &oc)) return oc;
      continue;
    }
    shared_page_pos_ = 0;
    if (!shared_cursor_.NextPage(&shared_page_)) {
      if (!shared_cursor_.status().ok()) {
        query_->Fail(shared_cursor_.status());
        return FinishEarly();
      }
      return Finish();
    }
  }
  return RunOutcome::kYield;
}

RunOutcome OperatorInstance::RunIndexScan() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (!index_loaded_) {
    Status s = plan_->index->tree->Scan(plan_->index_lo, plan_->index_hi,
                                        &index_matches_);
    if (!s.ok()) {
      query_->Fail(s);
      return FinishEarly();
    }
    index_loaded_ = true;
  }
  const bool mvcc_on = MvccOn();
  const storage::MvccReadView view =
      mvcc_on ? MvccView() : storage::MvccReadView{};
  int budget = quantum_tuples();
  RowBatch morsel;
  while (budget > 0) {
    morsel.clear();
    const size_t target = std::min(page_size(), static_cast<size_t>(budget));
    morsel.reserve(target);
    while (morsel.size() < target && index_pos_ < index_matches_.size()) {
      const auto& [key, head] = index_matches_[index_pos_++];
      storage::Rid rid;
      Tuple tuple;
      auto found = exec::FetchVisibleVersion(*plan_->table, *plan_->index,
                                             mvcc_on, view, key, head, &rid,
                                             &tuple);
      if (!found.ok()) {
        query_->Fail(found.status());
        return FinishEarly();
      }
      if (*found) morsel.push_back(std::move(tuple));
    }
    budget -= static_cast<int>(std::max<size_t>(1, morsel.size()));
    if (!HandleSink(EmitBatch(&morsel), &oc)) return oc;
    if (index_pos_ >= index_matches_.size()) return Finish();
  }
  return RunOutcome::kYield;
}

RunOutcome OperatorInstance::RunQual() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  int budget = quantum_tuples();
  RowBatch in;
  while (budget > 0) {
    switch (NextBatch(0, &in)) {
      case Fetch::kWait:
        block_ = BlockReason::kInput0;
        return RunOutcome::kBlocked;
      case Fetch::kEof:
        return Finish();
      case Fetch::kTuple:
        break;
    }
    budget -= static_cast<int>(in.size());
    switch (plan_->kind) {
      case PlanKind::kFilter: {
        // Compact the batch in place: survivors slide left, the batch moves
        // on whole (no per-tuple re-staging downstream).
        size_t w = 0;
        for (size_t i = 0; i < in.tuples.size(); ++i) {
          auto pass = EvalPredicate(*plan_->predicate, in.tuples[i]);
          if (!pass.ok()) {
            query_->Fail(pass.status());
            return FinishEarly();
          }
          if (!*pass) continue;
          if (w != i) in.tuples[w] = std::move(in.tuples[i]);
          ++w;
        }
        in.tuples.resize(w);
        if (!HandleSink(EmitBatch(&in), &oc)) return oc;
        break;
      }
      case PlanKind::kProject: {
        for (Tuple& t : in.tuples) {
          Tuple out;
          out.reserve(plan_->exprs.size());
          for (const auto& expr : plan_->exprs) {
            auto v = optimizer::Eval(*expr, t);
            if (!v.ok()) {
              query_->Fail(v.status());
              return FinishEarly();
            }
            out.push_back(std::move(*v));
          }
          t = std::move(out);
        }
        if (!HandleSink(EmitBatch(&in), &oc)) return oc;
        break;
      }
      case PlanKind::kLimit: {
        const int64_t want = plan_->limit - limit_produced_;
        if (want <= 0) {
          // Satisfied: cancel upstream and finish.
          return FinishEarly();
        }
        if (static_cast<int64_t>(in.size()) > want) {
          in.tuples.resize(static_cast<size_t>(want));
        }
        limit_produced_ += static_cast<int64_t>(in.size());
        if (!HandleSink(EmitBatch(&in), &oc)) return oc;
        if (limit_produced_ >= plan_->limit) {
          for (ExchangeBuffer* input : inputs_) input->Close();
          return Finish();
        }
        break;
      }
      default:
        query_->Fail(Status::Internal("bad qual operator"));
        return FinishEarly();
    }
  }
  return RunOutcome::kYield;
}

RunOutcome OperatorInstance::RunNestedLoopJoin() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  int budget = quantum_tuples();
  if (phase_ == 0) {  // materialize the inner (right) input, a batch at a time
    RowBatch in;
    while (budget > 0) {
      switch (NextBatch(1, &in)) {
        case Fetch::kWait:
          block_ = BlockReason::kInput1;
          return RunOutcome::kBlocked;
        case Fetch::kEof:
          phase_ = 1;
          budget = quantum_tuples();
          goto probe;
        case Fetch::kTuple:
          budget -= static_cast<int>(in.size());
          materialized_[1].insert(
              materialized_[1].end(),
              std::make_move_iterator(in.tuples.begin()),
              std::make_move_iterator(in.tuples.end()));
          break;
      }
    }
    return RunOutcome::kYield;
  }
probe:
  while (budget-- > 0) {
    if (!probe_valid_) {
      switch (NextInput(0, &probe_)) {
        case Fetch::kWait:
          block_ = BlockReason::kInput0;
          return RunOutcome::kBlocked;
        case Fetch::kEof:
          return Finish();
        case Fetch::kTuple:
          probe_valid_ = true;
          inner_pos_ = 0;
          break;
      }
    }
    while (inner_pos_ < materialized_[1].size()) {
      if (budget-- <= 0) return RunOutcome::kYield;
      Tuple joined = probe_;
      const Tuple& inner = materialized_[1][inner_pos_++];
      joined.insert(joined.end(), inner.begin(), inner.end());
      if (plan_->predicate) {
        auto pass = EvalPredicate(*plan_->predicate, joined);
        if (!pass.ok()) {
          query_->Fail(pass.status());
          return FinishEarly();
        }
        if (!*pass) continue;
      }
      if (!HandleSink(EmitTuple(std::move(joined)), &oc)) return oc;
    }
    probe_valid_ = false;
  }
  return RunOutcome::kYield;
}

RunOutcome OperatorInstance::RunHashJoin() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  int budget = quantum_tuples();
  if (phase_ == 0) {  // build on the right input, folding whole batches
    RowBatch in;
    while (budget > 0) {
      switch (NextBatch(1, &in)) {
        case Fetch::kWait:
          block_ = BlockReason::kInput1;
          return RunOutcome::kBlocked;
        case Fetch::kEof:
          phase_ = 1;
          budget = quantum_tuples();
          goto probe;
        case Fetch::kTuple: {
          budget -= static_cast<int>(in.size());
          for (Tuple& t : in.tuples) {
            auto key = RowKeyFromColumns(t, plan_->right_keys);
            if (!key.ok()) {
              query_->Fail(key.status());
              return FinishEarly();
            }
            if (!key->HasNull()) hash_table_[*key].push_back(std::move(t));
          }
          break;
        }
      }
    }
    return RunOutcome::kYield;
  }
probe:
  while (budget-- > 0) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      Tuple joined = probe_;
      const Tuple& inner = (*matches_)[match_pos_++];
      joined.insert(joined.end(), inner.begin(), inner.end());
      if (plan_->predicate) {
        auto pass = EvalPredicate(*plan_->predicate, joined);
        if (!pass.ok()) {
          query_->Fail(pass.status());
          return FinishEarly();
        }
        if (!*pass) continue;
      }
      if (!HandleSink(EmitTuple(std::move(joined)), &oc)) return oc;
      continue;
    }
    switch (NextInput(0, &probe_)) {
      case Fetch::kWait:
        block_ = BlockReason::kInput0;
        return RunOutcome::kBlocked;
      case Fetch::kEof:
        return Finish();
      case Fetch::kTuple: {
        auto key = RowKeyFromColumns(probe_, plan_->left_keys);
        if (!key.ok()) {
          query_->Fail(key.status());
          return FinishEarly();
        }
        auto it = hash_table_.find(*key);
        matches_ = it == hash_table_.end() ? nullptr : &it->second;
        match_pos_ = 0;
        break;
      }
    }
  }
  return RunOutcome::kYield;
}

RunOutcome OperatorInstance::RunMergeJoin() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (phase_ == 0) {  // drain both inputs, a batch at a time per side
    bool done0 = false, done1 = false;
    int budget = quantum_tuples();
    RowBatch in;
    while (budget > 0) {
      bool progressed = false;
      for (int side = 0; side < 2; ++side) {
        bool& done = side == 0 ? done0 : done1;
        if (done) continue;
        switch (NextBatch(side, &in)) {
          case Fetch::kTuple:
            budget -= static_cast<int>(in.size());
            materialized_[side].insert(
                materialized_[side].end(),
                std::make_move_iterator(in.tuples.begin()),
                std::make_move_iterator(in.tuples.end()));
            progressed = true;
            break;
          case Fetch::kEof:
            done = true;
            progressed = true;
            break;
          case Fetch::kWait:
            break;
        }
      }
      if (done0 && done1) {
        phase_ = 1;
        break;
      }
      if (!progressed) {
        block_ = BlockReason::kAnyInput;
        return RunOutcome::kBlocked;
      }
    }
    if (phase_ == 0) return RunOutcome::kYield;
  }
  if (phase_ == 1) {  // sort both sides
    auto sort_side = [&](int side, const std::vector<size_t>& keys) {
      std::stable_sort(materialized_[side].begin(), materialized_[side].end(),
                       [&](const Tuple& a, const Tuple& b) {
                         for (size_t k : keys) {
                           const int c = a[k].Compare(b[k]);
                           if (c != 0) return c < 0;
                         }
                         return false;
                       });
    };
    sort_side(0, plan_->left_keys);
    sort_side(1, plan_->right_keys);
    phase_ = 2;
    lg_end_ = rg_end_ = 0;
    li_ = ri_ = 0;
    lg_begin_ = rg_begin_ = 0;
    li_ = lg_end_;  // force group advance
    ri_ = rg_end_;
  }
  // phase 2: merge.
  auto compare_keys = [&](const Tuple& l, const Tuple& r) {
    for (size_t i = 0; i < plan_->left_keys.size(); ++i) {
      const int c = l[plan_->left_keys[i]].Compare(r[plan_->right_keys[i]]);
      if (c != 0) return c;
    }
    return 0;
  };
  auto key_null = [&](const Tuple& tt, const std::vector<size_t>& keys) {
    for (size_t k : keys) {
      if (tt[k].is_null()) return true;
    }
    return false;
  };
  const std::vector<Tuple>& L = materialized_[0];
  const std::vector<Tuple>& R = materialized_[1];
  int budget = quantum_tuples();
  while (budget-- > 0) {
    if (li_ >= lg_end_ || ri_ >= rg_end_) {
      // Advance to the next pair of matching key groups.
      size_t l = lg_end_, r = rg_end_;
      bool found = false;
      while (l < L.size() && r < R.size()) {
        if (key_null(L[l], plan_->left_keys)) {
          ++l;
          continue;
        }
        if (key_null(R[r], plan_->right_keys)) {
          ++r;
          continue;
        }
        const int c = compare_keys(L[l], R[r]);
        if (c < 0) {
          ++l;
        } else if (c > 0) {
          ++r;
        } else {
          lg_begin_ = l;
          lg_end_ = l + 1;
          while (lg_end_ < L.size() && compare_keys(L[lg_end_], R[r]) == 0) {
            ++lg_end_;
          }
          rg_begin_ = r;
          rg_end_ = r + 1;
          while (rg_end_ < R.size() && compare_keys(L[l], R[rg_end_]) == 0) {
            ++rg_end_;
          }
          li_ = lg_begin_;
          ri_ = rg_begin_;
          found = true;
          break;
        }
      }
      if (!found) return Finish();
    }
    Tuple joined = L[li_];
    joined.insert(joined.end(), R[ri_].begin(), R[ri_].end());
    ++ri_;
    if (ri_ == rg_end_) {
      ri_ = rg_begin_;
      ++li_;
      if (li_ == lg_end_) ri_ = rg_end_;  // group exhausted
    }
    if (plan_->predicate) {
      auto pass = EvalPredicate(*plan_->predicate, joined);
      if (!pass.ok()) {
        query_->Fail(pass.status());
        return FinishEarly();
      }
      if (!*pass) continue;
    }
    if (!HandleSink(EmitTuple(std::move(joined)), &oc)) return oc;
  }
  return RunOutcome::kYield;
}

RunOutcome OperatorInstance::RunSort() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (phase_ == 0) {
    int budget = quantum_tuples();
    RowBatch in;
    while (budget > 0) {
      switch (NextBatch(0, &in)) {
        case Fetch::kWait:
          block_ = BlockReason::kInput0;
          return RunOutcome::kBlocked;
        case Fetch::kEof:
          phase_ = 1;
          budget = 0;
          break;
        case Fetch::kTuple:
          budget -= static_cast<int>(in.size());
          staged_rows_.insert(staged_rows_.end(),
                              std::make_move_iterator(in.tuples.begin()),
                              std::make_move_iterator(in.tuples.end()));
          break;
      }
    }
    if (phase_ == 0) return RunOutcome::kYield;
  }
  if (phase_ == 1) {
    // Precompute keys, then sort (one quantum; sorting is CPU-bound and the
    // sort stage owns it per the paper's operator grouping).
    std::vector<std::vector<Value>> keys(staged_rows_.size());
    for (size_t i = 0; i < staged_rows_.size(); ++i) {
      for (const auto& key : plan_->sort_keys) {
        auto v = optimizer::Eval(*key.expr, staged_rows_[i]);
        if (!v.ok()) {
          query_->Fail(v.status());
          return FinishEarly();
        }
        keys[i].push_back(std::move(*v));
      }
    }
    std::vector<size_t> order(staged_rows_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < plan_->sort_keys.size(); ++k) {
        int c = keys[a][k].Compare(keys[b][k]);
        if (plan_->sort_keys[k].descending) c = -c;
        if (c != 0) return c < 0;
      }
      return false;
    });
    std::vector<Tuple> sorted;
    sorted.reserve(staged_rows_.size());
    for (size_t i : order) sorted.push_back(std::move(staged_rows_[i]));
    staged_rows_ = std::move(sorted);
    emit_pos_ = 0;
    phase_ = 2;
  }
  return EmitStagedRows(quantum_tuples());
}

Status OperatorInstance::AccumulateInputRow(const Tuple& t) {
  RowKey key;
  for (const auto& expr : plan_->exprs) {
    auto v = optimizer::Eval(*expr, t);
    if (!v.ok()) return v.status();
    key.values.push_back(std::move(*v));
  }
  auto& accs = groups_[key];
  if (accs.empty()) accs.resize(plan_->aggregates.size());
  for (size_t i = 0; i < plan_->aggregates.size(); ++i) {
    const optimizer::AggSpec& spec = plan_->aggregates[i];
    Value v = Value::Int(1);
    if (spec.arg) {
      auto val = optimizer::Eval(*spec.arg, t);
      if (!val.ok()) return val.status();
      v = std::move(*val);
      if (v.is_null()) continue;
    }
    exec::AggAccumulate(&accs[i], spec, v);
  }
  return Status::OK();
}

Status OperatorInstance::AccumulateMergeRow(const Tuple& t) {
  // Partial rows are the group key columns followed by each aggregate's
  // mergeable state (exec/partial_agg.h layout).
  const size_t num_group_cols =
      plan_->schema.num_columns() - plan_->aggregates.size();
  if (t.size() < num_group_cols) {
    return Status::Internal("partial aggregation row too narrow");
  }
  RowKey key;
  key.values.reserve(num_group_cols);
  for (size_t i = 0; i < num_group_cols; ++i) key.values.push_back(t[i]);
  auto& accs = groups_[key];
  if (accs.empty()) accs.resize(plan_->aggregates.size());
  size_t col = num_group_cols;
  for (size_t i = 0; i < plan_->aggregates.size(); ++i) {
    Status s = exec::MergePartialState(plan_->aggregates[i], t, &col,
                                       &accs[i]);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

RunOutcome OperatorInstance::RunAggregate() {
  using optimizer::AggMode;
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (phase_ == 0) {
    int budget = quantum_tuples();
    RowBatch in;
    while (budget > 0) {
      switch (NextBatch(0, &in)) {
        case Fetch::kWait:
          block_ = BlockReason::kInput0;
          return RunOutcome::kBlocked;
        case Fetch::kEof:
          phase_ = 1;
          budget = 0;
          break;
        case Fetch::kTuple: {
          budget -= static_cast<int>(in.size());
          for (const Tuple& t : in.tuples) {
            const Status s = plan_->agg_mode == AggMode::kMerge
                                 ? AccumulateMergeRow(t)
                                 : AccumulateInputRow(t);
            if (!s.ok()) {
              query_->Fail(s);
              return FinishEarly();
            }
          }
          break;
        }
      }
    }
    if (phase_ == 0) return RunOutcome::kYield;
  }
  if (phase_ == 1) {
    // Global aggregation over zero rows still yields one output row — but
    // only at the finalizing node: a kPartial packet that saw no rows emits
    // nothing (its siblings cover the input), and the kMerge packet above
    // supplies the empty-input row exactly once.
    const bool global_agg = plan_->agg_mode == AggMode::kMerge
                                ? plan_->schema.num_columns() ==
                                      plan_->aggregates.size()
                                : plan_->exprs.empty();
    if (groups_.empty() && global_agg &&
        plan_->agg_mode != AggMode::kPartial) {
      groups_[RowKey{}] =
          std::vector<AggAccumulator>(plan_->aggregates.size());
    }
    for (const auto& [key, accs] : groups_) {
      Tuple row;
      for (const Value& v : key.values) row.push_back(v);
      for (size_t i = 0; i < plan_->aggregates.size(); ++i) {
        if (plan_->agg_mode == AggMode::kPartial) {
          exec::AppendPartialState(plan_->aggregates[i], accs[i], &row);
        } else {
          row.push_back(exec::AggFinalize(plan_->aggregates[i], accs[i]));
        }
      }
      staged_rows_.push_back(std::move(row));
    }
    groups_.clear();
    emit_pos_ = 0;
    phase_ = 2;
  }
  return EmitStagedRows(quantum_tuples());
}

RunOutcome OperatorInstance::RunValues() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  int budget = quantum_tuples();
  RowBatch morsel;
  while (budget > 0) {
    if (values_pos_ >= plan_->rows.size()) return Finish();
    morsel.clear();
    const size_t target = std::min(page_size(), static_cast<size_t>(budget));
    while (morsel.size() < target && values_pos_ < plan_->rows.size()) {
      morsel.push_back(plan_->rows[values_pos_++]);
    }
    budget -= static_cast<int>(morsel.size());
    if (!HandleSink(EmitBatch(&morsel), &oc)) return oc;
  }
  return RunOutcome::kYield;
}

/// A mutation statement executed as one packet on the dml stage (the staged
/// prototype of the paper also routed updates through dedicated stages).
class DmlTask : public StageTask {
 public:
  DmlTask(StagedEngine* engine, StagedQuery* query, const PhysicalPlan* plan)
      : engine_(engine), query_(query), plan_(plan) {
    set_query_id(query->id);
  }

  RunOutcome Run() override {
    exec::ExecContext local_ctx;
    local_ctx.catalog = engine_->catalog();
    exec::ExecContext* ctx =
        query_->exec_ctx != nullptr ? query_->exec_ctx : &local_ctx;
    auto rows = exec::ExecutePlan(plan_, ctx);
    if (!rows.ok()) {
      query_->Fail(rows.status());
      return RunOutcome::kDone;
    }
    for (Tuple& t : *rows) query_->AppendResult(std::move(t));
    return RunOutcome::kDone;
  }
  void OnRetired() override { query_->OnInstanceRetired(); }

 private:
  StagedEngine* engine_;
  StagedQuery* query_;
  const PhysicalPlan* plan_;
};

}  // namespace

// ------------------------------------------------------------ StagedEngine --

StagedEngine::StagedEngine(catalog::Catalog* catalog,
                           StagedEngineOptions options)
    : catalog_(catalog), options_(std::move(options)),
      runtime_(MakeSchedulerPolicy(options_.scheduler,
                                   options_.scheduler_gate_rounds)),
      shared_scans_(std::make_unique<SharedScanManager>(
          options_.shared_scan_window_pages)) {
  if (options_.granularity == StagedEngineOptions::Granularity::kCoarse) {
    execute_stage_ = runtime_.CreateStage("execute", PoolFor("execute"));
    MaybeCreateCommitStage();
    return;
  }
  iscan_stage_ = runtime_.CreateStage("iscan", PoolFor("iscan"));
  qual_stage_ = runtime_.CreateStage("qual", PoolFor("qual"));
  sort_stage_ = runtime_.CreateStage("sort", PoolFor("sort"));
  join_stage_ = runtime_.CreateStage("join", PoolFor("join"));
  aggr_stage_ = runtime_.CreateStage("aggr", PoolFor("aggr"));
  dml_stage_ = runtime_.CreateStage("dml", PoolFor("dml"));
  if (!options_.stage_per_table_scans) {
    fscan_shared_ = runtime_.CreateStage("fscan", PoolFor("fscan"));
  }
  MaybeCreateCommitStage();
}

void StagedEngine::MaybeCreateCommitStage() {
  if (options_.wal == nullptr) return;
  GroupCommitStage::Options gc;
  gc.max_batch = options_.group_commit_max_batch;
  gc.max_wait_us = options_.group_commit_max_wait_us;
  group_commit_ = std::make_unique<GroupCommitStage>(&runtime_, options_.wal,
                                                     gc, PoolFor("commit"));
}

StagePoolSpec StagedEngine::PoolFor(const std::string& stage_name) const {
  // Per-table scan stages fall back to the "fscan" key before the default.
  if (stage_name.rfind("fscan.", 0) == 0 &&
      options_.stage_pools.count(stage_name) == 0) {
    return PoolSpecFor(options_.stage_pools, "fscan",
                       options_.threads_per_stage);
  }
  return PoolSpecFor(options_.stage_pools, stage_name,
                     options_.threads_per_stage);
}

StagedEngine::~StagedEngine() {
  // Flush pending commits while the stage workers are still alive, then stop.
  if (group_commit_ != nullptr) group_commit_->Drain();
  runtime_.Shutdown();
}

Stage* StagedEngine::StageFor(const PhysicalPlan& node) {
  if (options_.granularity == StagedEngineOptions::Granularity::kCoarse) {
    return execute_stage_;
  }
  switch (node.kind) {
    case PlanKind::kSeqScan: {
      if (!options_.stage_per_table_scans) return fscan_shared_;
      MutexLock lock(stage_map_mu_);
      auto it = fscan_stages_.find(node.table->id);
      if (it != fscan_stages_.end()) return it->second;
      const std::string name = "fscan." + node.table->name;
      Stage* stage = runtime_.CreateStage(name, PoolFor(name));
      fscan_stages_[node.table->id] = stage;
      return stage;
    }
    case PlanKind::kIndexScan:
      return iscan_stage_;
    case PlanKind::kFilter:
    case PlanKind::kProject:
    case PlanKind::kLimit:
    case PlanKind::kValues:
      return qual_stage_;
    case PlanKind::kSort:
      return sort_stage_;
    case PlanKind::kNestedLoopJoin:
    case PlanKind::kHashJoin:
    case PlanKind::kMergeJoin:
      return join_stage_;
    case PlanKind::kHashAggregate:
      return aggr_stage_;
    case PlanKind::kInsert:
    case PlanKind::kDelete:
    case PlanKind::kUpdate:
      return dml_stage_;
  }
  return qual_stage_;
}

std::shared_ptr<StagedQuery> StagedEngine::Submit(const PhysicalPlan* plan,
                                                  exec::ExecContext* exec_ctx) {
  auto query = std::make_shared<StagedQuery>();
  query->id = next_query_id_.fetch_add(1);
  query->exec_ctx = exec_ctx;

  const bool is_dml = plan->kind == PlanKind::kInsert ||
                      plan->kind == PlanKind::kDelete ||
                      plan->kind == PlanKind::kUpdate;
  if (is_dml) {
    auto task = std::make_unique<DmlTask>(this, query.get(), plan);
    DmlTask* ptr = task.get();
    query->instances.push_back(std::move(task));
    query->remaining_ = 1;
    StageFor(*plan)->Enqueue(ptr);
    return query;
  }

  // Build the operator instance tree bottom-up and wire exchange buffers.
  // A node with an effective DOP of N becomes N partition packets; each
  // edge into such a group fans out through a hash PartitionedExchange (one
  // bounded buffer per partition), and the N packets' outputs fan back into
  // their consumer's single input buffer, which treats them as N producers
  // (EOF at the last mark). With every node at DOP=1 this wiring — one
  // packet, one buffer per edge — is exactly the pre-parallelism shape.
  std::vector<std::pair<OperatorInstance*, Stage*>> leaves;
  struct Builder {
    StagedEngine* engine;
    StagedQuery* query;
    std::vector<std::pair<OperatorInstance*, Stage*>>* leaves;

    /// Plan-node dop clamped by the engine option; only hash joins and
    /// partial aggregations partition (their inputs hash cleanly on the
    /// join/group key).
    int EffectiveDop(const PhysicalPlan& node) const {
      if (node.dop <= 1 || engine->options().max_dop <= 1) return 1;
      const bool partitionable =
          (node.kind == PlanKind::kHashJoin && !node.left_keys.empty()) ||
          (node.kind == PlanKind::kHashAggregate &&
           node.agg_mode == optimizer::AggMode::kPartial);
      if (!partitionable) return 1;
      return std::min(node.dop, engine->options().max_dop);
    }

    std::vector<OperatorInstance*> Build(const PhysicalPlan* node) {
      Stage* stage = engine->StageFor(*node);
      const int dop = EffectiveDop(*node);
      std::vector<OperatorInstance*> group;
      group.reserve(dop);
      for (int p = 0; p < dop; ++p) {
        auto inst = std::make_unique<OperatorInstance>(engine, query, node);
        inst->partition_ = p;
        group.push_back(inst.get());
        query->instances.push_back(std::move(inst));
      }
      if (dop > 1) stage->CountParallelPackets(dop);

      for (size_t ci = 0; ci < node->children.size(); ++ci) {
        const PhysicalPlan* child = node->children[ci].get();
        std::vector<OperatorInstance*> producers = Build(child);
        Stage* child_stage = engine->StageFor(*child);

        // One bounded buffer per consumer partition (a single-consumer edge
        // is the classic one-buffer edge). An edge with exactly one producer
        // packet gets the lock-free SPSC ring (each buffer here has exactly
        // one consumer by construction); fan-in edges — M producer
        // partitions merging into one consumer — keep the mutex buffer,
        // which handles any endpoint shape.
        const bool spsc_edge =
            engine->options().spsc_exchange && producers.size() == 1;
        // max(1, ...): a zero-capacity buffer rejects every push, which
        // would park the producer forever.
        const size_t capacity =
            std::max<size_t>(1, engine->options().exchange_capacity_pages);
        std::vector<ExchangeBuffer*> parts;
        parts.reserve(group.size());
        for (OperatorInstance* consumer : group) {
          std::unique_ptr<ExchangeBuffer> buffer;
          if (spsc_edge) {
            buffer = std::make_unique<SpscRingBuffer>(capacity);
          } else {
            buffer = std::make_unique<ExchangeBuffer>(capacity);
          }
          ExchangeBuffer* b = buffer.get();
          query->buffers.push_back(std::move(buffer));
          b->BindConsumer(stage, consumer);
          consumer->inputs_.push_back(b);
          parts.push_back(b);
        }

        PartitionedExchange* px = nullptr;
        if (parts.size() > 1) {
          auto exchange = std::make_unique<PartitionedExchange>(parts);
          px = exchange.get();
          if (node->kind == PlanKind::kHashJoin) {
            // Probe input partitions on the left keys, build input on the
            // right keys: equal join keys meet in the same partition.
            px->SetKeyColumns(ci == 0 ? node->left_keys : node->right_keys);
          } else {
            // Partial aggregation partitions on the group-by expressions
            // (none = round-robin; the merge combines the global states).
            std::vector<const optimizer::BoundExpr*> key_exprs;
            key_exprs.reserve(node->exprs.size());
            for (const auto& e : node->exprs) key_exprs.push_back(e.get());
            px->SetKeyExprs(std::move(key_exprs));
          }
          query->exchanges.push_back(std::move(exchange));
        }

        for (OperatorInstance* producer : producers) {
          producer->outputs_ = parts;
          producer->out_exchange_ = px;
          producer->FinishWiring();
          for (ExchangeBuffer* b : parts) {
            b->BindProducer(child_stage, producer);
          }
        }
      }
      if (node->children.empty()) {
        for (OperatorInstance* inst : group) leaves->emplace_back(inst, stage);
      }
      return group;
    }
  };
  Builder builder{this, query.get(), &leaves};
  builder.Build(plan);
  query->remaining_ = static_cast<int>(query->instances.size());

  // Bottom-up activation: enqueue packets for the leaf operators; parents are
  // activated when the first page reaches their input buffer (or its EOF).
  for (auto& [leaf, stage] : leaves) stage->Enqueue(leaf);
  return query;
}

StatusOr<std::vector<Tuple>> StagedEngine::Execute(const PhysicalPlan* plan,
                                                   exec::ExecContext* ctx) {
  auto query = Submit(plan, ctx);
  return query->Await();
}

}  // namespace stagedb::engine
