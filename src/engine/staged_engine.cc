#include "engine/staged_engine.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "exec/operators.h"
#include "optimizer/bound_expr.h"

namespace stagedb::engine {

using catalog::Tuple;
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

void StagedQuery::AppendResults(RowBatch* batch) {
  MutexLock lock(mu_);
  if (rows_.empty()) {
    rows_ = std::move(batch->tuples);
  } else {
    rows_.insert(rows_.end(), std::make_move_iterator(batch->tuples.begin()),
                 std::make_move_iterator(batch->tuples.end()));
  }
  batch->clear();
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
    // Scans report rows read and rows qualified to an activity trace, as
    // the volcano scans do. Registered here, before any packet runs; each
    // packet then touches only its own entry.
    const bool scan = plan->kind == PlanKind::kSeqScan ||
                      plan->kind == PlanKind::kIndexScan;
    if (scan) scan_reader_.emplace(*plan);
    if (plan->kind == PlanKind::kHashJoin ||
        plan->kind == PlanKind::kNestedLoopJoin) {
      join_table_.emplace(*plan);
    } else if (plan->kind == PlanKind::kMergeJoin) {
      merge_join_.emplace(*plan);
    } else if (plan->kind == PlanKind::kHashAggregate) {
      aggregator_.emplace(*plan);
    }
    trace_ = query->exec_ctx->trace;
    if (trace_ != nullptr && scan) {
      trace_id_ = trace_->Register(plan->kind, plan->table->name);
    } else {
      trace_ = nullptr;
    }
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

  /// Batch-at-a-time emit. Always consumes *batch: tuples either reach an
  /// exchange buffer, the query result, or the per-partition staging batches
  /// (which EnsureOutputWritable re-flushes after a kFull park), so a caller
  /// never tracks a remainder. Single-consumer edges hand a full morsel to
  /// the buffer zero-copy — no per-tuple staging at all.
  Sink EmitBatch(RowBatch* batch) {
    if (batch->empty()) return Sink::kOk;
    if (outputs_.empty()) {
      query_->AppendResults(batch);
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

  /// Handles the result of EmitBatch inside a processing loop. Returns true
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

  /// Fails the query with `s` and finishes this packet early.
  RunOutcome Abort(Status s) {
    query_->Fail(std::move(s));
    return FinishEarly();
  }

  /// Feeds whole morsels of input `idx` to `fold` until the input ends
  /// (true). Returns false with *outcome set when the packet must stop
  /// first: the quantum is spent, the input is empty, or `fold` failed.
  template <typename Fold>
  bool DrainInput(size_t idx, Fold fold, RunOutcome* outcome) {
    int budget = quantum_tuples();
    RowBatch in;
    while (budget > 0) {
      switch (NextBatch(idx, &in)) {
        case Fetch::kWait:
          block_ = idx == 0 ? BlockReason::kInput0 : BlockReason::kInput1;
          *outcome = RunOutcome::kBlocked;
          return false;
        case Fetch::kEof:
          return true;
        case Fetch::kTuple: {
          budget -= static_cast<int>(in.size());
          Status s = fold(&in);
          if (!s.ok()) {
            *outcome = Abort(std::move(s));
            return false;
          }
          break;
        }
      }
    }
    *outcome = RunOutcome::kYield;
    return false;
  }

  /// Counts one row the scan reader saw into the activity trace: a visible
  /// row is read, and a qualified one is also emitted.
  void TraceScanRow(exec::ScanRow row) {
    if (trace_ == nullptr || row == exec::ScanRow::kInvisible) return;
    trace_->CountRead(trace_id_);
    if (row == exec::ScanRow::kQualified) trace_->CountTuple(trace_id_);
  }

  RunOutcome RunSeqScan();
  /// Moves scan_page_ to the next heap page of the scan. Returns false at
  /// the end of the table, or on an error reported in *status.
  bool NextScanPage(Status* status);
  RunOutcome RunIndexScan();
  RunOutcome RunQual();       // filter / project / limit
  RunOutcome RunJoin();       // hash / nested-loop join
  RunOutcome RunMergeJoin();
  RunOutcome RunSort();
  RunOutcome RunAggregate();
  RunOutcome RunValues();

  StagedEngine* engine_;
  StagedQuery* query_;
  const PhysicalPlan* plan_;
  exec::OperatorTrace* trace_ = nullptr;  // scans under an activity trace
  size_t trace_id_ = 0;

  InputCursor cursors_[2];
  std::vector<RowBatch> out_batches_;  // one staging batch per output
  std::vector<uint32_t> route_scratch_;  // ScatterBatch per-tuple targets
  size_t blocked_output_ = 0;            // partition that returned kFull
  uint64_t rr_cursor_ = 0;               // keyless round-robin partitioning
  BlockReason block_ = BlockReason::kNone;
  bool finishing_ = false;

  /// MVCC view for this packet's scans: the statement's registered snapshot
  /// when the query carries one, last-committed visibility otherwise — the
  /// volcano engine's rule, so the differential tests compare identical
  /// semantics.
  storage::MvccReadView MvccView() const {
    return exec::MvccViewFor(query_->exec_ctx);
  }

  std::optional<exec::ScanRowReader> scan_reader_;  // scans only

  // Seq-scan state: the heap page being drained and where the next one
  // comes from — the table's elevator (shared_scans) or a private walk.
  SharedScanManager::Cursor shared_cursor_;
  storage::PageId private_next_page_ = storage::kInvalidPageId;
  std::shared_ptr<const std::vector<std::string>> scan_page_;
  size_t scan_page_pos_ = 0;
  bool scan_started_ = false;
  std::vector<std::pair<int64_t, storage::Rid>> index_matches_;
  size_t index_pos_ = 0;
  bool index_loaded_ = false;

  // Join / sort / aggregate state: the node's kernel, and its phase (0 takes
  // in the blocking input, 1 produces).
  std::optional<exec::JoinTable> join_table_;
  std::optional<exec::MergeJoin> merge_join_;
  std::optional<exec::HashAggregator> aggregator_;
  int phase_ = 0;
  bool input_eof_[2] = {false, false};  // merge join: inputs drained
  std::vector<Tuple> staged_rows_;  // sorted / finalized rows to emit
  size_t emit_pos_ = 0;
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
    case PlanKind::kHashJoin:
      return RunJoin();
    case PlanKind::kMergeJoin:
      return RunMergeJoin();
    case PlanKind::kSort:
      return RunSort();
    case PlanKind::kHashAggregate:
      return RunAggregate();
    case PlanKind::kValues:
      return RunValues();
    default:
      return Abort(Status::Internal("operator kind not stageable"));
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

/// The fscan driver. It drains one heap page at a time: a delivery from the
/// table's elevator (shared_scans, §5.4: the packet attaches at the
/// elevator's current position and finishes when it wraps back to its attach
/// point) or the next page of a private ReadPage walk from the first page.
/// Output back-pressure parks the packet between morsels of a page; the
/// scan_page_ reference keeps the page alive across the park.
RunOutcome OperatorInstance::RunSeqScan() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (!scan_started_) {
    if (engine_->options().shared_scans) {
      shared_cursor_ =
          engine_->shared_scans()->Attach(plan_->table->heap.get());
    } else {
      private_next_page_ = plan_->table->heap->first_page();
    }
    scan_started_ = true;
  }
  const storage::MvccReadView view = MvccView();
  int budget = quantum_tuples();
  RowBatch morsel;
  while (budget > 0) {
    if (scan_page_ == nullptr || scan_page_pos_ == scan_page_->size()) {
      Status s;
      if (!NextScanPage(&s)) {
        if (!s.ok()) return Abort(std::move(s));
        return Finish();
      }
      continue;
    }
    // Decode a morsel's worth of the page and hand the rows that qualify
    // downstream (a partial morsel waits in the output staging batch until
    // a page fills). Visibility is evaluated against this packet's own
    // snapshot: elevator riders share page deliveries but never visibility
    // decisions.
    morsel.clear();
    const size_t target = std::min(page_size(), static_cast<size_t>(budget));
    morsel.reserve(target);
    size_t read = 0;
    Tuple tuple;  // a rejected row's storage is reused for the next one
    while (read < target && scan_page_pos_ < scan_page_->size()) {
      auto row = scan_reader_->ReadRecord(view, (*scan_page_)[scan_page_pos_],
                                          &tuple);
      ++scan_page_pos_;
      if (!row.ok()) return Abort(row.status());
      TraceScanRow(*row);
      if (*row == exec::ScanRow::kInvisible) continue;
      ++read;
      if (*row == exec::ScanRow::kQualified) morsel.push_back(std::move(tuple));
    }
    budget -= static_cast<int>(read);
    if (!HandleSink(EmitBatch(&morsel), &oc)) return oc;
  }
  return RunOutcome::kYield;
}

bool OperatorInstance::NextScanPage(Status* status) {
  scan_page_pos_ = 0;
  if (engine_->options().shared_scans) {
    if (shared_cursor_.NextPage(&scan_page_)) return true;
    *status = shared_cursor_.status();
    return false;
  }
  if (private_next_page_ == storage::kInvalidPageId) return false;
  auto page = std::make_shared<std::vector<std::string>>();
  *status = plan_->table->heap->ReadPage(private_next_page_, page.get(),
                                         &private_next_page_);
  if (!status->ok()) return false;
  scan_page_ = std::move(page);
  return true;
}

RunOutcome OperatorInstance::RunIndexScan() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (!index_loaded_) {
    Status s = plan_->index->tree->Scan(plan_->index_lo, plan_->index_hi,
                                        &index_matches_);
    if (!s.ok()) return Abort(s);
    index_loaded_ = true;
  }
  const storage::MvccReadView view = MvccView();
  int budget = quantum_tuples();
  RowBatch morsel;
  while (budget > 0) {
    morsel.clear();
    const size_t target = std::min(page_size(), static_cast<size_t>(budget));
    morsel.reserve(target);
    size_t read = 0;
    Tuple tuple;  // a rejected row's storage is reused for the next one
    while (read < target && index_pos_ < index_matches_.size()) {
      const auto& [key, head] = index_matches_[index_pos_++];
      storage::Rid rid;
      auto row = scan_reader_->ReadIndexed(view, key, head, &rid, &tuple);
      if (!row.ok()) return Abort(row.status());
      TraceScanRow(*row);
      if (*row == exec::ScanRow::kInvisible) continue;
      ++read;
      if (*row == exec::ScanRow::kQualified) morsel.push_back(std::move(tuple));
    }
    budget -= static_cast<int>(std::max<size_t>(1, read));
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
  Tuple projected;
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
          if (!pass.ok()) return Abort(pass.status());
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
          Status s = exec::ProjectRow(*plan_, t, &projected);
          if (!s.ok()) return Abort(std::move(s));
          std::swap(t, projected);
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
        return Abort(Status::Internal("bad qual operator"));
    }
  }
  return RunOutcome::kYield;
}

/// Hash and nested-loop joins: build the JoinTable from the right input, then
/// probe it a left row at a time, handing joined rows downstream a morsel at
/// a time. A packet that parks mid-probe keeps its place in the table.
RunOutcome OperatorInstance::RunJoin() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (phase_ == 0) {
    const bool built = DrainInput(
        1,
        [this](RowBatch* in) -> Status {
          for (Tuple& t : in->tuples) {
            STAGEDB_RETURN_IF_ERROR(join_table_->Build(std::move(t)));
          }
          return Status::OK();
        },
        &oc);
    if (!built) return oc;
    phase_ = 1;
  }
  int budget = quantum_tuples();
  RowBatch out;
  Tuple row;
  while (budget-- > 0) {
    auto match = join_table_->NextMatch(&row);
    if (!match.ok()) return Abort(match.status());
    if (*match) {
      out.push_back(std::move(row));
      if (out.size() >= page_size() && !HandleSink(EmitBatch(&out), &oc)) {
        return oc;
      }
      continue;
    }
    const Fetch fetch = NextInput(0, &row);
    if (fetch == Fetch::kTuple) {
      Status s = join_table_->Probe(std::move(row));
      if (!s.ok()) return Abort(std::move(s));
      continue;
    }
    if (!HandleSink(EmitBatch(&out), &oc)) return oc;
    if (fetch == Fetch::kEof) return Finish();
    block_ = BlockReason::kInput0;
    return RunOutcome::kBlocked;
  }
  if (!HandleSink(EmitBatch(&out), &oc)) return oc;
  return RunOutcome::kYield;
}

RunOutcome OperatorInstance::RunMergeJoin() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (phase_ == 0) {  // drain both inputs, a batch at a time per side
    int budget = quantum_tuples();
    RowBatch in;
    while (!input_eof_[0] || !input_eof_[1]) {
      if (budget <= 0) return RunOutcome::kYield;
      bool progressed = false;
      for (int side = 0; side < 2; ++side) {
        if (input_eof_[side]) continue;
        switch (NextBatch(side, &in)) {
          case Fetch::kTuple:
            budget -= static_cast<int>(in.size());
            for (Tuple& t : in.tuples) merge_join_->Add(side, std::move(t));
            progressed = true;
            break;
          case Fetch::kEof:
            input_eof_[side] = true;
            progressed = true;
            break;
          case Fetch::kWait:
            break;
        }
      }
      if (!progressed) {
        block_ = input_eof_[0]   ? BlockReason::kInput1
                 : input_eof_[1] ? BlockReason::kInput0
                                 : BlockReason::kAnyInput;
        return RunOutcome::kBlocked;
      }
    }
    merge_join_->Sort();
    phase_ = 1;
  }
  int budget = quantum_tuples();
  RowBatch out;
  Tuple row;
  while (budget-- > 0) {
    auto joined = merge_join_->Next(&row);
    if (!joined.ok()) return Abort(joined.status());
    if (!*joined) {
      if (!HandleSink(EmitBatch(&out), &oc)) return oc;
      return Finish();
    }
    out.push_back(std::move(row));
    if (out.size() >= page_size() && !HandleSink(EmitBatch(&out), &oc)) {
      return oc;
    }
  }
  if (!HandleSink(EmitBatch(&out), &oc)) return oc;
  return RunOutcome::kYield;
}

/// Takes in the whole input, sorts it once (sorting is CPU-bound and the
/// sort stage owns it, per the paper's operator grouping), then emits it a
/// morsel at a time.
RunOutcome OperatorInstance::RunSort() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (phase_ == 0) {
    const bool drained = DrainInput(
        0,
        [this](RowBatch* in) -> Status {
          staged_rows_.insert(staged_rows_.end(),
                              std::make_move_iterator(in->tuples.begin()),
                              std::make_move_iterator(in->tuples.end()));
          return Status::OK();
        },
        &oc);
    if (!drained) return oc;
    Status s = exec::SortRows(plan_->sort_keys, &staged_rows_);
    if (!s.ok()) return Abort(std::move(s));
    phase_ = 1;
  }
  return EmitStagedRows(quantum_tuples());
}

RunOutcome OperatorInstance::RunAggregate() {
  RunOutcome oc;
  if (!EnsureOutputWritable(&oc)) return oc;
  if (phase_ == 0) {
    const bool drained = DrainInput(
        0,
        [this](RowBatch* in) -> Status {
          for (const Tuple& t : in->tuples) {
            STAGEDB_RETURN_IF_ERROR(aggregator_->Add(t));
          }
          return Status::OK();
        },
        &oc);
    if (!drained) return oc;
    staged_rows_ = aggregator_->Finish();
    phase_ = 1;
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
    auto rows = exec::ExecutePlan(plan_, query_->exec_ctx);
    if (!rows.ok()) {
      query_->Fail(rows.status());
      return RunOutcome::kDone;
    }
    RowBatch batch;
    batch.tuples = std::move(*rows);
    query_->AppendResults(&batch);
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
  if (exec_ctx == nullptr) {
    query->own_ctx.catalog = catalog_;
    exec_ctx = &query->own_ctx;
  }
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
