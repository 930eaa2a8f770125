#include "engine/commit_stage.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace stagedb::engine {

// ------------------------------------------------------------ CommitTicket --

Status CommitTicket::Wait() {
  MutexLock lock(mu_);
  cv_.Wait(mu_, [&]() REQUIRES(mu_) { return done_; });
  return status_;
}

int64_t CommitTicket::lsn() const {
  MutexLock lock(mu_);
  return lsn_;
}

void CommitTicket::Complete(int64_t lsn, Status status) {
  {
    MutexLock lock(mu_);
    done_ = true;
    lsn_ = lsn;
    status_ = std::move(status);
  }
  cv_.NotifyAll();
}

// -------------------------------------------------------- GroupCommitStage --

/// The stage's single long-lived packet. It parks (kBlocked) while no commit
/// is pending; Submit wakes it via Stage::Activate, each Run() serves one
/// batch window, and it retires once a drain finds nothing pending.
class GroupCommitStage::FlushTask : public ServiceTask {
 public:
  explicit FlushTask(GroupCommitStage* owner) : owner_(owner) {}
  RunOutcome Run() override { return owner_->RunFlush(); }
  bool CanMakeProgress() override { return owner_->HasPending(); }

 private:
  GroupCommitStage* owner_;
};

GroupCommitStage::GroupCommitStage(StageRuntime* runtime,
                                   storage::WriteAheadLog* wal,
                                   Options options, StagePoolSpec pool)
    : wal_(wal), options_(options),
      stage_(runtime->CreateStage("commit", pool)),
      task_(std::make_unique<FlushTask>(this)) {}

GroupCommitStage::~GroupCommitStage() { Drain(); }

bool GroupCommitStage::HasPending() const {
  MutexLock lock(mu_);
  return !pending_.empty();
}

std::shared_ptr<CommitTicket> GroupCommitStage::Submit(int64_t txn_id,
                                                       int64_t commit_ts) {
  std::shared_ptr<CommitTicket> ticket(new CommitTicket(txn_id, commit_ts));
  ticket->arrival_micros_ = RealClock::Instance()->NowMicros();
  {
    MutexLock lock(mu_);
    if (draining_) {
      ticket->Complete(0, Status::Aborted("commit stage draining"));
      return ticket;
    }
    pending_.push_back(ticket);
    task_->Activate(stage_);
  }
  // A full batch need not wait out the window.
  window_cv_.NotifyAll();
  return ticket;
}

RunOutcome GroupCommitStage::RunFlush() {
  MutexLock lock(mu_);
  if (pending_.empty()) {
    return draining_ ? RunOutcome::kDone : RunOutcome::kBlocked;
  }
  // Hold the window open until the batch fills, the oldest ticket has waited
  // max_wait_us, or a drain forces the flush. This wait is the "group" in
  // group commit: it trades a bounded latency add for fsync amortization.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(std::max<int64_t>(
          0, pending_.front()->arrival_micros_ + options_.max_wait_us -
                 RealClock::Instance()->NowMicros()));
  while (!draining_ &&
         static_cast<int>(pending_.size()) < options_.max_batch) {
    if (window_cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  std::vector<std::shared_ptr<CommitTicket>> batch;
  const size_t take =
      std::min(pending_.size(), static_cast<size_t>(options_.max_batch));
  batch.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  lock.Unlock();

  const int64_t t0 = RealClock::Instance()->NowMicros();
  Status flush = Status::OK();
  std::vector<int64_t> lsns(batch.size(), 0);
  for (size_t i = 0; i < batch.size(); ++i) {
    storage::WalRecord r;
    r.txn_id = batch[i]->txn_id();
    r.type = storage::WalRecord::Type::kCommit;
    r.ts = batch[i]->commit_ts();
    auto lsn_or = wal_->Append(std::move(r));
    if (!lsn_or.ok()) {
      flush = lsn_or.status();
      break;
    }
    lsns[i] = *lsn_or;
  }
  if (flush.ok()) flush = wal_->Sync();
  const int64_t flush_us = RealClock::Instance()->NowMicros() - t0;
  // Counters update before the acks: a client whose Wait() returned must see
  // its own commit in counters().
  lock.Lock();
  commits_ += static_cast<int64_t>(batch.size());
  ++batches_;
  batch_size_.Record(static_cast<int64_t>(batch.size()));
  flush_micros_.Record(flush_us);
  lock.Unlock();
  // Ack ordering invariant: completions happen only after the Sync() barrier
  // and in LSN order (batch order == append order).
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i]->Complete(lsns[i], flush);
  }
  lock.Lock();
  if (!pending_.empty()) return RunOutcome::kYield;
  return draining_ ? RunOutcome::kDone : RunOutcome::kBlocked;
}

void GroupCommitStage::Drain() {
  {
    MutexLock lock(mu_);
    draining_ = true;
  }
  window_cv_.NotifyAll();
  // The flush packet retires only after acking every pending ticket, and
  // only once that retirement returns is the packet free of the runtime.
  task_->WaitRetired(stage_);
}

StageRuntime::GroupCommitCounters GroupCommitStage::counters() const {
  MutexLock lock(mu_);
  StageRuntime::GroupCommitCounters c;
  c.enabled = true;
  c.commits = commits_;
  c.batches = batches_;
  c.syncs = wal_->syncs();
  c.batch_size = batch_size_;
  c.flush_micros = flush_micros_;
  return c;
}

}  // namespace stagedb::engine
