#include "engine/vacuum_stage.h"

#include <chrono>

namespace stagedb::engine {

/// The stage's single long-lived packet, mirroring the group-commit flush
/// task: parked (kBlocked) while nothing is pending, woken via
/// Stage::Activate, one vacuum pass per Run(), retired once a drain finds
/// nothing pending.
class VacuumStage::VacuumTask : public ServiceTask {
 public:
  explicit VacuumTask(VacuumStage* owner) : owner_(owner) {}
  RunOutcome Run() override { return owner_->RunVacuum(); }
  bool CanMakeProgress() override { return owner_->HasPending(); }

 private:
  VacuumStage* owner_;
};

VacuumStage::VacuumStage(StageRuntime* runtime, catalog::Catalog* catalog,
                         Options options, StagePoolSpec pool)
    : catalog_(catalog), options_(options),
      stage_(runtime->CreateStage("vacuum", pool)),
      task_(std::make_unique<VacuumTask>(this)) {}

VacuumStage::~VacuumStage() { Drain(); }

bool VacuumStage::HasPending() const {
  MutexLock lock(mu_);
  return wake_pending_;
}

void VacuumStage::Wake() {
  {
    MutexLock lock(mu_);
    if (draining_) return;
    wake_pending_ = true;
    task_->Activate(stage_);
  }
}

RunOutcome VacuumStage::RunVacuum() {
  {
    MutexLock lock(mu_);
    if (!wake_pending_) {
      return draining_ ? RunOutcome::kDone : RunOutcome::kBlocked;
    }
    if (!draining_ && options_.window_us > 0) {
      // Batching window: let a burst of committing deletes coalesce into one
      // pass. The CondVar wait (not a sleep) lets Drain cut it short.
      window_cv_.WaitFor(mu_, std::chrono::microseconds(options_.window_us));
    }
    wake_pending_ = false;
  }
  // Reset the hint counter before the pass: marks that land mid-pass may be
  // counted twice (a harmless extra wake), never missed.
  catalog_->timestamp_authority()->ResetDeadVersions();
  auto reclaimed_or = catalog_->MvccVacuum();
  MutexLock lock(mu_);
  ++passes_;
  if (reclaimed_or.ok()) {
    reclaimed_ += *reclaimed_or;
  } else if (last_error_.ok()) {
    last_error_ = reclaimed_or.status();
  }
  if (wake_pending_) return RunOutcome::kYield;
  return draining_ ? RunOutcome::kDone : RunOutcome::kBlocked;
}

void VacuumStage::Drain() {
  {
    MutexLock lock(mu_);
    draining_ = true;
  }
  window_cv_.NotifyAll();
  // A wake that predates the drain still gets its pass; the packet retires
  // after it, and only then is it free of the runtime.
  task_->WaitRetired(stage_);
}

int64_t VacuumStage::passes() const {
  MutexLock lock(mu_);
  return passes_;
}

int64_t VacuumStage::versions_reclaimed() const {
  MutexLock lock(mu_);
  return reclaimed_;
}

Status VacuumStage::last_error() const {
  MutexLock lock(mu_);
  return last_error_;
}

}  // namespace stagedb::engine
