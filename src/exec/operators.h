// The operator kernels: one implementation of each relational operator
// algorithm above the scans, shared by both engines. A kernel holds its
// state explicitly and is driven from outside, one row or one call at a
// time, so it can stop anywhere and resume later: the volcano Executors
// pull through it from Next(), and the staged engine's packets feed it
// morsels and stop at the end of a work quantum, park on an empty input or
// a full output, and resume on whichever worker runs them next. Staging
// changes who runs the operator code and when, never what it computes.
#ifndef STAGEDB_EXEC_OPERATORS_H_
#define STAGEDB_EXEC_OPERATORS_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "exec/row_utils.h"
#include "optimizer/plan.h"

namespace stagedb::exec {

/// A Project node's output row: its expressions evaluated over `in`.
Status ProjectRow(const optimizer::PhysicalPlan& node,
                  const catalog::Tuple& in, catalog::Tuple* out);

/// Sorts `rows` on `keys` (a Sort node's ORDER BY): stable, so equal keys
/// keep their input order, with NULLs first ascending and last descending.
Status SortRows(const std::vector<optimizer::SortKey>& keys,
                std::vector<catalog::Tuple>* rows);

/// The build side of a hash or nested-loop join, and its probe cursor. Rows
/// are bucketed on the node's right_keys; a probe row finds its bucket by
/// its left_keys and walks it in arrival order, applying the join's residual
/// predicate to every joined row. A nested-loop join is the same table with
/// zero keys: the planner folds a nested-loop join's equi pairs into its
/// residual, so every inner row lands in the one bucket, in input order.
class JoinTable {
 public:
  explicit JoinTable(const optimizer::PhysicalPlan& node) : node_(node) {}

  /// Adds a row of the build (right) input. A row whose key holds a NULL can
  /// never match, so it is dropped.
  Status Build(catalog::Tuple row);
  /// Makes `row`, a row of the probe (left) input, the current probe row.
  Status Probe(catalog::Tuple row);
  /// Writes the next joined row of the current probe row that passes the
  /// residual to `*out`; false once that probe row has no more.
  StatusOr<bool> NextMatch(catalog::Tuple* out);

 private:
  /// Loads `row`'s key columns into key_.
  Status LoadKey(const catalog::Tuple& row, const std::vector<size_t>& cols);

  const optimizer::PhysicalPlan& node_;
  std::unordered_map<RowKey, std::vector<catalog::Tuple>, RowKeyHash>
      buckets_;
  RowKey key_;  // reused per row: a lookup allocates nothing
  catalog::Tuple probe_;
  const std::vector<catalog::Tuple>* matches_ = nullptr;
  size_t next_ = 0;
};

/// A sort-merge join: both inputs are added whole, sorted on their keys,
/// then walked one pair of equal-key groups at a time, emitting each pair's
/// cross product. NULL keys never match.
class MergeJoin {
 public:
  explicit MergeJoin(const optimizer::PhysicalPlan& node) : node_(node) {}

  /// Adds a row of the left (side 0) or right (side 1) input.
  void Add(int side, catalog::Tuple row) {
    rows_[side].push_back(std::move(row));
  }
  /// Sorts both inputs; call once, after the last Add.
  void Sort();
  /// Writes the next joined row that passes the residual to `*out`; false
  /// once no key group remains.
  StatusOr<bool> Next(catalog::Tuple* out);

 private:
  /// Moves the group cursors to the next pair of equal, non-NULL keys.
  bool AdvanceGroups();

  const optimizer::PhysicalPlan& node_;
  std::vector<catalog::Tuple> rows_[2];
  size_t lg_begin_ = 0, lg_end_ = 0, rg_begin_ = 0, rg_end_ = 0;
  size_t li_ = 0, ri_ = 0;
};

/// Streaming accumulator for one aggregate function within one group.
struct AggAccumulator {
  int64_t count = 0;
  int64_t int_sum = 0;  // integer SUM: exact, overflow is an error
  double sum = 0;       // double SUM, and AVG
  catalog::Value min, max;
  bool any = false;
};

/// Folds one input value into an accumulator (v already non-NULL unless
/// COUNT(*), which passes Int(1)). An integer SUM that leaves int64 range is
/// an InvalidArgument error.
Status AggAccumulate(AggAccumulator* acc, const optimizer::AggSpec& spec,
                     const catalog::Value& v);

/// Produces the final aggregate value.
catalog::Value AggFinalize(const optimizer::AggSpec& spec,
                           const AggAccumulator& acc);

/// Mergeable partial-aggregation state (§4.3 intra-operator parallelism). A
/// kPartial node emits, per group, the group key columns followed by each
/// aggregate's partial state; the kMerge node above folds those columns back
/// into accumulators and finalizes as usual. The columns per aggregate are
/// optimizer::PartialStateTypes: one for COUNT/SUM/MIN/MAX, two (sum,
/// non-NULL count) for AVG, whose division must wait until every
/// partition's sums are combined.
size_t PartialStateWidth(const optimizer::AggSpec& spec);

/// Appends the partial (mergeable) state of `acc` to `row`.
void AppendPartialState(const optimizer::AggSpec& spec,
                        const AggAccumulator& acc, catalog::Tuple* row);

/// Folds the partial state of `spec` starting at (*col) of `row` into `acc`,
/// advancing *col past the consumed state columns.
Status MergePartialState(const optimizer::AggSpec& spec,
                         const catalog::Tuple& row, size_t* col,
                         AggAccumulator* acc);

/// A kHashAggregate node in any of its modes: kComplete folds input rows and
/// finalizes, kPartial folds input rows and emits partial states, kMerge
/// folds partial-state rows and finalizes.
class HashAggregator {
 public:
  explicit HashAggregator(const optimizer::PhysicalPlan& node);

  /// Folds one row of the node's input.
  Status Add(const catalog::Tuple& row);
  /// The output rows, one per group: the key columns, then each aggregate's
  /// final value (its partial state at a kPartial node). A global aggregate
  /// yields one row even over empty input, but only at the finalizing node:
  /// a kPartial packet that saw nothing emits nothing, and the kMerge node
  /// above supplies the row exactly once. Leaves the aggregator empty.
  std::vector<catalog::Tuple> Finish();

 private:
  /// The accumulators of key_'s group; a global aggregate (no key) has one
  /// group, kept outside the hash table.
  std::vector<AggAccumulator>& Group();

  const optimizer::PhysicalPlan& node_;
  size_t key_width_ = 0;  // group key columns at the front of an output row
  std::unordered_map<RowKey, std::vector<AggAccumulator>, RowKeyHash> groups_;
  /// The keyless group, engaged once it has rows.
  std::optional<std::vector<AggAccumulator>> global_;
  RowKey key_;  // reused per row: a lookup allocates nothing
};

}  // namespace stagedb::exec

#endif  // STAGEDB_EXEC_OPERATORS_H_
