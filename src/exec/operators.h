// The operator kernels: one implementation of each relational operator
// algorithm above the scans, shared by both engines. A kernel holds its
// state explicitly and is driven from outside, one row or one call at a
// time, so it can stop anywhere and resume later: the volcano Executors
// pull through it from Next(), and the staged engine's packets feed it
// morsels and stop at the end of a work quantum, park on an empty input or
// a full output, and resume on whichever worker runs them next. Staging
// changes who runs the operator code and when, never what it computes.
//
// The kernels allocate per table, not per row: the hash join and the hash
// aggregate keep their rows in one FlatRowTable each (a Value arena, a
// hash-and-link vector and a bucket array), read their input rows in place
// so the staged engine can hand them back to the producer as spares, and
// write each joined row into a row the caller supplies, which the staged
// join driver takes from its output edge's spares.
#ifndef STAGEDB_EXEC_OPERATORS_H_
#define STAGEDB_EXEC_OPERATORS_H_

#include <cstdint>
#include <optional>
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

/// Rows of one fixed width, kept row-major in a single Value arena, each with
/// its key hash and a chain link; a power-of-two array of bucket heads
/// threads the rows of each bucket into one chain. A row costs a slot in
/// two vectors, not a hash node, a key copy and a bucket vector, and the
/// whole table is a handful of vectors to free. The join table keeps its
/// build rows here and the hash aggregator its group keys.
///
/// The bucket of a row is its key hash finished with a multiplicative mix:
/// Value::Hash of an int64 is the integer itself, so masking the raw fold
/// would put every key that is a multiple of a large power of two into one
/// bucket.
class FlatRowTable {
 public:
  /// The chain link past a chain's last row.
  static constexpr uint32_t kEnd = UINT32_MAX;
  /// The most rows a table holds: row indexes are 32-bit.
  static constexpr size_t kMaxRows = kEnd;

  size_t size() const { return links_.size(); }
  bool empty() const { return links_.empty(); }
  /// Values per row: fixed by the first row appended.
  size_t width() const { return width_; }
  size_t num_buckets() const { return heads_.size(); }

  /// Row `i`'s values.
  const catalog::Value* row(uint32_t i) const {
    return values_.data() + static_cast<size_t>(i) * width_;
  }
  size_t hash(uint32_t i) const { return links_[i].hash; }

  /// Copies a row of `width` values (the table's width, once it has rows)
  /// from `first`, with key hash `hash`, and returns its index. The row is
  /// in no chain until the next Rethread.
  uint32_t Append(const catalog::Value* first, size_t width, size_t hash);
  /// Appends a row as Append does and links it into its bucket's chain,
  /// growing the bucket array when the rows outnumber it. Chain order is
  /// then unspecified.
  uint32_t Insert(const catalog::Value* first, size_t width, size_t hash);
  /// Rebuilds the bucket array, a power of two of at least `min_buckets`
  /// (and one) buckets, and threads every row into its bucket's chain from
  /// the last row to the first, so each chain walks in arrival order.
  void Rethread(size_t min_buckets);

  /// The first row of the chain rows hashed `hash` land in; kEnd when the
  /// table has no buckets yet.
  uint32_t Head(size_t hash) const {
    return heads_.empty() ? kEnd : heads_[Bucket(hash)];
  }
  /// The row after `i` in its chain, or kEnd.
  uint32_t Next(uint32_t i) const { return links_[i].next; }

  /// Drops every row and bucket, keeping the storage.
  void Clear();

 private:
  struct Link {
    size_t hash;
    uint32_t next;
  };

  size_t Bucket(size_t hash) const;

  size_t width_ = 0;
  std::vector<catalog::Value> values_;  // size() * width_ values, row-major
  std::vector<Link> links_;             // one per row
  std::vector<uint32_t> heads_;         // bucket -> first row, or kEnd
};

/// The build side of a hash or nested-loop join, and its probe cursor. Build
/// rows are copied into a FlatRowTable bucketed on the node's right_keys; a
/// probe row finds its chain by its left_keys and walks it in arrival order,
/// applying the join's residual predicate to every joined row. Keys match
/// when every column compares equal (Value::Compare == 0), so an int64 key
/// meets an integral double; a NULL key never matches. A nested-loop join is
/// the same table with zero keys: the planner folds a nested-loop join's
/// equi pairs into its residual, so every inner row lands in the one chain,
/// in input order.
class JoinTable {
 public:
  explicit JoinTable(const optimizer::PhysicalPlan& node);

  /// Copies a row of the build (right) input into the table; the caller
  /// keeps `row`. A row whose key holds a NULL can never match, so it is
  /// dropped.
  Status Build(const catalog::Tuple& row);
  /// Makes `row`, a row of the probe (left) input, the current probe row.
  /// The first Probe ends the build. `row` is read, not copied: it must stay
  /// alive and unchanged until NextMatch returns false.
  Status Probe(const catalog::Tuple& row);
  /// Writes the next joined row of the current probe row that passes the
  /// residual into `*out`, reusing its storage (the probe row's columns,
  /// then the build row's); false once that probe row has no more.
  StatusOr<bool> NextMatch(catalog::Tuple* out);

 private:
  /// True when probe row `*probe_` and build row `i` have equal keys.
  bool KeysMatch(uint32_t i) const;

  const optimizer::PhysicalPlan& node_;
  /// Each key list's largest column, plus one: a narrower row is an error.
  size_t min_left_width_ = 0, min_right_width_ = 0;
  FlatRowTable rows_;  // threaded into buckets by the first Probe
  const catalog::Tuple* probe_ = nullptr;
  size_t probe_hash_ = 0;
  uint32_t next_ = FlatRowTable::kEnd;  // the chain row NextMatch tries next
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
  /// Writes the next joined row that passes the residual into `*out`,
  /// reusing its storage; false once no key group remains.
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
  /// The output rows, one per group in the order the groups were first
  /// seen: the key columns, then each aggregate's final value (its partial
  /// state at a kPartial node). A global aggregate yields one row even over
  /// empty input, but only at the finalizing node: a kPartial packet that
  /// saw nothing emits nothing, and the kMerge node above supplies the row
  /// exactly once. Leaves the aggregator empty.
  std::vector<catalog::Tuple> Finish();

 private:
  /// The accumulators (one per aggregate) of the group whose key is the
  /// key_width_ values from `key`, added in first-seen order if new; a
  /// global aggregate (no key) has one group, kept outside the table.
  AggAccumulator* Group(const catalog::Value* key);

  const optimizer::PhysicalPlan& node_;
  size_t key_width_ = 0;  // group key columns at the front of an output row
  FlatRowTable groups_;   // group keys, in first-seen order
  /// Group i's accumulators: aggregates.size() of them from index i times
  /// that, parallel to groups_.
  std::vector<AggAccumulator> accs_;
  /// The keyless group, engaged once it has rows.
  std::optional<std::vector<AggAccumulator>> global_;
  catalog::Tuple key_;  // evaluated group key, reused per row
};

}  // namespace stagedb::exec

#endif  // STAGEDB_EXEC_OPERATORS_H_
