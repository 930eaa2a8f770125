// Shared pieces of the fixed-load wire benchmark: configuration, the
// deterministic request generators (a pure function of the seed), the
// server-child control protocol, and small timing/percentile helpers.
#ifndef STAGEDB_BENCH_BENCH_H_
#define STAGEDB_BENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace bench {

inline int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] inline void Die(const std::string& msg) {
  std::fprintf(stderr, "stagedb_bench: %s\n", msg.c_str());
  std::fflush(stderr);
  std::exit(2);
}

/// Run parameters: the fixed workload settings from workloads.json, passed
/// as --set key=value, plus the command-line flags.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
  std::map<std::string, std::string> kv;

  const std::string& Str(const std::string& key) const {
    auto it = kv.find(key);
    if (it == kv.end()) Die("missing workload setting '" + key + "'");
    return it->second;
  }
  double D(const std::string& key) const {
    const std::string& s = Str(key);
    char* end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
      Die("setting '" + key + "' is not a number: " + s);
    return v;
  }
  int64_t I(const std::string& key) const {
    return static_cast<int64_t>(std::llround(D(key)));
  }
};

// ----------------------------------------------------------------- requests

enum class Op : uint8_t { kRead, kUpdate, kScan };

inline bool IsWrite(Op op) { return op == Op::kUpdate; }

/// htap_mixed is the workload with open-loop point ops on table acct;
/// olap_scan runs closed-loop queries only, over Wisconsin tables wa and wb.
inline bool IsHtap(const Config& cfg) { return cfg.workload == "htap_mixed"; }
constexpr const char* kPointTable = "acct";

/// One generated request. Point ops travel as prepared EXECUTEs (`key`; an
/// update adds 1 to the row's v); scans travel as ad-hoc QUERY text (`sql`,
/// checked via `variant`, `lo`, `hi`).
struct Request {
  Op op = Op::kRead;
  int64_t at_us = 0;  // scheduled send time, offset from phase start
  int64_t key = 0;    // row id (read/update)
  int variant = 0;    // scan shape
  int64_t lo = 0, hi = 0;
  std::string sql;
};

/// Seed for one (connection, phase) stream, so streams never share draws.
inline uint64_t StreamSeed(uint64_t seed, int conn, int phase) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(conn) * 1000003ULL +
         static_cast<uint64_t>(phase) * 7919ULL + 1;
}

/// Open-loop point-op stream of one connection: Poisson arrivals at
/// `rate_qps`, reads in share `read_frac` and +1 updates otherwise, on
/// uniformly drawn keys. A key does not recur within `kKeySpacing` requests
/// of the stream, so two of its requests are never in flight on one row at
/// once (a second concurrent update would abort under first-updater-wins).
class PointStream {
 public:
  static constexpr size_t kKeySpacing = 64;
  PointStream(uint64_t seed, int conn, int phase, double rate_qps, int64_t rows,
              double read_frac)
      : rng_(StreamSeed(seed, conn, phase)),
        mean_gap_us_(1e6 / rate_qps),
        rows_(rows),
        read_frac_(read_frac) {}

  Request Next() {
    Request r;
    t_us_ += rng_.Exponential(mean_gap_us_);
    r.at_us = static_cast<int64_t>(t_us_);
    r.op = rng_.NextDouble() < read_frac_ ? Op::kRead : Op::kUpdate;
    do {
      r.key = static_cast<int64_t>(rng_.Uniform(static_cast<uint64_t>(rows_)));
    } while (recent_set_.count(r.key) > 0);
    recent_.push_back(r.key);
    recent_set_.insert(r.key);
    if (recent_.size() > kKeySpacing) {
      recent_set_.erase(recent_.front());
      recent_.pop_front();
    }
    return r;
  }

 private:
  stagedb::Rng rng_;
  double mean_gap_us_;
  double t_us_ = 0;
  int64_t rows_;
  double read_frac_;
  std::deque<int64_t> recent_;
  std::set<int64_t> recent_set_;
};

/// Wisconsin query shapes over tables wa and wb (the paper's Workload A: 1%
/// range selections and small aggregates; Workload B: joins). Literals vary
/// per request; literals of the join/aggregate shapes come from small fixed
/// sets so their answers can be precomputed once by a volcano reference.
constexpr int kJoinCutoffs = 8;
constexpr int kGroupLiterals = 20;
enum ScanVariant {
  kRangeRows = 0,    // SELECT unique1, stringu1 ... 1% range
  kRangeCountMin,    // SELECT COUNT(*), MIN(unique1) ... 1% range
  kRangeGroupSum,    // SELECT ten, SUM(unique2) ... 1% range GROUP BY ten
  kJoinCount,        // wa JOIN wb ON unique1 = unique2, cutoff on wa.unique2
  kJoinGroup,        // wa JOIN wb ON unique1 = unique1 GROUP BY wa.ten
  kGroupAgg,         // SELECT four, COUNT(*), SUM(unique1) FROM wb WHERE twenty = ?
  kFullSum,          // htap: SELECT SUM(v), COUNT(*) FROM acct
};

inline int64_t JoinCutoff(int64_t rows, int i) {
  return rows / 4 + (rows / 2) * i / kJoinCutoffs;
}

inline Request MakeScan(int variant, int64_t rows, int64_t lo) {
  Request r;
  r.op = Op::kScan;
  r.variant = variant;
  const int64_t span = std::max<int64_t>(1, rows / 100);
  char buf[320];
  switch (variant) {
    case kRangeRows:
    case kRangeCountMin:
    case kRangeGroupSum: {
      static const char* kSelect[] = {"unique1, stringu1",
                                      "COUNT(*), MIN(unique1)",
                                      "ten, SUM(unique2)"};
      r.lo = lo;
      r.hi = lo + span;
      std::snprintf(buf, sizeof(buf),
                    "SELECT %s FROM wa WHERE unique2 >= %lld AND unique2 < "
                    "%lld%s",
                    kSelect[variant], static_cast<long long>(r.lo),
                    static_cast<long long>(r.hi),
                    variant == kRangeGroupSum ? " GROUP BY ten" : "");
      break;
    }
    case kJoinCount:
      r.lo = JoinCutoff(rows, static_cast<int>(lo));
      std::snprintf(buf, sizeof(buf),
                    "SELECT COUNT(*), SUM(wa.unique1) FROM wa JOIN wb ON "
                    "wa.unique1 = wb.unique2 WHERE wa.unique2 < %lld",
                    static_cast<long long>(r.lo));
      break;
    case kJoinGroup:
      std::snprintf(buf, sizeof(buf),
                    "SELECT wa.ten, COUNT(*) FROM wa JOIN wb ON wa.unique1 = "
                    "wb.unique1 GROUP BY wa.ten");
      break;
    case kGroupAgg:
      r.lo = lo;
      std::snprintf(buf, sizeof(buf),
                    "SELECT four, COUNT(*), SUM(unique1) FROM wb WHERE twenty "
                    "= %lld GROUP BY four",
                    static_cast<long long>(lo));
      break;
    default:
      std::snprintf(buf, sizeof(buf), "SELECT SUM(v), COUNT(*) FROM acct");
      break;
  }
  r.sql = buf;
  return r;
}

/// Closed-loop query stream of one connection. olap_scan cycles a fixed
/// rotation of ten shapes (seven Workload A, two Workload B, one group
/// aggregate) from a seeded starting point, so every seed runs the same mix
/// and only the literals vary; htap_mixed issues full-table aggregates only.
class ScanStream {
 public:
  static constexpr int kRotation = 10;
  ScanStream(uint64_t seed, int conn, int phase, int64_t rows, bool htap)
      : rng_(StreamSeed(seed, conn + 100, phase)), rows_(rows), htap_(htap) {
    slot_ = static_cast<int>(rng_.Uniform(kRotation));
    cutoff_ = static_cast<int>(rng_.Uniform(kJoinCutoffs));
  }

  Request Next() {
    if (htap_) return MakeScan(kFullSum, rows_, 0);
    const int slot = slot_;
    slot_ = (slot_ + 1) % kRotation;
    const int64_t span = std::max<int64_t>(1, rows_ / 100);
    if (slot < 7) return MakeScan(slot % 3, rows_, rng_.UniformRange(0, rows_ - span));
    if (slot == 7) {
      cutoff_ = (cutoff_ + 1) % kJoinCutoffs;
      return MakeScan(kJoinCount, rows_, cutoff_);
    }
    if (slot == 8) return MakeScan(kJoinGroup, rows_, 0);
    return MakeScan(kGroupAgg, rows_, rng_.Uniform(kGroupLiterals));
  }

 private:
  stagedb::Rng rng_;
  int64_t rows_;
  bool htap_;
  int slot_ = 0;
  int cutoff_ = 0;
};

/// Point statements, prepared once per connection (and by the embedded
/// replay). Parameter order follows the placeholders.
inline std::string PointSql(Op op) {
  return op == Op::kRead
             ? std::string("SELECT id, v FROM ") + kPointTable + " WHERE id = ?"
             : std::string("UPDATE ") + kPointTable + " SET v = v + 1 WHERE id = ?";
}

/// Generator seed of Wisconsin table `index` (0 = wa, 1 = wb); the server's
/// loader, the volcano reference and the answer checker must agree on it.
inline uint64_t WisconsinSeed(uint64_t seed, int index) {
  return seed * 2 + static_cast<uint64_t>(index);
}

// --------------------------------------------------------------- statistics

/// Exact percentile (linear interpolation) of an unsorted sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

/// The highest percentile <= `p` that keeps at least ten samples beyond it
/// (the reporting rule for tails), returned with the percentile used.
inline std::pair<double, double> TailPercentile(const std::vector<double>& v,
                                                double p) {
  if (v.size() < 20) return {Percentile(v, 50), 50};
  const double supported =
      100.0 * (1.0 - 10.0 / static_cast<double>(v.size()));
  const double used = std::min(p, supported);
  return {Percentile(v, used), used};
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// FNV-1a over a byte string, chained.
inline uint64_t Fnv1a(const std::string& bytes, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace bench

#endif  // STAGEDB_BENCH_BENCH_H_
