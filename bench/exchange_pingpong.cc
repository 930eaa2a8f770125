// Microbenchmark for the exchange-edge queue swap: the mutex-guarded
// ExchangeBuffer vs the lock-free SpscRingBuffer, in isolation from the rest
// of the engine. Three shapes:
//
//   * streaming   — a producer thread pushes a fixed item count through the
//     buffer while a consumer drains it, in batches of 1 and of 64 rows
//     (the batched-ABI shape). This is the shape every exchange edge in the
//     engine actually has, so the per-item cost derived from the b1 run is
//     the headline gate: `spsc_speedup_stream_b1` is "the ring beats the
//     mutex" number the checked-in baseline records.
//   * uncontended — one thread alternates push/pop on one buffer: the queue
//     machinery alone, no second thread. Informative but NOT the headline;
//     a single-core uncontended glibc mutex is ~4 plain locked ops and can
//     edge out the ring's two XCHG-fenced index publishes when nothing ever
//     contends — the ring's win is cross-thread hand-off, which streaming
//     measures.
//   * pingpong    — two threads bounce one batch over a request/reply buffer
//     pair: the classic latency shape. Reported in nanos per hop and left
//     out of the perf gate on purpose: a 2-thread yield-spin round trip on a
//     shared CI runner swings far beyond any useful tolerance.
//
// Every pop checksums the tuple payloads; `spsc_vs_mutex_divergence` counts
// configurations where the two implementations did not deliver the identical
// item count + checksum for the identical workload. It must be 0 and is a
// hard (tolerance-free) CI gate via tools/bench_compare.py.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "catalog/tuple.h"
#include "engine/exchange.h"

namespace stagedb {
namespace {

using catalog::Tuple;
using catalog::Value;
using engine::ExchangeBuffer;
using engine::RowBatch;
using engine::SpscRingBuffer;

constexpr size_t kCapacityPages = 8;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<ExchangeBuffer> MakeBuffer(bool spsc) {
  if (spsc) return std::make_unique<SpscRingBuffer>(kCapacityPages);
  return std::make_unique<ExchangeBuffer>(kCapacityPages);
}

RowBatch MakeBatch(int64_t start, int rows) {
  RowBatch b;
  b.reserve(rows);
  for (int i = 0; i < rows; ++i) {
    b.push_back({Value::Int(start + i), Value::Int((start + i) * 31)});
  }
  return b;
}

uint64_t BatchChecksum(const RowBatch& b) {
  uint64_t sum = 0;
  for (const Tuple& t : b.tuples) {
    for (const Value& v : t) {
      sum += static_cast<uint64_t>(v.int_value()) * 2654435761u + 1;
    }
  }
  return sum;
}

struct RunResult {
  double ms = 0;
  uint64_t items = 0;
  uint64_t checksum = 0;
};

/// One thread alternating push/pop: per-item queue machinery cost. The
/// payload batch is recycled (pop hands the buffer back to the next push) so
/// the loop measures the queue, not the allocator.
RunResult RunUncontended(bool spsc, int64_t iters) {
  auto buf = MakeBuffer(spsc);
  RunResult r;
  RowBatch in = MakeBatch(0, 1);
  RowBatch out;
  bool eof = false;
  const double t0 = NowMs();
  for (int64_t i = 0; i < iters; ++i) {
    if (buf->TryPush(&in) != ExchangeBuffer::PushResult::kOk) break;
    if (!buf->TryPop(&out, &eof)) break;
    r.checksum += BatchChecksum(out);
    r.items += out.size();
    in = std::move(out);
  }
  r.ms = NowMs() - t0;
  return r;
}

/// Producer thread pushes `total_items` in batches of `batch_size`; the
/// calling thread drains. Wall time covers first push to last pop.
RunResult RunStreaming(bool spsc, int64_t total_items, int batch_size) {
  auto buf = MakeBuffer(spsc);
  RunResult r;
  const double t0 = NowMs();
  std::thread producer([&] {
    RowBatch b;
    for (int64_t sent = 0; sent < total_items;) {
      const int rows = static_cast<int>(
          std::min<int64_t>(batch_size, total_items - sent));
      b = MakeBatch(sent, rows);
      while (buf->TryPush(&b) == ExchangeBuffer::PushResult::kFull) {
        std::this_thread::yield();
      }
      sent += rows;
    }
    buf->MarkEof();
  });
  RowBatch out;
  bool eof = false;
  while (true) {
    if (buf->TryPop(&out, &eof)) {
      r.checksum += BatchChecksum(out);
      r.items += out.size();
    } else if (eof) {
      break;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();
  r.ms = NowMs() - t0;
  return r;
}

/// Two threads bounce one batch over a request/reply pair of buffers.
RunResult RunPingpong(bool spsc, int64_t round_trips, int batch_size) {
  auto request = MakeBuffer(spsc);
  auto reply = MakeBuffer(spsc);
  RunResult r;
  std::thread echoer([&] {
    RowBatch b;
    bool eof = false;
    while (true) {
      if (request->TryPop(&b, &eof)) {
        while (reply->TryPush(&b) == ExchangeBuffer::PushResult::kFull) {
          std::this_thread::yield();
        }
      } else if (eof) {
        reply->MarkEof();
        return;
      } else {
        std::this_thread::yield();
      }
    }
  });
  const double t0 = NowMs();
  RowBatch b;
  bool eof = false;
  for (int64_t i = 0; i < round_trips; ++i) {
    b = MakeBatch(i, batch_size);
    while (request->TryPush(&b) == ExchangeBuffer::PushResult::kFull) {
      std::this_thread::yield();
    }
    while (!reply->TryPop(&b, &eof)) std::this_thread::yield();
    r.checksum += BatchChecksum(b);
    r.items += b.size();
  }
  r.ms = NowMs() - t0;
  request->MarkEof();
  echoer.join();
  return r;
}

/// Best-of-N wall time (checksum/items must agree across reps).
template <typename Fn>
RunResult BestOf(int reps, Fn fn) {
  RunResult best;
  for (int i = 0; i < reps; ++i) {
    RunResult r = fn();
    if (i == 0 || r.ms < best.ms) best = r;
  }
  return best;
}

}  // namespace
}  // namespace stagedb

int main(int argc, char** argv) {
  using namespace stagedb;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);

  const int reps = 3;
  const int64_t uncontended_iters = args.smoke ? 20000 : 400000;
  const int64_t stream_items = args.smoke ? 100000 : 2000000;
  const int64_t round_trips = args.smoke ? 2000 : 50000;

  bench::JsonReport report("exchange_pingpong");
  report.Add("smoke", args.smoke);
  report.Add("capacity_pages", static_cast<int64_t>(kCapacityPages));
  report.Add("uncontended_iters", uncontended_iters);
  report.Add("stream_items", stream_items);
  report.Add("pingpong_round_trips", round_trips);

  int64_t divergence = 0;

  // --- streaming: producer/consumer hand-off, batch sizes 1 and 64. The
  // b1 per-item micros are the headline per-item cost the CI gate records.
  double mutex_stream_us = 0;
  double spsc_stream_us = 0;
  for (const int batch_size : {1, 64}) {
    const RunResult ms_ = BestOf(reps, [&] {
      return RunStreaming(false, stream_items, batch_size);
    });
    const RunResult ss = BestOf(reps, [&] {
      return RunStreaming(true, stream_items, batch_size);
    });
    if (ms_.items != ss.items || ms_.checksum != ss.checksum) ++divergence;
    const std::string suffix = "_b" + std::to_string(batch_size);
    report.Add("mutex_stream" + suffix + "_items_per_sec",
               ms_.items * 1000.0 / ms_.ms);
    report.Add("spsc_stream" + suffix + "_items_per_sec",
               ss.items * 1000.0 / ss.ms);
    if (batch_size == 1) {
      mutex_stream_us = ms_.ms * 1000.0 / static_cast<double>(ms_.items);
      spsc_stream_us = ss.ms * 1000.0 / static_cast<double>(ss.items);
      report.Add("mutex_stream_b1_micros_per_item", mutex_stream_us);
      report.Add("spsc_stream_b1_micros_per_item", spsc_stream_us);
      report.Add("spsc_speedup_stream_b1", mutex_stream_us / spsc_stream_us);
    }
  }

  // --- uncontended: single-thread queue machinery cost (informational) ---
  const RunResult mu = BestOf(reps, [&] {
    return RunUncontended(false, uncontended_iters);
  });
  const RunResult su = BestOf(reps, [&] {
    return RunUncontended(true, uncontended_iters);
  });
  if (mu.items != su.items || mu.checksum != su.checksum) ++divergence;
  const double mutex_item_us = mu.ms * 1000.0 / static_cast<double>(mu.items);
  const double spsc_item_us = su.ms * 1000.0 / static_cast<double>(su.items);
  report.Add("mutex_uncontended_micros_per_item", mutex_item_us);
  report.Add("spsc_uncontended_micros_per_item", spsc_item_us);

  // --- pingpong: latency shape; informational (nanos, not gated) --------
  const RunResult mp = BestOf(reps, [&] {
    return RunPingpong(false, round_trips, 1);
  });
  const RunResult sp = BestOf(reps, [&] {
    return RunPingpong(true, round_trips, 1);
  });
  if (mp.items != sp.items || mp.checksum != sp.checksum) ++divergence;
  // Two hops (request + reply) per round trip.
  report.Add("mutex_pingpong_hop_nanos",
             mp.ms * 1e6 / static_cast<double>(2 * round_trips));
  report.Add("spsc_pingpong_hop_nanos",
             sp.ms * 1e6 / static_cast<double>(2 * round_trips));

  report.Add("spsc_vs_mutex_divergence", divergence);
  if (args.json) {
    report.Print();
  } else {
    std::printf("exchange_pingpong: stream b1 mutex %.3f us/item, spsc %.3f "
                "us/item (%.2fx); uncontended mutex %.3f spsc %.3f; "
                "divergence %lld\n",
                mutex_stream_us, spsc_stream_us,
                mutex_stream_us / spsc_stream_us, mutex_item_us, spsc_item_us,
                static_cast<long long>(divergence));
  }
  return divergence == 0 ? 0 : 1;
}
