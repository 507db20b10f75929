// Lock-free, sharded latency/accuracy accumulator for the live serving
// completion path.
//
// The live server's workers complete hundreds of thousands of requests
// per second, and the completion path is exactly where a shared lock would
// hurt most — every worker would take it once per request. This store has
// no lock at all:
//
//   * One shard per worker. Each worker writes only its own shard
//     (single-writer), so a Record is three relaxed fetch_adds on memory
//     no other writer touches — wait-free, no CAS loops, no contention.
//     Shards are cache-line aligned so writers don't false-share.
//
//   * Latency goes into an atomic copy of LogHistogramQuantile's bin
//     array (same geometry, via LogHistogramQuantile::BinIndex). Bins
//     make the store order- and interleaving-insensitive: folding the
//     shards gives bit-identical quantiles to a serial histogram fed the
//     same multiset of samples, whatever the thread schedule — which is
//     what lets the live path's latency summary be compared against the
//     simulated path's at all (tests/latency_store_test.cc).
//
//   * Means use fixed-point integer sums (latency in nanoseconds,
//     accuracy in parts-per-million). Integer addition commutes exactly —
//     a float sum would make the fold depend on accumulation order and
//     differ run to run at the ulp level.
//
// Reads fold shards on demand and are const — queries never mutate
// accumulator state (unlike ExactQuantile, whose nearest-rank query
// reorders its samples in place). A fold that races live writers sees
// each counter at some valid point (every field is a word-sized atomic,
// so torn values are impossible — ASan/TSan-checked in tests), but the
// set of counters is not one instant's
// snapshot; counts may disagree across shards by in-flight requests.
// Exact folds are obtained the way the live server does it: quiesce or
// join the writers first.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/quantile.h"

namespace clover {

class ShardedLatencyStore {
 public:
  explicit ShardedLatencyStore(std::size_t num_shards);

  // Wait-free; `shard` is the calling worker's index (mod num_shards).
  // Latency is clamped into the histogram's range by the bin mapping;
  // negative values count as the minimum bin.
  void Record(std::size_t shard, double latency_ms, double accuracy);

  // Folds all shards into a histogram equal to a serial
  // LogHistogramQuantile fed the same samples (bit-identical bins, hence
  // bit-identical quantiles).
  LogHistogramQuantile FoldHistogram() const;

  struct Totals {
    std::uint64_t count = 0;
    double mean_latency_ms = 0.0;  // from the exact ns integer sum
    double mean_accuracy = 0.0;    // from the exact ppm integer sum
  };
  Totals FoldTotals() const;

  std::uint64_t TotalCount() const;
  std::size_t num_shards() const { return num_shards_; }

  // Zeroes every shard. NOT safe concurrent with Record — callers reset
  // only between measurement windows with workers quiesced.
  void Reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, LogHistogramQuantile::kNumBins>
        bins{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> latency_ns_sum{0};
    std::atomic<std::uint64_t> accuracy_ppm_sum{0};
  };

  std::size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace clover
