// stream-churn: one closed-loop writer feeding a DynamicGee.
//
// The engine (default options) is seeded from an R-MAT graph. One round
// is a pre-generated sequence of update batches: many small ones (1-100
// ops, half adds and half removals) with one large one (10^4 ops, 95%
// adds, so its coalesced deltas clear the engine's parallel-apply
// threshold of 8192) in the middle, then a closing batch
// that restores the seed graph -- it re-adds the seed edges the round
// removed and removes the edges the round added. Every round therefore
// starts from the same live edge multiset and replays the same
// operations, and the run repeats whole rounds until --seconds are used.
// Adds follow the R-MAT distribution (hub rows churn most); removals pick
// uniformly among edges that are live at that point of the round.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>

#include "common.hpp"
#include "gee/gee.hpp"
#include "inputs.hpp"
#include "reference.hpp"
#include "stream/dynamic_gee.hpp"
#include "stream/update_batch.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kScale = 16;
constexpr std::uint64_t kEdgeFactor = 8;
constexpr int kClasses = 50;
constexpr double kLabelFraction = 0.1;
constexpr int kSmallBatches = 40;
constexpr int kSmallMax = 100;
constexpr int kLargeOps = 10000;
constexpr int kBorrowed = 3000;  ///< seed edges a round may remove
constexpr int kSetupRepeats = 3;

struct Op {
  std::uint32_t u, v;
  bool add;
};

enum class Kind { kSmall, kLarge, kClosing };

struct Batch {
  Kind kind;
  std::vector<Op> ops;
  gee::stream::UpdateBatch batch;
};

/// One round's batches, and the live edge list at the round's midpoint
/// (after the large batch) for the mid-round check.
struct Round {
  std::vector<Batch> batches;
  std::size_t mid = 0;  ///< batches before the midpoint
  std::vector<std::uint32_t> mid_src, mid_dst;
};

Round make_round(const inputs::EdgeArrays& base, std::uint64_t seed) {
  Round round;
  inputs::SplitMix rng(seed * 0x5851f42d4c957f2dull + 11);
  // Fresh adds come from an R-MAT stream of the same shape as the seed.
  const inputs::EdgeArrays fresh = inputs::rmat(kScale, 1, seed + 7);
  std::size_t next_fresh = 0;

  // Removable pool: live edges a round may remove, each with its seed
  // index (kFresh for edges this round added). Seed edges are borrowed
  // by distinct index, so no removal outruns a multiplicity.
  constexpr std::size_t kFresh = ~std::size_t{0};
  struct Live {
    std::uint32_t u, v;
    std::size_t seed_index;
  };
  std::vector<Live> pool;
  std::vector<std::size_t> removed_seed;
  std::vector<std::size_t> order(base.src.size());
  for (std::size_t e = 0; e < order.size(); ++e) order[e] = e;
  for (int i = 0; i < kBorrowed; ++i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(i) + rng.below(order.size() - i)]);
    const std::size_t e = order[static_cast<std::size_t>(i)];
    pool.push_back({base.src[e], base.dst[e], e});
  }
  // remove_in_20: chance, out of 20, that an op removes a live edge.
  const auto draw_batch = [&](Kind kind, int size, std::uint64_t remove_in_20) {
    Batch b{kind, {}, {}};
    for (int i = 0; i < size; ++i) {
      if (!pool.empty() && rng.below(20) < remove_in_20) {
        const std::size_t j = rng.below(pool.size());
        const Live edge = pool[j];
        pool[j] = pool.back();
        pool.pop_back();
        b.ops.push_back({edge.u, edge.v, false});
        if (edge.seed_index != kFresh) removed_seed.push_back(edge.seed_index);
      } else {
        const std::uint32_t u = fresh.src[next_fresh];
        const std::uint32_t v = fresh.dst[next_fresh];
        next_fresh = (next_fresh + 1) % fresh.src.size();
        b.ops.push_back({u, v, true});
        pool.push_back({u, v, kFresh});
      }
    }
    round.batches.push_back(std::move(b));
  };
  // Small-batch sizes are spread evenly over 1..kSmallMax and shuffled, so
  // every seed applies the same mix of sizes (only their order and
  // contents change) and the median small apply compares across seeds.
  std::vector<int> small_sizes;
  for (int i = 0; i < kSmallBatches; ++i) {
    small_sizes.push_back(1 + (i * kSmallMax + kSmallMax / 2) / kSmallBatches);
  }
  for (std::size_t i = small_sizes.size(); i > 1; --i) {
    std::swap(small_sizes[i - 1], small_sizes[rng.below(i)]);
  }
  for (int i = 0; i < kSmallBatches; ++i) {
    if (i == kSmallBatches / 2) {
      draw_batch(Kind::kLarge, kLargeOps, 1);
      round.mid = round.batches.size();
      // Live multiset here: seed minus removed seed edges plus fresh adds.
      std::vector<bool> gone(base.src.size(), false);
      for (const std::size_t e : removed_seed) gone[e] = true;
      for (std::size_t e = 0; e < base.src.size(); ++e) {
        if (gone[e]) continue;
        round.mid_src.push_back(base.src[e]);
        round.mid_dst.push_back(base.dst[e]);
      }
      for (const Live& edge : pool) {
        if (edge.seed_index != kFresh) continue;
        round.mid_src.push_back(edge.u);
        round.mid_dst.push_back(edge.v);
      }
    }
    draw_batch(Kind::kSmall, small_sizes[static_cast<std::size_t>(i)], 10);
  }
  Batch closing{Kind::kClosing, {}, {}};
  for (const std::size_t e : removed_seed) {
    closing.ops.push_back({base.src[e], base.dst[e], true});
  }
  for (const Live& edge : pool) {
    if (edge.seed_index == kFresh) closing.ops.push_back({edge.u, edge.v, false});
  }
  round.batches.push_back(std::move(closing));
  for (Batch& b : round.batches) {
    b.batch.reserve(b.ops.size());
    for (const Op& op : b.ops) {
      if (op.add) {
        b.batch.add(op.u, op.v);
      } else {
        b.batch.remove(op.u, op.v);
      }
    }
  }
  return round;
}

}  // namespace

Outcome run_stream(const Args& args) {
  Outcome out;
  const inputs::EdgeArrays base = inputs::rmat(kScale, kEdgeFactor, args.seed);
  const std::vector<std::int32_t> labels =
      inputs::labels(base.n, kClasses, kLabelFraction, args.seed + 1);
  const ref::Projection proj = ref::project(labels, kClasses);
  const std::vector<double> z_base =
      ref::embed(base.n, labels, proj, ref::Edges{base.src, base.dst});
  const ref::Tolerance tol{1e-9 * proj.min_weight, 1e-9};
  Round round = make_round(base, args.seed + 2);
  const std::vector<double> z_mid = ref::embed(
      base.n, labels, proj, ref::Edges{round.mid_src, round.mid_dst});
  const gee::graph::EdgeList seed_edges =
      gee::graph::EdgeList::adopt(base.n, base.src, base.dst);

  const double rss_before_library = peak_rss_bytes();
  gee::core::Options options;
  options.num_classes = kClasses;
  std::vector<double> construct_s;
  std::unique_ptr<gee::stream::DynamicGee> engine;
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine.reset();
    trace::Span span("stream.construct");
    engine = std::make_unique<gee::stream::DynamicGee>(seed_edges, labels, options);
    construct_s.push_back(span.end());
  }

  const auto check_snapshot = [&](const std::vector<double>& want, const char* when) {
    const gee::stream::Snapshot snap = engine->snapshot();
    if (auto e = ref::check_matrix(snap->data(), want, base.n, kClasses, tol);
        !e.empty()) {
      out.fail_check(std::string("stream snapshot ") + when + ": " + e);
    }
  };

  std::vector<double> small_s, large_s, coalesce_s;
  // apply() time of each round, split by whether a drift rebuild fired in
  // it. The throughput charges every round the median plain round and adds
  // each rebuild's extra time, so a burst of host noise in a few rounds
  // does not move it, while the rebuilds' own cost still counts.
  std::vector<double> plain_round_s, rebuild_round_s;
  std::uint64_t raw_ops = 0;
  std::uint64_t rounds = 0;
  const auto t0 = Clock::now();
  do {
    double round_s = 0;
    bool rebuilt = false;
    for (std::size_t i = 0; i < round.batches.size(); ++i) {
      if (rounds == 0 && i == round.mid) check_snapshot(z_mid, "mid-round");
      const Batch& b = round.batches[i];
      if (args.trace && b.kind == Kind::kLarge) {
        trace::Span span("stream.coalesce");
        const auto deltas = b.batch.coalesce();
        coalesce_s.push_back(span.end());
      }
      ++out.attempted;
      try {
        trace::Span span(b.kind == Kind::kSmall   ? "stream.apply.small"
                         : b.kind == Kind::kLarge ? "stream.apply.large"
                                                  : "stream.apply.closing");
        const auto report = engine->apply(b.batch);
        const double s = span.end();
        round_s += s;
        raw_ops += b.batch.size();
        rebuilt = rebuilt || report.rebuilt;
        if (b.kind == Kind::kSmall) small_s.push_back(s);
        if (b.kind == Kind::kLarge) large_s.push_back(s);
      } catch (const std::exception& e) {
        ++out.failed;
        out.errors.push_back(std::string("apply threw: ") + e.what());
      }
    }
    ++rounds;
    (rebuilt ? rebuild_round_s : plain_round_s).push_back(round_s);
    check_snapshot(z_base, "at round end");
  } while (seconds_since(t0) < args.seconds);

  const double plain_s = median(plain_round_s);
  double rebuild_extra_s = 0;
  for (const double s : rebuild_round_s) rebuild_extra_s += s - plain_s;
  const double updates_per_s =
      static_cast<double>(raw_ops) /
      (plain_s * static_cast<double>(rounds) + rebuild_extra_s);
  const double apply_p50 = median(small_s);
  out.end_to_end["setup_s"] = {median(construct_s), "s"};
  out.end_to_end["latency_p50_s"] = {apply_p50, "s"};
  out.end_to_end["throughput_per_s"] = {updates_per_s, "1/s"};
  double own = bytes_of(base.src) + bytes_of(base.dst) + bytes_of(z_base) +
               bytes_of(z_mid) + bytes_of(proj.vertex_weight) +
               bytes_of(round.mid_src) + bytes_of(round.mid_dst);
  for (const Batch& b : round.batches) own += bytes_of(b.ops);
  record_peak_rss(out, own, rss_before_library);
  const auto& st = engine->stats();
  out.report.push_back("seed graph: n=" + std::to_string(base.n) + " edges=" +
                       std::to_string(base.src.size()) + " K=50 labels=10%; round = " +
                       std::to_string(round.batches.size()) + " batches, " +
                       std::to_string(raw_ops / std::max<std::uint64_t>(rounds, 1)) +
                       " ops");
  out.report.push_back(fmt("stream_updates_per_s %.1f ops/s", updates_per_s) +
                       fmt(" | stream_apply_p50_s %.6g s", apply_p50) + " | rounds " +
                       std::to_string(rounds) + " | rebuilds " +
                       std::to_string(st.rebuilds) + " | buffer copies " +
                       std::to_string(st.buffer_copies) + " promotions " +
                       std::to_string(st.buffer_promotions));
  if (args.trace) {
    const double r = static_cast<double>(rounds);
    auto& L = out.per_layer;
    L["stream.construct_s"] = {median(trace::durations("stream.construct")), "s"};
    L["stream.coalesce_s"] = {median(coalesce_s), "s"};
    L["stream.apply_large_p50_s"] = {median(large_s), "s"};
    L["stream.buffer_copies"] = {static_cast<double>(st.buffer_copies) / r, "count"};
    L["stream.buffer_promotions"] = {static_cast<double>(st.buffer_promotions) / r,
                                     "count"};
    L["stream.rebuilds"] = {static_cast<double>(st.rebuilds) / r, "count"};
    L["stream.parallel_batches"] = {static_cast<double>(st.parallel_batches) / r,
                                    "count"};
  }
  return out;
}

}  // namespace perfbench
