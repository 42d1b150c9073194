// serve-mixed: a net::Server over a 2-shard owned tier, driven over
// unix-socket connections from this process.
//
// Requests mix in-sample lookups, out-of-sample queries, lookup batches
// and rare cross-shard top-k scans. Phases 1 and 2 run against each of
// three servers in turn (constructing them is the timed set-up), and
// their samples are pooled; phase 3 runs once:
//  1. open loop: Poisson arrivals at a fixed absolute rate below capacity,
//     pipelined over two connections, latency timed from each request's
//     scheduled arrival; a writer applies update batches through
//     Server::apply at a fixed cadence beside the reads;
//  2. closed loop: a fixed number of requests, each connection keeping a
//     small window outstanding (far below the lanes' admission budget, so
//     nothing is shed);
//  3. slow reader, on a second server built from fixed inputs: one
//     connection pipelines large lookup_batch frames and never reads, a
//     well-behaved client then sends a fixed number of lookups with a
//     short deadline, the slow connection closes and the server stops.
//     The lane worker writing to the stalled peer blocks (the reply path
//     writes with a blocking send and no timeout), so every one of those
//     lookups misses its deadline; they are this workload's failed
//     operations, the same count on every run.
// After the writer stops, sampled lookups and top-k replies are checked
// against the reference Z of the benchmark's own live edge multiset.
#include <malloc.h>
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "common.hpp"
#include "inputs.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "reference.hpp"
#include "shard/router.hpp"
#include "shard/shard_set.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Request = gee::shard::Router::Request;
using Kind = Request::Kind;

constexpr int kScale = 16;
constexpr std::uint64_t kEdgeFactor = 8;
constexpr int kClasses = 50;
constexpr double kLabelFraction = 0.1;
constexpr int kShards = 2;
constexpr int kConnections = 2;
constexpr int kSegments = 3;  ///< servers constructed and driven per run
// Request mix, in percent. Lookups and out-of-sample queries keep
// bench/bench_slo.cpp's defaults: a 4:1 lookup:query split
// (--oos-fraction 0.2), 16 neighbours per query (--fanout 16), weights
// 1-4. The lookup_batch and top-k shares and sizes are assumptions; no
// measured traffic fixes them.
constexpr int kTopKPct = 1, kBatchPct = 14;
constexpr int kQueryPct = (100 - kTopKPct - kBatchPct) / 5;  // 17
constexpr int kLookupPct = 100 - kTopKPct - kBatchPct - kQueryPct;  // 68
constexpr int kQueryFanout = 16;
constexpr int kLookupBatch = 32;
constexpr int kTopK = 10;
// Phase 1: open loop. The writer keeps bench_slo's defaults
// (--write-interval-ms 10, --write-batch 256 weighted adds).
constexpr double kRate = 4000;         ///< requests per second
constexpr double kOpenShare = 0.45;    ///< of --seconds
constexpr double kWriterPeriod = 0.01; ///< seconds between writer batches
constexpr int kWriterOps = 256;        ///< adds per writer batch
// Phase 2: closed loop.
constexpr int kWindow = 32;                  ///< outstanding per connection
constexpr double kClosedPerSecond = 10000;   ///< requests per --seconds second
// Post-writer checks.
constexpr int kCheckLookups = 256;
constexpr int kCheckTopK = 4;
// Phase 3: slow reader (fixed inputs, independent of --seed).
constexpr std::uint32_t kSlowN = 4000;
constexpr std::uint64_t kSlowM = 16000;
constexpr std::uint64_t kSlowSeed = 20240204;
constexpr int kSlowFrames = 40;
constexpr int kGoodLookups = 8;
constexpr double kGoodDeadline = 0.5;
constexpr double kRecvTimeout = 20;  ///< a reply later than this is lost

Request draw_request(inputs::SplitMix& rng, std::uint32_t n) {
  Request req;
  const auto pick = rng.below(100);
  if (pick < kLookupPct) {
    req.kind = Kind::kLookup;
    req.vertex = static_cast<std::uint32_t>(rng.below(n));
  } else if (pick < kLookupPct + kQueryPct) {
    req.kind = Kind::kQuery;
    for (int i = 0; i < kQueryFanout; ++i) {
      const auto v = static_cast<std::uint32_t>(rng.below(n));
      req.query.neighbors.push_back({v, static_cast<float>(1 + rng.below(4))});
    }
  } else if (pick < kLookupPct + kQueryPct + kBatchPct) {
    req.kind = Kind::kLookupBatch;
    for (int i = 0; i < kLookupBatch; ++i) {
      req.vertices.push_back(static_cast<std::uint32_t>(rng.below(n)));
    }
  } else {
    req.kind = Kind::kTopKVertices;
    req.cls = static_cast<std::int32_t>(rng.below(kClasses));
    req.k = kTopK;
  }
  return req;
}

/// Heap bytes a request holds beyond its own struct.
double request_bytes(const Request& req) {
  double bytes = bytes_of(req.query.neighbors) + bytes_of(req.vertices);
  for (const auto& q : req.queries) bytes += sizeof(q) + bytes_of(q.neighbors);
  return bytes;
}

bool send_request(const gee::net::Fd& fd, const Request& req, std::uint64_t id) {
  const gee::net::Buffer frame = gee::net::encode_request(req, id);
  return gee::net::write_all(fd, frame.data(), frame.size());
}

bool read_reply(const gee::net::Fd& fd, gee::net::DecodedReply& out) {
  std::uint8_t header_bytes[gee::net::kHeaderBytes];
  if (!gee::net::read_exactly(fd, header_bytes, gee::net::kHeaderBytes)) return false;
  const gee::net::FrameHeader header =
      gee::net::decode_header({header_bytes, gee::net::kHeaderBytes});
  gee::net::Buffer payload(header.payload_len);
  if (header.payload_len != 0 &&
      !gee::net::read_exactly(fd, payload.data(), payload.size())) {
    return false;
  }
  out = gee::net::decode_reply(header, payload);
  return true;
}

/// Failures and check verdicts of a client phase, merged into the Outcome
/// once the phase ends.
struct Tally {
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  void merge_into(Outcome& out) const {
    out.failed += failed;
    for (const auto& e : errors) out.fail_check(e);
  }
};

/// Checks every reply with ref::check_reply; shed and error replies
/// count as failed.
struct ReplyChecker {
  std::span<const std::int32_t> labels;
  const ref::Projection* proj;
  ref::Tolerance tol;

  void operator()(const Request& req, const gee::net::DecodedReply& r,
                  Tally& tally) const {
    using gee::net::Opcode;
    if (r.opcode == Opcode::kShed || r.opcode == Opcode::kError) {
      ++tally.failed;
      if (r.opcode == Opcode::kError) tally.errors.push_back("server error: " + r.error);
      return;
    }
    if (auto e = ref::check_reply(req, r, labels, *proj, tol); !e.empty()) {
      tally.errors.push_back(e);
    }
  }
};

/// The client's event loop: one thread drives every connection. It sends
/// whenever `next_due()` has passed (Clock::time_point::min() = now,
/// max() = nothing to send), sleeping in ppoll until then -- with a 1 us
/// timer slack, so wake-ups land on schedule without spinning -- and reads
/// one reply frame from each readable connection per turn. `send(fd, c)`
/// sends on connection c (round-robin); `receive(reply)` handles a reply
/// and returns false for one it cannot place. With `credit`, a reply
/// returns one credit to the connection it arrived on. Returns after
/// `expected` replies, or false when a connection fails or a reply is
/// more than kRecvTimeout late.
template <class NextDue, class Send, class Receive>
bool pump(std::vector<gee::net::Fd>& conns, NextDue next_due, Send send,
          Receive receive, std::size_t expected, Tally& tally,
          std::vector<int>* credit = nullptr) {
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  std::vector<pollfd> fds(conns.size());
  for (std::size_t c = 0; c < conns.size(); ++c) fds[c] = {conns[c].get(), POLLIN, 0};
  std::size_t received = 0, turn = 0;
  auto last_progress = Clock::now();
  gee::net::DecodedReply reply;
  while (received < expected) {
    auto now = Clock::now();
    auto due = next_due();
    while (due <= now) {
      if (!send(conns[turn % conns.size()], turn % conns.size())) return false;
      ++turn;
      now = Clock::now();
      due = next_due();
    }
    timespec wait{0, 0};
    const auto gap = due == Clock::time_point::max() ? std::chrono::nanoseconds(100'000'000)
                                                     : std::chrono::nanoseconds(due - now);
    wait.tv_sec = static_cast<time_t>(gap.count() / 1'000'000'000);
    wait.tv_nsec = static_cast<long>(gap.count() % 1'000'000'000);
    const int ready = ::ppoll(fds.data(), fds.size(), &wait, nullptr);
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) {
      if (seconds_since(last_progress) > kRecvTimeout) return false;
      continue;
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if (fds[c].revents == 0) continue;
      try {
        if (!read_reply(conns[c], reply)) return false;
      } catch (const std::exception& e) {
        tally.errors.push_back(std::string("reply: ") + e.what());
        return false;
      }
      if (!receive(reply)) {
        tally.errors.push_back("reply to an unknown request id");
        return false;
      }
      if (credit != nullptr) ++(*credit)[c];
      ++received;
      last_progress = Clock::now();
    }
  }
  return true;
}

struct Arrival {
  double at;  ///< seconds after the phase start
  Request req;
};

/// p50 of histogram bucket counts (differences of two scrapes), linearly
/// interpolated inside its bucket (the registry's own quantile returns
/// bucket edges, which would read the same on every run).
double histogram_p50(const std::vector<std::uint64_t>& counts) {
  const auto edges = gee::obs::Histogram::boundaries();
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0;
  const double rank = 0.5 * static_cast<double>(total);
  double seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (seen + c >= rank && c > 0) {
      const double lo = i == 0 ? 0 : edges[i - 1];
      const double hi = i < edges.size() ? edges[i] : edges.back();
      return lo + (hi - lo) * (rank - seen) / c;
    }
    seen += c;
  }
  return edges.back();
}

std::vector<std::uint64_t> shard_request_buckets() {
  std::vector<std::uint64_t> sum(gee::obs::Histogram::kBuckets, 0);
  for (int s = 0; s < kShards; ++s) {
    const auto b = gee::obs::histogram(
                       gee::obs::indexed_metric_name("gee.shard", s, "request_seconds"))
                       .merged_buckets();
    for (std::size_t i = 0; i < b.size(); ++i) sum[i] += b[i];
  }
  return sum;
}

/// Phase 3. Returns the number of good-client lookups that missed their
/// deadline; fills `stop_s` with the time Server::stop() took.
int slow_reader_phase(const std::string& path, double& stop_s, Tally& tally) {
  const inputs::EdgeArrays er = inputs::erdos_renyi(kSlowN, kSlowM, kSlowSeed);
  gee::net::GraphSource source{
      gee::graph::EdgeList::adopt(er.n, er.src, er.dst),
      inputs::labels(er.n, kClasses, 0.25, kSlowSeed)};
  gee::net::Server::Config config;
  config.shards = 1;
  config.options.num_classes = kClasses;
  config.options.num_threads = 1;
  gee::net::Server server(path, std::move(source), config);

  // The slow peer: pipelined lookup_batch(kSlowN) frames, never read.
  Request big;
  big.kind = Kind::kLookupBatch;
  for (std::uint32_t v = 0; v < kSlowN; ++v) big.vertices.push_back(v);
  gee::net::Fd slow = gee::net::connect_unix(path);
  for (int i = 0; i < kSlowFrames; ++i) {
    if (!send_request(slow, big, static_cast<std::uint64_t>(i + 1))) {
      tally.errors.push_back("slow reader: send failed");
      break;
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // The well-behaved client: kGoodLookups lookups, one shared deadline.
  gee::net::Fd good = gee::net::connect_unix(path);
  gee::net::set_recv_timeout(good, kGoodDeadline);
  const auto t0 = Clock::now();
  for (int i = 0; i < kGoodLookups; ++i) {
    Request req;
    req.vertex = static_cast<std::uint32_t>(i * 397 % kSlowN);
    (void)send_request(good, req, static_cast<std::uint64_t>(i + 1));
  }
  int answered = 0;
  gee::net::DecodedReply reply;
  while (answered < kGoodLookups && seconds_since(t0) < kGoodDeadline) {
    try {
      if (!read_reply(good, reply)) break;  // deadline: the read timed out
    } catch (const std::exception& e) {
      tally.errors.push_back(std::string("good client: ") + e.what());
      break;
    }
    if (reply.opcode == gee::net::Opcode::kReply) ++answered;
  }
  slow.reset();
  trace::Span span("net.server.stop");
  server.stop();
  stop_s = span.end();
  good.reset();
  return kGoodLookups - answered;
}

/// What phases 1 and 2 measured against one server.
struct Segment {
  std::vector<double> latency;  ///< answered open-loop requests
  std::vector<double> lateness;
  std::vector<double> apply_s;
  double closed_s = 0;
  std::size_t closed_done = 0;
};

/// Phase 1 (open loop beside the writer) then phase 2 (closed loop)
/// against `server`, over fresh connections. Adds the phase-1 share of
/// the shard request histograms to `buckets`.
void run_segment(gee::net::Server& server, const std::string& path,
                 const std::vector<Arrival>& schedule, const std::vector<Request>& closed,
                 const std::vector<gee::stream::UpdateBatch>& writes,
                 const ReplyChecker& checker, Segment& seg, Tally& tally,
                 std::vector<std::uint64_t>& buckets) {
  const std::size_t n_open = schedule.size();
  const std::size_t n_closed = closed.size();
  std::vector<gee::net::Fd> conns;
  for (int c = 0; c < kConnections; ++c) conns.push_back(gee::net::connect_unix(path));

  // ---------------------------------------------------------- phase 1
  std::vector<double> latency(n_open, -1);
  seg.lateness.assign(n_open, 0);
  const auto before = shard_request_buckets();
  const auto t0 = Clock::now();
  const auto due_at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  std::thread writer([&] {  // beside the reads, at a fixed cadence
    for (std::size_t j = 0; j < writes.size(); ++j) {
      std::this_thread::sleep_until(due_at(static_cast<double>(j) * kWriterPeriod));
      try {
        trace::Span span("net.server.apply");
        server.apply(writes[j]);
        seg.apply_s.push_back(span.end());
      } catch (const std::exception& e) {
        seg.apply_s.push_back(-1);
      }
    }
  });
  {
    std::size_t next = 0;
    const bool ok = pump(
        conns,
        [&] {
          return next < n_open ? due_at(schedule[next].at) : Clock::time_point::max();
        },
        [&](gee::net::Fd& fd, std::size_t) {
          seg.lateness[next] = seconds_since(due_at(schedule[next].at));
          const bool sent = send_request(fd, schedule[next].req, next + 1);
          ++next;
          return sent;
        },
        [&](const gee::net::DecodedReply& reply) {
          const double done = seconds_since(t0);
          const std::size_t i = reply.request_id - 1;
          if (i >= n_open || latency[i] >= 0) return false;
          latency[i] = done - schedule[i].at;
          trace::record("net.request", trace::now() - latency[i], trace::now(),
                        reply.request_id);
          checker(schedule[i].req, reply, tally);
          return true;
        },
        n_open, tally);
    if (!ok) tally.errors.push_back("open loop: connection failed");
  }
  writer.join();
  const auto after = shard_request_buckets();
  for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += after[i] - before[i];
  for (const double l : latency) {
    if (l >= 0) seg.latency.push_back(l);
  }

  // ---------------------------------------------------------- phase 2
  // Each connection starts with a full window and sends its next request
  // when a reply lands: a window-bounded closed loop.
  const auto c0 = Clock::now();
  std::size_t next = 0;
  std::vector<int> credit(conns.size(), kWindow);
  const bool ok = pump(
      conns,
      [&] {
        if (next >= n_closed) return Clock::time_point::max();
        for (const int c : credit) {
          if (c > 0) return Clock::time_point::min();
        }
        return Clock::time_point::max();
      },
      [&](gee::net::Fd&, std::size_t c) {
        while (credit[c] == 0) c = (c + 1) % conns.size();
        --credit[c];
        const bool sent = send_request(conns[c], closed[next], n_open + next + 1);
        ++next;
        return sent;
      },
      [&](const gee::net::DecodedReply& reply) {
        const std::size_t i = reply.request_id - n_open - 1;
        if (i >= n_closed) return false;
        checker(closed[i], reply, tally);
        ++seg.closed_done;
        return true;
      },
      n_closed, tally, &credit);
  if (!ok) tally.errors.push_back("closed loop: connection failed");
  seg.closed_s = seconds_since(c0);
}

}  // namespace

Outcome run_serve(const Args& args) {
  Outcome out;
  std::filesystem::create_directories(".bench_build");
  const std::string path = ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
  const std::string slow_path = path + ".slow";

  // Inputs: graph, labels, request lists and writer batches, one set of
  // lists per segment.
  const inputs::EdgeArrays base = inputs::rmat(kScale, kEdgeFactor, args.seed);
  const std::uint32_t n = base.n;
  const std::vector<std::int32_t> labels =
      inputs::labels(n, kClasses, kLabelFraction, args.seed + 1);
  const ref::Projection proj = ref::project(labels, kClasses);
  const ref::Tolerance tol{1e-9 * proj.min_weight, 1e-9};
  const ReplyChecker checker{labels, &proj, tol};

  inputs::SplitMix rng(args.seed * 0x369dea0f31a53f85ull + 5);
  const double open_s = kOpenShare * args.seconds / kSegments;
  const auto n_open = static_cast<std::size_t>(kRate * open_s);
  const auto n_closed =
      static_cast<std::size_t>(kClosedPerSecond * args.seconds / kSegments);
  std::vector<std::vector<Arrival>> schedules(kSegments);
  std::vector<std::vector<Request>> closed(kSegments);
  for (int r = 0; r < kSegments; ++r) {
    double at = 0;
    for (std::size_t i = 0; i < n_open; ++i) {
      at += -std::log(1.0 - rng.unit()) / kRate;
      schedules[r].push_back({at, draw_request(rng, n)});
    }
    for (std::size_t i = 0; i < n_closed; ++i) closed[r].push_back(draw_request(rng, n));
  }

  // Writer: each batch adds kWriterOps edges with uniform endpoints (no
  // self-loops) and weights 1-4, as bench_slo's writer does. Every
  // segment's server starts from the seed graph and applies the same
  // batches, so the live multiset after the writer is the seed graph plus
  // every writer edge.
  const auto n_writes = static_cast<std::size_t>(open_s / kWriterPeriod);
  std::vector<gee::stream::UpdateBatch> writes(n_writes);
  std::vector<std::uint32_t> live_src = base.src, live_dst = base.dst;
  std::vector<float> live_w(base.src.size(), 1.0f);
  inputs::SplitMix wrng(args.seed * 0x2545f4914f6cdd1dull + 3);
  for (auto& batch : writes) {
    for (int i = 0; i < kWriterOps; ++i) {
      const auto u = static_cast<std::uint32_t>(wrng.below(n));
      auto v = static_cast<std::uint32_t>(wrng.below(n - 1));
      if (v >= u) ++v;
      const auto w = static_cast<float>(1 + wrng.below(4));
      batch.add(u, v, w);
      live_src.push_back(u);
      live_dst.push_back(v);
      live_w.push_back(w);
    }
  }
  const std::vector<double> z_final =
      ref::embed(n, labels, proj, ref::Edges{live_src, live_dst, live_w});

  const auto source = [&] {
    return gee::net::GraphSource{gee::graph::EdgeList::adopt(n, base.src, base.dst),
                                 labels};
  };
  gee::net::Server::Config config;
  config.shards = kShards;
  config.options.num_classes = kClasses;
  config.options.num_threads = 1;

  const double rss_before_library = peak_rss_bytes();
  // Each segment constructs a server (the timed set-up), drives phases 1
  // and 2 against it and stops it. Pooling segments pools the servers'
  // thread placements, which otherwise shift a whole run's latency.
  std::vector<double> setup_s, rtt;
  std::vector<Segment> segments(kSegments);
  std::vector<std::uint64_t> buckets(gee::obs::Histogram::kBuckets, 0);
  Tally tally;
  for (int r = 0; r < kSegments; ++r) {
    // Hand the memory freed by the previous server back to the system, so
    // the peak resident set is one server's, not the allocator's leftovers
    // from the one before it.
    ::malloc_trim(0);
    std::unique_ptr<gee::net::Server> server;
    {
      gee::net::GraphSource src = source();
      trace::Span span("net.server.construct");
      server = std::make_unique<gee::net::Server>(path, std::move(src), config);
      setup_s.push_back(span.end());
    }
    if (args.trace && r == 0) {  // closed-loop round trip on the idle tier
      gee::net::Client client(path, kRecvTimeout);
      for (int i = 0; i < 1000; ++i) {
        trace::Span span("net.client.lookup");
        const auto reply = client.lookup(static_cast<std::uint32_t>(i * 7919 % n));
        rtt.push_back(span.end());
        if (!reply.ok()) out.fail_check("idle round trip was not answered");
      }
    }
    Segment& seg = segments[static_cast<std::size_t>(r)];
    run_segment(*server, path, schedules[r], closed[r], writes, checker, seg, tally,
                buckets);
    out.attempted += n_open + n_closed + writes.size();
    out.failed += n_open - seg.latency.size() + n_closed - seg.closed_done;
    for (const double a : seg.apply_s) {
      if (a < 0) ++out.failed;
    }
    if (r + 1 < kSegments) continue;

    // Checks after the writer, on the last segment's server.
    gee::net::Client client(path, kRecvTimeout);
    inputs::SplitMix pick(args.seed + 17);
    const auto kk = static_cast<std::size_t>(kClasses);
    for (int i = 0; i < kCheckLookups; ++i) {
      const auto v = static_cast<std::uint32_t>(pick.below(n));
      ++out.attempted;
      const auto reply = client.lookup(v);
      if (!reply.ok()) {
        ++out.failed;
        continue;
      }
      const std::span<const double> want(z_final.data() + v * kk, kk);
      if (auto e = ref::check_row(reply.reply.row, want, tol); !e.empty()) {
        out.fail_check("lookup of vertex " + std::to_string(v) + " after the writer: " + e);
      }
    }
    for (int i = 0; i < kCheckTopK; ++i) {
      const auto cls = static_cast<std::int32_t>(pick.below(kClasses));
      ++out.attempted;
      const auto reply = client.top_k_vertices(cls, kTopK);
      if (!reply.ok()) {
        ++out.failed;
        continue;
      }
      if (auto e = ref::check_ranked_order(reply.ranked); !e.empty()) out.fail_check(e);
      if (auto e = ref::check_ranked_scores(reply.ranked, z_final, n, kClasses, cls,
                                            static_cast<std::size_t>(kTopK), tol);
          !e.empty()) {
        out.fail_check("top_k after the writer: " + e);
      }
    }
  }

  std::vector<double> latency, lateness, apply_s, throughputs;
  for (const Segment& seg : segments) {
    latency.insert(latency.end(), seg.latency.begin(), seg.latency.end());
    lateness.insert(lateness.end(), seg.lateness.begin(), seg.lateness.end());
    apply_s.insert(apply_s.end(), seg.apply_s.begin(), seg.apply_s.end());
    throughputs.push_back(static_cast<double>(seg.closed_done) / seg.closed_s);
  }

  // ----------------------------------------- traced run: layer probes
  double shard_p50 = 0, shard_p99 = 0, serve_lookup = 0, serve_query = 0,
         serve_batch = 0, serve_topk = 0, encode_s = 0, decode_s = 0,
         stream_construct_s = 0;
  if (args.trace) {
    const gee::net::GraphSource src = source();
    // The tier's stream layer alone: one DynamicGee per shard.
    trace::Span construct("stream.construct");
    gee::shard::ShardSet set(src.edges, src.labels, kShards,
                             gee::shard::ShardMode::kOwned, config.options);
    stream_construct_s = construct.end();
    gee::shard::Router router(set, config.router);
    // Inline service time of Router::answer, per request kind.
    std::map<Kind, std::vector<double>> service;
    std::vector<double> enc, dec;
    for (std::size_t i = 0; i < std::min<std::size_t>(closed[0].size(), 4000); ++i) {
      const Request& req = closed[0][i];
      gee::shard::Router::Response resp;
      {
        trace::Span span("serve.answer", i + 1);
        resp = router.answer(req);
        service[req.kind].push_back(span.end());
      }
      // Wire codec, per request/reply frame pair.
      trace::Span e_span("net.encode", i + 1);
      const gee::net::Buffer req_frame = gee::net::encode_request(req, i + 1);
      const gee::net::Buffer resp_frame = gee::net::encode_response(resp, i + 1);
      enc.push_back(e_span.end());
      trace::Span d_span("net.decode", i + 1);
      const std::span<const std::uint8_t> rq(req_frame);
      const std::span<const std::uint8_t> rp(resp_frame);
      const auto rq_head = gee::net::decode_header(rq.first(gee::net::kHeaderBytes));
      (void)gee::net::decode_request(rq_head.opcode, rq.subspan(gee::net::kHeaderBytes));
      const auto rp_head = gee::net::decode_header(rp.first(gee::net::kHeaderBytes));
      (void)gee::net::decode_reply(rp_head, rp.subspan(gee::net::kHeaderBytes));
      dec.push_back(d_span.end());
    }
    serve_lookup = median(service[Kind::kLookup]);
    serve_query = median(service[Kind::kQuery]);
    serve_batch = median(service[Kind::kLookupBatch]);
    serve_topk = median(service[Kind::kTopKVertices]);
    encode_s = mean(enc);
    decode_s = mean(dec);

    // The open-loop schedule again, in-process through Router::submit.
    const std::size_t replay = schedules[0].size();
    std::vector<double> in_process(replay, -1);
    const auto r0 = Clock::now();
    for (std::size_t i = 0; i < replay; ++i) {
      const auto due = r0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(schedules[0][i].at));
      if (due - Clock::now() > std::chrono::microseconds(100)) {
        std::this_thread::sleep_until(due - std::chrono::microseconds(50));
      }
      while (Clock::now() < due) {
      }
      const double at_s = schedules[0][i].at;
      const auto ticket = router.submit(
          schedules[0][i].req, [&in_process, i, r0, at_s](gee::shard::Router::Response) {
            in_process[i] = seconds_since(r0) - at_s;
          });
      if (!ticket.admitted) out.fail_check("in-process replay was shed");
    }
    router.drain();
    std::vector<double> answered;
    for (const double l : in_process) {
      if (l >= 0) answered.push_back(l);
    }
    shard_p50 = quantile(answered, 0.5);
    shard_p99 = quantile(answered, 0.99);
  }

  // ---------------------------------------------------------- phase 3
  double stop_s = 0;
  Tally slow_tally;
  const int missed = slow_reader_phase(slow_path, stop_s, slow_tally);
  out.attempted += kGoodLookups;
  out.failed += static_cast<std::uint64_t>(missed);
  slow_tally.merge_into(out);
  tally.merge_into(out);
  std::filesystem::remove(path);
  std::filesystem::remove(slow_path);

  const double p50 = quantile(latency, 0.5);
  const double p99 = quantile(latency, 0.99);
  const double throughput = median(throughputs);
  const double apply_p50 = median(apply_s);
  out.end_to_end["setup_s"] = {median(setup_s), "s"};
  out.end_to_end["latency_p50_s"] = {p50, "s"};
  out.end_to_end["throughput_per_s"] = {throughput, "1/s"};
  double own = bytes_of(base.src) + bytes_of(base.dst) + bytes_of(live_src) +
               bytes_of(live_dst) + bytes_of(live_w) + bytes_of(z_final) +
               bytes_of(proj.vertex_weight);
  for (int r = 0; r < kSegments; ++r) {
    for (const Arrival& a : schedules[r]) own += sizeof(Arrival) + request_bytes(a.req);
    for (const Request& req : closed[r]) own += sizeof(Request) + request_bytes(req);
  }
  record_peak_rss(out, own, rss_before_library);
  out.report.push_back("tier: 2 owned shards over n=" + std::to_string(n) + " edges=" +
                       std::to_string(base.src.size()) + " K=50 labels=10%");
  out.report.push_back(
      std::to_string(kSegments) + " servers, each: open loop " +
      fmt("%.0f req/s", kRate) + " x " + std::to_string(n_open) +
      " requests over 2 connections beside " + std::to_string(writes.size()) +
      " writer batches, then closed loop" + fmt(" | generator late p50 %.2g s", quantile(lateness, 0.5)) +
      fmt(" p99 %.2g s", quantile(lateness, 0.99)) +
      fmt(" max %.2g s", *std::max_element(lateness.begin(), lateness.end())));
  out.report.push_back(fmt("serve_latency_p50_s %.6g s", p50) +
                       fmt(" | serve_latency_p99_s %.6g s", p99) +
                       fmt(" | serve_apply_p50_s %.6g s", apply_p50) + " (" +
                       std::to_string(latency.size()) + " samples)");
  out.report.push_back(fmt("serve_throughput_per_s %.1f replies/s", throughput) +
                       " (median of " + std::to_string(kSegments) + " x " +
                       std::to_string(n_closed) + " requests, window " +
                       std::to_string(kWindow) + " x 2 connections)");
  out.report.push_back("slow reader: " + std::to_string(missed) + " of " +
                       std::to_string(kGoodLookups) + " lookups missed the " +
                       fmt("%.1f s deadline", kGoodDeadline) +
                       fmt("; Server::stop() took %.3f s", stop_s));
  if (args.trace) {
    auto& L = out.per_layer;
    L["serve.lookup_s"] = {serve_lookup, "s"};
    L["serve.query_s"] = {serve_query, "s"};
    L["serve.lookup_batch_s"] = {serve_batch, "s"};
    L["serve.topk_s"] = {serve_topk, "s"};
    L["shard.latency_p50_s"] = {shard_p50, "s"};
    L["shard.latency_p99_s"] = {shard_p99, "s"};
    L["shard.request_p50_s"] = {histogram_p50(buckets), "s"};
    L["net.encode_s"] = {encode_s, "s"};
    L["net.decode_s"] = {decode_s, "s"};
    L["net.rtt_p50_s"] = {median(rtt), "s"};
    L["net.boundary_p50_s"] = {p50 - shard_p50, "s"};
    L["stream.construct_s"] = {stream_construct_s, "s"};
  }
  return out;
}

}  // namespace perfbench
