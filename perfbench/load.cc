// pbtool load: drives a running privtree_server through one plan.
//
// Protocol with run.py (one line each way, so run.py can read the server's
// /proc counters exactly at the phase boundaries):
//   pbtool prints  "READY <t>"  after the warm-up reply (t = monotonic s)
//   run.py sends   "go"
//   pbtool prints  "MARK open"  the open loop is next (query workloads)
//   run.py sends   "go"         pbtool runs it
//   pbtool prints  "MARK fixed" the fixed-concurrency phase is next
//   run.py sends   "go"         pbtool runs it (saturation or closed loop)
//   pbtool prints  "DONE"       the measured phases are over
//   run.py sends   "next"       pbtool measures rel_error, shuts the server
//                               down and writes its result file
// With --setup-only pbtool shuts the server down right after READY.
//
// Phases (one replay; --spans runs a traced replay, then an untraced one):
//   query workloads  open loop on one pipelined connection (sender and
//                    receiver threads), then a saturation phase on two
//                    connections keeping sat_window requests in flight each
//   fit_cold         closed loop on two connections: rounds of two Fits,
//                    one per connection
// Open-loop latency is timed from the intended send time.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "eval/metrics.h"
#include "pbtool.h"
#include "server/protocol.h"
#include "server/socket.h"

namespace perfbench {
namespace {

using privtree::server::Connection;
using privtree::server::MessageType;

/// One recorded client span (kept in memory, written at the end).
struct Span {
  std::uint64_t id = 0;
  const char* name = "";
  std::uint64_t parent = 0;  ///< 0 = root.
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Reply checks for one thread; merged across threads at the end.
struct Checker {
  std::vector<std::vector<double>> first;  ///< First answers per frame.
  std::size_t bad_count = 0;    ///< Replies whose answer count != boxes.
  std::size_t nonfinite = 0;    ///< Replies with a NaN or infinite answer.
  std::size_t mismatch = 0;     ///< Repeated frames answered differently.
  std::size_t fit_violations = 0;  ///< Fit replies breaking the contract.

  /// Records or compares one frame's answers.
  void Answers(std::size_t frame, std::vector<double> answers,
               std::size_t boxes) {
    if (answers.size() != boxes) {
      ++bad_count;
      return;
    }
    for (double a : answers) {
      if (!std::isfinite(a)) {
        ++nonfinite;
        return;
      }
    }
    if (first[frame].empty()) {
      first[frame] = std::move(answers);
    } else if (std::memcmp(first[frame].data(), answers.data(),
                           boxes * sizeof(double)) != 0) {
      ++mismatch;
    }
  }
};

/// Request outcomes of one phase.
struct Counts {
  std::size_t attempted = 0;
  std::size_t served_errors = 0;  ///< ErrorReply (incl. shed, expired).
  std::size_t transport = 0;      ///< Torn connection, unexpected frame.
};

enum class Outcome { kOk, kServedError, kTransport };

/// When a request's encoding started and when its frame went out (equal
/// when the frame was prebuilt).
struct SendTimes {
  Clock::time_point start;
  Clock::time_point sent;
};

/// Prints `say` on the control pipe and waits for the line `expect`.
void Handshake(const char* say, const char* expect) {
  std::printf("%s\n", say);
  std::fflush(stdout);
  std::string line;
  if (!std::getline(std::cin, line)) Die("run.py closed the control pipe");
  if (line != expect) Die(std::string("expected ") + expect);
}

Connection Open(std::uint16_t port) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    auto conn = Connection::Dial("127.0.0.1", port, 2000);
    if (conn.ok()) {
      Connection c = std::move(conn).value();
      if (!c.SendFrame(privtree::server::EncodeHello({})).ok()) break;
      auto reply = c.RecvFrame();
      privtree::server::HelloReply hello;
      if (!reply.ok() ||
          !privtree::server::DecodeHelloReply(reply.value(), &hello).ok()) {
        break;
      }
      return c;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  Die("cannot connect to the server on port " + std::to_string(port));
}

privtree::server::FitSpec Spec(const std::string& method, double epsilon,
                               std::uint64_t release) {
  privtree::server::FitSpec spec;
  spec.method = method;
  spec.epsilon = epsilon;
  spec.seed = release;
  return spec;
}

std::string QueryPayload(const Plan& plan, std::size_t frame) {
  privtree::server::QueryBatchRequest request;
  request.spec = Spec(plan.method, plan.epsilon, plan.release);
  request.queries = plan.frames[frame];
  return privtree::server::EncodeQueryBatch(request);
}

/// Classifies one reply frame; a query reply's answers go to `checker`.
Outcome QueryReply(const privtree::Result<std::string>& frame,
                   std::size_t frame_index, const Plan& plan,
                   Checker& checker) {
  if (!frame.ok()) return Outcome::kTransport;
  auto type = privtree::server::PeekType(frame.value());
  if (type.ok() && type.value() == MessageType::kErrorReply) {
    return Outcome::kServedError;
  }
  privtree::server::QueryBatchReply reply;
  if (!privtree::server::DecodeQueryBatchReply(frame.value(), &reply).ok()) {
    return Outcome::kTransport;
  }
  checker.Answers(frame_index, std::move(reply.answers),
                  plan.boxes_per_frame);
  return Outcome::kOk;
}

void Tally(Outcome outcome, Counts& counts) {
  if (outcome == Outcome::kServedError) ++counts.served_errors;
  if (outcome == Outcome::kTransport) ++counts.transport;
}

/// Everything one replay measured.
struct Replay {
  // Open loop (query workloads).
  Counts open;
  std::vector<double> late_us;  ///< Actual minus intended send time.
  std::vector<double> lat_us;   ///< Completed requests, from intended send.
  // Saturation (query workloads) or closed loop (fit_cold).
  Counts sat;
  double sat_seconds = 0.0;     ///< Measured window length.
  std::vector<double> done_us;  ///< Completion times from the window start.
  std::vector<double> fit_lat_us;
};

class Generator {
 public:
  Generator(const Plan& plan, std::uint16_t port) : plan_(plan) {
    links_[0] = Open(port);
    links_[1] = Open(port);
    for (Checker& c : checkers_) c.first.resize(plan.frames.size());
    for (std::size_t f = 0; f < plan.frames.size(); ++f) {
      payloads_.push_back(QueryPayload(plan, f));
    }
  }

  /// The warm-up request: fits the served release (query workloads) or
  /// one fit outside the measured release ids (fit_cold).
  void WarmUp() {
    std::string payload;
    if (plan_.workload == "fit_cold") {
      privtree::server::FitRequest request;
      request.spec = Spec(plan_.method, plan_.epsilon, plan_.release);
      payload = privtree::server::EncodeFit(request);
    } else {
      payload = payloads_[0];
    }
    if (!links_[0].SendFrame(payload).ok()) Die("warm-up send failed");
    auto reply = links_[0].RecvFrame();
    auto type = reply.ok() ? privtree::server::PeekType(reply.value())
                           : privtree::Result<MessageType>(reply.status());
    if (!type.ok() || type.value() == MessageType::kErrorReply) {
      Die("warm-up request failed");
    }
  }

  /// Runs one replay.  With `mark`, prints "MARK <phase>" and waits for
  /// "go" before each phase, so run.py can read the server's CPU time at
  /// every phase boundary.
  Replay Run(std::size_t replay, bool traced, bool mark) {
    traced_ = traced;
    replay_ = replay;
    Replay out;
    if (plan_.workload != "fit_cold") {
      if (mark) Handshake("MARK open", "go");
      OpenLoop(out);
      // Server histograms are cumulative: a snapshot right after the open
      // loop holds its quantiles before the saturation phase swamps them.
      if (traced) Snapshot();
    }
    if (mark) Handshake("MARK fixed", "go");
    if (plan_.workload == "fit_cold") {
      ClosedFits(out);
    } else {
      Saturate(out);
    }
    return out;
  }

  /// Appends a GetStats snapshot to stats().
  void Snapshot() { stats_.push_back(GetStats()); }
  const std::vector<std::string>& stats() const { return stats_; }

  std::string GetStats() {
    if (!links_[0].SendFrame(privtree::server::EncodeGetStats()).ok()) {
      Die("GetStats send failed");
    }
    auto reply = links_[0].RecvFrame();
    std::string json;
    if (!reply.ok() ||
        !privtree::server::DecodeGetStatsReply(reply.value(), &json).ok()) {
      Die("GetStats failed");
    }
    return json;
  }

  /// Mean relative error (eval::MeanRelativeError, Δ = 0.1%·n) of the
  /// served release on the rel_error boxes; for fit_cold, the mean over
  /// the ε sweep of the first release fitted at each ε.
  double RelError(const std::vector<double>& exact) {
    const std::vector<privtree::Box> boxes = plan_.RelBoxes();
    if (exact.size() != boxes.size()) Die("exact answers do not match boxes");
    if (plan_.workload != "fit_cold") {
      std::vector<double> answers;
      for (std::size_t f = 0; f < plan_.rel_frames; ++f) {
        const auto& first = checkers_[0].first[f];
        if (first.empty()) Die("rel_error frame was never answered");
        answers.insert(answers.end(), first.begin(), first.end());
      }
      rel_answers_.push_back(answers);
      return Mre(boxes, exact, answers);
    }
    double total = 0.0;
    for (std::size_t s = 0; s < plan_.fit_sweep.size(); ++s) {
      privtree::server::QueryBatchRequest request;
      request.spec = Spec(plan_.method, plan_.fit_sweep[s],
                          plan_.fit_release_base + s);
      request.queries = boxes;
      if (!links_[0].SendFrame(EncodeQueryBatch(request)).ok()) {
        Die("rel_error query send failed");
      }
      auto frame = links_[0].RecvFrame();
      privtree::server::QueryBatchReply reply;
      if (!frame.ok() ||
          !privtree::server::DecodeQueryBatchReply(frame.value(), &reply)
               .ok()) {
        Die("rel_error query failed");
      }
      rel_answers_.push_back(reply.answers);
      total += Mre(boxes, exact, reply.answers);
    }
    return total / static_cast<double>(plan_.fit_sweep.size());
  }

  void Shutdown() {
    if (!links_[0].SendFrame(privtree::server::EncodeShutdown()).ok() ||
        !links_[0].RecvFrame().ok()) {
      Die("shutdown failed");
    }
  }

  /// Merges the per-thread checkers: repeated frames must be bit-identical
  /// across threads and connections too.
  Checker Merged() const {
    Checker merged = checkers_[0];
    for (std::size_t t = 1; t < 3; ++t) {
      const Checker& c = checkers_[t];
      merged.bad_count += c.bad_count;
      merged.nonfinite += c.nonfinite;
      merged.mismatch += c.mismatch;
      merged.fit_violations += c.fit_violations;
      for (std::size_t f = 0; f < c.first.size(); ++f) {
        if (!c.first[f].empty()) merged.Answers(f, c.first[f],
                                                plan_.boxes_per_frame);
      }
    }
    return merged;
  }

  const std::vector<Span>& spans(std::size_t t) const { return spans_[t]; }
  /// The answers rel_error was computed from, one vector per release.
  const std::vector<std::vector<double>>& rel_answers() const {
    return rel_answers_;
  }

 private:
  double Mre(const std::vector<privtree::Box>& boxes,
             const std::vector<double>& exact,
             const std::vector<double>& answers) const {
    if (answers.size() != boxes.size()) Die("rel_error answer count");
    std::size_t next = 0;
    return privtree::MeanRelativeError(
        boxes, exact,
        [&](const privtree::Box& box) {
          // MeanRelativeError visits the boxes in order; check it.
          if (next >= boxes.size() || box.lo() != boxes[next].lo() ||
              box.hi() != boxes[next].hi()) {
            Die("rel_error visited boxes out of order");
          }
          return answers[next++];
        },
        plan_.points);
  }

  std::uint64_t SpanId(std::size_t thread, std::size_t i) const {
    return (static_cast<std::uint64_t>(replay_ * 4 + thread + 1) << 40) |
           (static_cast<std::uint64_t>(i) << 2);
  }

  /// Sends request `i` of request stream `slot` for `frame` (or `fit`).
  /// Untraced, the frame is prebuilt; traced, it is encoded here and
  /// client.encode goes to the calling thread's `store`.
  SendTimes Send(Connection& link, std::size_t store, std::size_t slot,
                 std::size_t i, const std::string& prebuilt,
                 const privtree::server::FitRequest* fit, std::size_t frame,
                 bool* ok) {
    if (!traced_) {
      const auto t = Clock::now();
      *ok = link.SendFrame(fit ? EncodeFit(*fit) : prebuilt).ok();
      return {t, t};
    }
    const auto t0 = Clock::now();
    const std::string payload = fit ? EncodeFit(*fit) : QueryPayload(plan_,
                                                                       frame);
    const auto t1 = Clock::now();
    *ok = link.SendFrame(payload).ok();
    const std::uint64_t id = SpanId(slot, i);
    spans_[store].push_back({id + 1, "client.encode", id, Micros(t0 - epoch_),
                              Micros(t1 - epoch_)});
    return {t0, t1};
  }

  /// Records client.wait, client.decode and the enclosing client.request
  /// of request `i` of stream `slot` into the calling thread's `store`.
  void TraceReply(std::size_t store, std::size_t slot, std::size_t i,
                  SendTimes sent, Clock::time_point received,
                  Clock::time_point decoded) {
    if (!traced_) return;
    const std::uint64_t id = SpanId(slot, i);
    auto& spans = spans_[store];
    spans.push_back({id + 2, "client.wait", id, Micros(sent.sent - epoch_),
                     Micros(received - epoch_)});
    spans.push_back({id + 3, "client.decode", id, Micros(received - epoch_),
                     Micros(decoded - epoch_)});
    spans.push_back({id, "client.request", 0, Micros(sent.start - epoch_),
                     Micros(decoded - epoch_)});
  }

  void OpenLoop(Replay& out) {
    const std::size_t n = plan_.open_offsets_us.size();
    Connection& link = links_[0];
    std::vector<Clock::time_point> intended(n);
    std::vector<SendTimes> sent(n);
    std::atomic<std::size_t> sent_count{0};
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    for (std::size_t i = 0; i < n; ++i) {
      intended[i] = t0 + std::chrono::microseconds(plan_.open_offsets_us[i]);
    }
    std::thread sender([&] {
      ::prctl(PR_SET_TIMERSLACK, 1000UL);  // Wake within ~1 µs of due.
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(intended[i]);
        bool ok = false;
        sent[i] = Send(link, 0, 2, i, payloads_[i % payloads_.size()], nullptr,
                       i % payloads_.size(), &ok);
        sent_count.store(i + 1, std::memory_order_release);
        if (!ok) {
          link.ShutdownBoth();  // Fails the receiver's pending reads.
          return;
        }
      }
    });
    out.open.attempted = n;
    std::size_t received = 0;
    for (; received < n; ++received) {
      auto frame = link.RecvFrame();
      const auto t_recv = Clock::now();
      const std::size_t f = received % payloads_.size();
      const Outcome outcome = QueryReply(frame, f, plan_, checkers_[0]);
      if (outcome == Outcome::kTransport) {
        link.ShutdownBoth();
        break;
      }
      Tally(outcome, out.open);
      if (traced_) {
        // The reply can beat the sender's store of its send times.
        while (sent_count.load(std::memory_order_acquire) <= received) {
          std::this_thread::yield();
        }
        TraceReply(2, 2, received, sent[received], t_recv, Clock::now());
      }
      if (outcome == Outcome::kOk) {
        out.lat_us.push_back(Micros(t_recv - intended[received]));
      }
    }
    sender.join();
    out.open.transport += n - received;
    const std::size_t sent_n = sent_count.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < sent_n; ++i) {
      out.late_us.push_back(Micros(sent[i].start - intended[i]));
    }
    if (received < n) links_[0] = Connection();
  }

  void Saturate(Replay& out) {
    const auto start = Clock::now();
    const auto end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(plan_.sat_seconds));
    std::vector<double> done[2];
    Counts counts[2];
    auto worker = [&](std::size_t t) {
      Connection& link = links_[t];
      std::vector<std::pair<std::size_t, SendTimes>> inflight;
      std::size_t next = 0, head = 0;
      auto send = [&] {
        const std::size_t f = (t * 7919 + next) % payloads_.size();
        bool ok = false;
        const auto t_sent =
            Send(link, t, t, next, payloads_[f], nullptr, f, &ok);
        inflight.emplace_back(f, t_sent);
        ++next;
        ++counts[t].attempted;
        return ok;
      };
      bool healthy = true;
      for (std::size_t w = 0; w < plan_.sat_window && healthy; ++w) {
        healthy = send();
      }
      while (healthy && head < inflight.size()) {
        auto frame = link.RecvFrame();
        const auto t_recv = Clock::now();
        const auto [f, t_sent] = inflight[head];
        const Outcome outcome = QueryReply(frame, f, plan_, checkers_[t + 1]);
        if (outcome == Outcome::kTransport) break;
        Tally(outcome, counts[t]);
        TraceReply(t, t, head, t_sent, t_recv, Clock::now());
        ++head;
        if (outcome == Outcome::kOk && t_recv <= end) {
          done[t].push_back(Micros(t_recv - start));
        }
        if (t_recv < end) healthy = send();
      }
      counts[t].transport += inflight.size() - head;
    };
    std::thread second(worker, 1);
    worker(0);
    second.join();
    out.sat_seconds = plan_.sat_seconds;
    for (std::size_t t = 0; t < 2; ++t) {
      out.done_us.insert(out.done_us.end(), done[t].begin(), done[t].end());
      out.sat.attempted += counts[t].attempted;
      out.sat.served_errors += counts[t].served_errors;
      out.sat.transport += counts[t].transport;
    }
    std::sort(out.done_us.begin(), out.done_us.end());
  }

  void ClosedFits(Replay& out) {
    const auto start = Clock::now();
    const auto end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(plan_.fit_seconds));
    // Rounds of two fits, one per connection, until the deadline and then
    // to a whole number of sweeps: every run fits each ε equally often and
    // always overlaps the same pairs of ε, so peak memory is reproducible.
    const std::size_t sweep = plan_.fit_sweep.size();
    std::vector<double> lat[2], done[2];
    Counts counts[2];
    bool failed[2] = {false, false};
    auto fit = [&](std::size_t t, std::size_t i) {
      Connection& link = links_[t];
      privtree::server::FitRequest request;
      const double eps = plan_.fit_sweep[i % sweep];
      request.spec = Spec(plan_.method, eps,
                          plan_.fit_release_base + replay_ * 1000000 + i);
      ++counts[t].attempted;
      bool ok = false;
      const auto t_sent = Send(link, t, t, i, {}, &request, 0, &ok);
      auto frame = ok ? link.RecvFrame()
                      : privtree::Result<std::string>(
                            privtree::Status::IOError("send failed"));
      const auto t_recv = Clock::now();
      privtree::server::FitReply reply;
      if (!frame.ok()) {
        ++counts[t].transport;
        failed[t] = true;
        return;
      }
      auto type = privtree::server::PeekType(frame.value());
      if (type.ok() && type.value() == MessageType::kErrorReply) {
        ++counts[t].served_errors;
        return;
      }
      if (!privtree::server::DecodeFitReply(frame.value(), &reply).ok()) {
        ++counts[t].transport;
        failed[t] = true;
        return;
      }
      TraceReply(t, t, i, t_sent, t_recv, Clock::now());
      const auto& meta = reply.metadata;
      if (reply.cache_hit || meta.synopsis_size == 0 ||
          std::abs(meta.epsilon_spent - eps) > 1e-12 * eps) {
        ++checkers_[t + 1].fit_violations;
      }
      lat[t].push_back(Micros(t_recv - t_sent.start));
      done[t].push_back(Micros(t_recv - start));
    };
    for (std::size_t i = 0; !failed[0] && !failed[1] &&
                            (Clock::now() < end || i % sweep != 0);
         i += 2) {
      std::thread second(fit, 1, i + 1);
      fit(0, i);
      second.join();
    }
    double last = 0.0;
    for (std::size_t t = 0; t < 2; ++t) {
      out.fit_lat_us.insert(out.fit_lat_us.end(), lat[t].begin(),
                            lat[t].end());
      out.done_us.insert(out.done_us.end(), done[t].begin(), done[t].end());
      out.sat.attempted += counts[t].attempted;
      out.sat.served_errors += counts[t].served_errors;
      out.sat.transport += counts[t].transport;
      if (!done[t].empty()) last = std::max(last, done[t].back());
    }
    std::sort(out.done_us.begin(), out.done_us.end());
    out.sat_seconds = last / 1e6;
  }

  const Plan& plan_;
  Connection links_[2];
  std::vector<std::string> payloads_;
  /// [0] open-loop receiver, [1]/[2] the two saturation/closed-loop threads.
  Checker checkers_[3];
  /// Spans per recording thread: [0]/[1] connection threads, [2] the
  /// open-loop receiver.
  std::vector<Span> spans_[3];
  const Clock::time_point epoch_ = Clock::now();
  std::vector<std::vector<double>> rel_answers_;
  std::vector<std::string> stats_;
  bool traced_ = false;
  std::size_t replay_ = 0;
};

void WriteArray(std::FILE* out, const char* name,
                const std::vector<double>& values) {
  std::fprintf(out, "\"%s\":[", name);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(out, i ? ",%.3f" : "%.3f", values[i]);
  }
  std::fprintf(out, "]");
}

void WriteCounts(std::FILE* out, const char* name, const Counts& c) {
  std::fprintf(out,
               "\"%s\":{\"attempted\":%zu,\"served_errors\":%zu,"
               "\"transport\":%zu}",
               name, c.attempted, c.served_errors, c.transport);
}

}  // namespace

int LoadMain(int argc, char** argv) {
  const Plan plan = ReadPlan(Flag(argc, argv, "plan"));
  const auto port = static_cast<std::uint16_t>(
      std::atoi(Flag(argc, argv, "port").c_str()));
  const std::string spans_path = Flag(argc, argv, "spans");
  const bool setup_only = Flag(argc, argv, "setup-only") == "1";
  const std::vector<double> exact =
      setup_only ? std::vector<double>{} : ReadDoubles(Flag(argc, argv,
                                                            "exact"));

  Generator generator(plan, port);
  generator.WarmUp();
  if (setup_only) {
    std::printf("READY %.9f\n", MonotonicSeconds(Clock::now()));
    generator.Shutdown();
    return 0;
  }
  char ready[64];
  std::snprintf(ready, sizeof(ready), "READY %.9f",
                MonotonicSeconds(Clock::now()));
  Handshake(ready, "go");

  // Traced: the traced replay comes first, on the fresh server, so the
  // snapshots around it see only its requests (and the warm-up); an
  // untraced replay follows for the tracing overhead.
  const bool traced = !spans_path.empty();
  std::vector<Replay> replays;
  if (traced) generator.Snapshot();
  replays.push_back(generator.Run(0, traced, !traced));
  if (traced) {
    generator.Snapshot();
    replays.push_back(generator.Run(1, false, true));
  }
  const std::vector<std::string>& stats = generator.stats();
  Handshake("DONE", "next");

  const double rel_error = generator.RelError(exact);
  generator.Shutdown();
  const Checker checks = generator.Merged();

  std::FILE* out = std::fopen(Flag(argc, argv, "out").c_str(), "w");
  if (out == nullptr) Die("cannot write the result file");
  std::fprintf(out, "{\"rel_error\":%.17g,", rel_error);
  std::fprintf(out,
               "\"checks\":{\"bad_count\":%zu,\"nonfinite\":%zu,"
               "\"mismatch\":%zu,\"fit_violations\":%zu},",
               checks.bad_count, checks.nonfinite, checks.mismatch,
               checks.fit_violations);
  std::fprintf(out, "\"rel_answers\":[");
  for (std::size_t r = 0; r < generator.rel_answers().size(); ++r) {
    const auto& answers = generator.rel_answers()[r];
    std::fprintf(out, "%s[", r ? "," : "");
    for (std::size_t i = 0; i < answers.size(); ++i) {
      std::fprintf(out, i ? ",%.17g" : "%.17g", answers[i]);
    }
    std::fprintf(out, "]");
  }
  std::fprintf(out, "],\"stats\":[");
  for (std::size_t i = 0; i < stats.size(); ++i) {
    std::fprintf(out, "%s%s", i ? "," : "", stats[i].c_str());
  }
  std::fprintf(out, "],\"replays\":[");
  for (std::size_t r = 0; r < replays.size(); ++r) {
    const Replay& rep = replays[r];
    std::fprintf(out, "%s{", r ? "," : "");
    WriteCounts(out, "open", rep.open);
    std::fprintf(out, ",");
    WriteCounts(out, "sat", rep.sat);
    std::fprintf(out, ",\"sat_seconds\":%.9f,", rep.sat_seconds);
    WriteArray(out, "late_us", rep.late_us);
    std::fprintf(out, ",");
    WriteArray(out, "lat_us", rep.lat_us);
    std::fprintf(out, ",");
    WriteArray(out, "done_us", rep.done_us);
    std::fprintf(out, ",");
    WriteArray(out, "fit_lat_us", rep.fit_lat_us);
    std::fprintf(out, "}");
  }
  std::fprintf(out, "]}\n");
  if (std::fclose(out) != 0) Die("result write failed");

  if (traced) {
    std::FILE* sp = std::fopen(spans_path.c_str(), "w");
    if (sp == nullptr) Die("cannot write the span file");
    for (std::size_t t = 0; t < 3; ++t) {
      for (const Span& s : generator.spans(t)) {
        std::fprintf(sp,
                     "{\"id\":%llu,\"name\":\"%s\",\"parent\":%llu,"
                     "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                     static_cast<unsigned long long>(s.id), s.name,
                     static_cast<unsigned long long>(s.parent), s.start_us,
                     s.end_us);
      }
    }
    if (std::fclose(sp) != 0) Die("span write failed");
  }
  return 0;
}

}  // namespace perfbench
