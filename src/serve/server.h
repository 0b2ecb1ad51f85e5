/// \file server.h
/// \brief Overload-safe in-process serving front-end over the Engine.
///
/// The engine's PreparedBatch handles are already safe for concurrent
/// Execute, but "safe" is not "well-behaved under overload": callers that
/// fan requests straight into the engine get unbounded memory growth in
/// their own backlog, no deadline propagation, and no policy for what to
/// drop first when arrival rate exceeds capacity. The Server supplies that
/// policy layer:
///
///   admission -> bounded per-class queues; a full queue or a deep total
///     backlog rejects *now* with ResourceExhausted (depth and queue age in
///     the message) instead of queueing unboundedly. Under load the
///     lowest-priority classes are shed first (ad-hoc, then delta-refresh)
///     via total-backlog watermarks, so the steady-state prepared workload
///     keeps its capacity.
///   execution -> workers pop in strict class-priority order; each request
///     runs under an ExecLimits deadline equal to its remaining budget
///     (time spent queued counts against it; a request that expired in the
///     queue is answered DeadlineExceeded without executing).
///   retry -> attempts that fail with a *retryable* status
///     (Status::IsRetryable: ResourceExhausted or transient faults such as
///     injected failpoints) are re-run with capped exponential backoff and
///     deterministic jitter, while the deadline budget lasts.
///   degrade -> a delta-refresh whose retries are exhausted falls back to
///     the batch's pinned base-epoch result (Response::degraded = true,
///     stale but correct-as-of-its-epoch) instead of failing.
///   shutdown -> Shutdown(drain=true) stops admission, lets the workers
///     finish every already-admitted request, and joins; drain=false
///     answers the still-queued requests with FailedPrecondition first.
///
/// Everything is observable through `stats()` (see serve/stats.h) and
/// printable with ReportServing (engine/report.h).

#ifndef LMFAO_SERVE_SERVER_H_
#define LMFAO_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "serve/stats.h"

namespace lmfao {

/// \brief One request offered to Server::Submit.
struct Request {
  RequestClass cls = RequestClass::kPreparedExecute;
  /// Registered batch name (kPreparedExecute / kDeltaRefresh).
  std::string batch;
  /// Parameter bindings for prepared execution (kPreparedExecute only;
  /// delta-refresh always refreshes under the batch's registered params —
  /// a delta under different bindings is not a delta of the base result).
  ParamPack params;
  /// Query text (kAdHoc).
  std::string text;
  /// Per-request deadline from admission to completion; <= 0 uses the
  /// server's default_deadline_seconds (0 there too = no deadline).
  double deadline_seconds = 0.0;
};

/// \brief The answer to one request.
struct Response {
  Status status = Status::OK();
  /// Query results (OK responses only), parallel to the batch's queries.
  std::vector<QueryResult> results;
  /// The epoch the results reflect. For a degraded delta-refresh this is
  /// the pinned base epoch, i.e. older than the catalog's current one.
  EpochSnapshot epoch;
  /// Execution attempts beyond the first this response cost.
  int retries = 0;
  /// True when served below the requested fidelity: a delta-refresh that
  /// fell back to its pinned base epoch, or an execution with degraded
  /// groups (see ExecutionStats::degraded_groups).
  bool degraded = false;
  /// Seconds spent queued before a worker picked the request up.
  double queue_seconds = 0.0;
  /// Seconds spent executing (all attempts, including backoff sleeps).
  double exec_seconds = 0.0;
};

/// \brief Deployment sizing of a Server. The serving policy itself is
/// fixed: Server::kMaxRetries, and the shedding watermarks and retry
/// backoff in server.cc.
struct ServerOptions {
  /// Worker threads popping the queues: the Server's own, since an Execute
  /// blocks until its groups finish on the Engine's pool, and pool workers
  /// all blocked that way would leave none to run the groups.
  size_t num_workers = 2;
  /// Per-class queue capacities; admission beyond these rejects with
  /// ResourceExhausted.
  size_t prepared_queue_capacity = 64;
  size_t delta_queue_capacity = 16;
  size_t adhoc_queue_capacity = 16;
  /// Deadline applied when the request does not carry one; 0 = none.
  double default_deadline_seconds = 0.0;
  /// View-memory budget applied to every execution (the deadline side of
  /// ExecLimits comes from the request's remaining budget); 0 = unlimited.
  size_t max_view_bytes = 0;
};

/// \brief The serving front-end. See the file comment for the lifecycle.
///
/// Thread safety: Submit and stats() may be called from any thread,
/// concurrently with the workers. RegisterBatch must complete before
/// requests referencing the batch are submitted (it is safe to register
/// further batches while serving). The borrowed Engine and Catalog must
/// outlive the server.
class Server {
 public:
  /// Re-runs of a retryable failure after the first attempt.
  static constexpr int kMaxRetries = 3;

  /// `catalog` is needed for ad-hoc parsing and epoch snapshots; it must
  /// be the catalog `engine` was built over.
  Server(Engine* engine, const Catalog* catalog, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Prepares `batch` under `name` and executes it once at the current
  /// epoch to pin the base result that (a) delta-refresh requests refresh
  /// and (b) degraded delta-refresh responses fall back to. The base
  /// advances on every successful refresh.
  Status RegisterBatch(const std::string& name, const QueryBatch& batch,
                       const ParamPack& params = {});

  /// Offers a request. The returned future is always eventually resolved:
  /// at admission time for rejections (ResourceExhausted when shed,
  /// FailedPrecondition when draining, InvalidArgument for malformed
  /// requests), at completion otherwise.
  std::future<Response> Submit(Request request);

  /// Stops admission and joins the workers. drain=true (the default)
  /// completes every already-admitted request first; drain=false fails
  /// still-queued requests with FailedPrecondition (in-flight ones still
  /// finish — workers are never killed mid-execution). Idempotent.
  void Shutdown(bool drain = true);

  /// Snapshot of the counters (serve/stats.h).
  ServerStats stats() const;

  /// Current combined backlog (all classes), for tests and load probes.
  size_t queue_depth() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct QueuedRequest {
    Request request;
    std::promise<Response> promise;
    Clock::time_point admitted_at;
    /// Absolute deadline; time_point::max() when none.
    Clock::time_point deadline;
    /// Admission sequence number; seeds the deterministic retry jitter.
    uint64_t seq = 0;
  };

  struct RegisteredBatch {
    PreparedBatch prepared;
    ParamPack params;
    /// The pinned base result delta-refreshes fold from and degraded
    /// responses fall back to. Guarded by `mu` (not the server lock:
    /// refresh completion must not block admission).
    std::shared_ptr<const BatchResult> base;
    mutable std::mutex mu;
  };

  void WorkerLoop();
  /// Pops the highest-priority queued request; null when stopping and
  /// (drain ? the queues empty : always).
  std::unique_ptr<QueuedRequest> PopNext();
  Response Process(QueuedRequest& item);
  Response RunWithRetries(const QueuedRequest& item, RegisteredBatch* batch);
  /// One execution attempt for `item` (class dispatch).
  StatusOr<BatchResult> Attempt(const QueuedRequest& item,
                                RegisteredBatch* batch,
                                const ExecLimits& limits);
  /// Remaining deadline budget in seconds; <= 0 means expired. +inf when
  /// the request has no deadline.
  static double RemainingSeconds(const QueuedRequest& item);

  size_t ClassCapacity(RequestClass cls) const;
  size_t TotalCapacity() const;

  Engine* engine_;
  const Catalog* catalog_;
  ServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  /// One FIFO per class, popped in class-priority order.
  std::array<std::deque<std::unique_ptr<QueuedRequest>>, kNumRequestClasses>
      queues_;
  size_t queued_total_ = 0;
  bool draining_ = false;   ///< No new admissions.
  bool stop_ = false;       ///< Workers exit once their queues allow.
  bool drain_on_stop_ = true;
  ServerStats stats_;
  uint64_t request_seq_ = 0;  ///< Jitter stream per request.

  /// Registered batches; pointers handed to workers stay valid because
  /// entries are never removed.
  std::unordered_map<std::string, std::unique_ptr<RegisteredBatch>> batches_;
  mutable std::mutex batches_mu_;

  std::vector<std::thread> workers_;
  bool shut_down_ = false;  ///< Shutdown already ran (joined).
};

}  // namespace lmfao

#endif  // LMFAO_SERVE_SERVER_H_
