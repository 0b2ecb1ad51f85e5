#include "serve/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "query/parser.h"
#include "util/hash.h"

namespace lmfao {

namespace {

/// Load-shedding watermarks, as fractions of the summed queue capacities:
/// once the combined backlog reaches one, new requests of that class are
/// shed even though their own queue has room. Prepared-execute is never
/// watermark-shed.
constexpr double kAdHocShedFraction = 0.5;
constexpr double kDeltaShedFraction = 0.8;
/// Capped exponential backoff between retries, before jitter.
constexpr double kRetryInitialBackoffMs = 1.0;
constexpr double kRetryMaxBackoffMs = 50.0;
/// Seed of the deterministic retry jitter.
constexpr uint64_t kJitterSeed = 0x5e12e;

double UnitUniform(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Every relation's watermark in `a` is <= the one in `b`.
bool EpochNotNewer(const EpochSnapshot& a, const EpochSnapshot& b) {
  for (size_t r = 0; r < a.rows.size() && r < b.rows.size(); ++r) {
    if (a.rows[r] > b.rows[r]) return false;
  }
  return true;
}

Response RejectedResponse(Status status) {
  Response resp;
  resp.status = std::move(status);
  return resp;
}

}  // namespace

Server::Server(Engine* engine, const Catalog* catalog, ServerOptions options)
    : engine_(engine), catalog_(catalog), options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() { Shutdown(/*drain=*/true); }

size_t Server::ClassCapacity(RequestClass cls) const {
  switch (cls) {
    case RequestClass::kPreparedExecute:
      return options_.prepared_queue_capacity;
    case RequestClass::kDeltaRefresh:
      return options_.delta_queue_capacity;
    case RequestClass::kAdHoc:
      return options_.adhoc_queue_capacity;
  }
  return 0;
}

size_t Server::TotalCapacity() const {
  return options_.prepared_queue_capacity + options_.delta_queue_capacity +
         options_.adhoc_queue_capacity;
}

Status Server::RegisterBatch(const std::string& name, const QueryBatch& batch,
                             const ParamPack& params) {
  if (name.empty()) {
    return Status::InvalidArgument("batch name must be non-empty");
  }
  LMFAO_ASSIGN_OR_RETURN(PreparedBatch prepared, engine_->Prepare(batch));
  // The registration execute pins the base epoch; it runs unlimited (no
  // deadline) because nothing is serving yet.
  LMFAO_ASSIGN_OR_RETURN(BatchResult base, prepared.Execute(params));
  auto registered = std::make_unique<RegisteredBatch>();
  registered->prepared = std::move(prepared);
  registered->params = params;
  registered->base = std::make_shared<const BatchResult>(std::move(base));
  std::lock_guard<std::mutex> lock(batches_mu_);
  auto [it, inserted] = batches_.emplace(name, std::move(registered));
  if (!inserted) {
    return Status::AlreadyExists("batch '" + name + "' already registered");
  }
  return Status::OK();
}

std::future<Response> Server::Submit(Request request) {
  const RequestClass cls = request.cls;
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();

  // Validate outside the admission lock (registry lookups take their own).
  Status invalid = Status::OK();
  if (cls == RequestClass::kAdHoc) {
    if (request.text.empty()) {
      invalid = Status::InvalidArgument("ad-hoc request has no query text");
    }
  } else {
    std::lock_guard<std::mutex> lock(batches_mu_);
    if (batches_.find(request.batch) == batches_.end()) {
      invalid = Status::NotFound("no batch registered under '" +
                                 request.batch + "'");
    }
  }

  auto item = std::make_unique<QueuedRequest>();
  item->request = std::move(request);

  {
    std::lock_guard<std::mutex> lock(mu_);
    ClassStats& cs = stats_.of(cls);
    ++cs.submitted;
    if (!invalid.ok()) {
      ++cs.failed;
      promise.set_value(RejectedResponse(std::move(invalid)));
      return future;
    }
    if (draining_) {
      ++cs.rejected_draining;
      promise.set_value(RejectedResponse(
          Status::FailedPrecondition("server is draining; not admitting")));
      return future;
    }
    auto& queue = queues_[static_cast<size_t>(cls)];
    const size_t capacity = ClassCapacity(cls);
    if (queue.size() >= capacity) {
      ++cs.shed_queue_full;
      const double oldest_ms =
          queue.empty() ? 0.0
                        : SecondsBetween(queue.front()->admitted_at,
                                         Clock::now()) *
                              1e3;
      promise.set_value(RejectedResponse(Status::ResourceExhausted(
          std::string(RequestClassName(cls)) + " queue full: depth " +
          std::to_string(queue.size()) + "/" + std::to_string(capacity) +
          ", oldest queued " + std::to_string(oldest_ms) + " ms")));
      return future;
    }
    // Watermark shedding: low-priority classes give way while the combined
    // backlog is deep, so prepared-execute keeps its capacity.
    const double backlog_fraction =
        static_cast<double>(queued_total_) /
        static_cast<double>(std::max<size_t>(TotalCapacity(), 1));
    const bool watermark_shed =
        (cls == RequestClass::kAdHoc &&
         backlog_fraction >= kAdHocShedFraction) ||
        (cls == RequestClass::kDeltaRefresh &&
         backlog_fraction >= kDeltaShedFraction);
    if (watermark_shed) {
      ++cs.shed_watermark;
      promise.set_value(RejectedResponse(Status::ResourceExhausted(
          std::string("load shedding ") + RequestClassName(cls) +
          ": backlog " + std::to_string(queued_total_) + "/" +
          std::to_string(TotalCapacity()))));
      return future;
    }

    item->promise = std::move(promise);
    item->admitted_at = Clock::now();
    const double deadline_seconds = item->request.deadline_seconds > 0.0
                                        ? item->request.deadline_seconds
                                        : options_.default_deadline_seconds;
    item->deadline =
        deadline_seconds > 0.0
            ? item->admitted_at + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          deadline_seconds))
            : Clock::time_point::max();
    item->seq = request_seq_++;
    ++cs.admitted;
    queue.push_back(std::move(item));
    ++queued_total_;
    cs.queue_depth_highwater = std::max(cs.queue_depth_highwater,
                                        queue.size());
    stats_.total_queue_depth_highwater =
        std::max(stats_.total_queue_depth_highwater, queued_total_);
  }
  cv_work_.notify_one();
  return future;
}

std::unique_ptr<Server::QueuedRequest> Server::PopNext() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_work_.wait(lock, [this] { return stop_ || queued_total_ > 0; });
  if (queued_total_ == 0) return nullptr;  // stop_ with drained queues
  for (auto& queue : queues_) {  // strict class-priority order
    if (queue.empty()) continue;
    std::unique_ptr<QueuedRequest> item = std::move(queue.front());
    queue.pop_front();
    --queued_total_;
    return item;
  }
  return nullptr;  // unreachable: queued_total_ > 0
}

void Server::WorkerLoop() {
  for (;;) {
    std::unique_ptr<QueuedRequest> item = PopNext();
    if (item == nullptr) return;
    const RequestClass cls = item->request.cls;
    const bool expired_in_queue = Clock::now() > item->deadline;
    Response resp;
    if (expired_in_queue) {
      resp.status = Status::DeadlineExceeded(
          "deadline expired after " +
          std::to_string(SecondsBetween(item->admitted_at, Clock::now()) *
                         1e3) +
          " ms in the " + RequestClassName(cls) + " queue");
      resp.queue_seconds = SecondsBetween(item->admitted_at, Clock::now());
    } else {
      const double queue_seconds =
          SecondsBetween(item->admitted_at, Clock::now());
      resp = Process(*item);
      resp.queue_seconds = queue_seconds;
    }
    const double total_seconds =
        SecondsBetween(item->admitted_at, Clock::now());
    {
      std::lock_guard<std::mutex> lock(mu_);
      ClassStats& cs = stats_.of(cls);
      if (resp.status.ok()) {
        ++cs.completed_ok;
        if (resp.degraded) ++cs.degraded;
      } else {
        ++cs.failed;
      }
      if (resp.status.code() == StatusCode::kDeadlineExceeded) {
        ++cs.deadline_trips;
      }
      if (expired_in_queue) ++cs.expired_in_queue;
      cs.retries += static_cast<uint64_t>(resp.retries);
      cs.latency.Record(total_seconds);
    }
    item->promise.set_value(std::move(resp));
  }
}

Response Server::Process(QueuedRequest& item) {
  RegisteredBatch* batch = nullptr;
  if (item.request.cls != RequestClass::kAdHoc) {
    std::lock_guard<std::mutex> lock(batches_mu_);
    auto it = batches_.find(item.request.batch);
    if (it == batches_.end()) {
      // Validated at Submit; only reachable if the registry could shrink,
      // which it cannot — but fail soft rather than deref null.
      return RejectedResponse(Status::NotFound(
          "no batch registered under '" + item.request.batch + "'"));
    }
    batch = it->second.get();
  }
  Response resp = RunWithRetries(item, batch);
  resp.queue_seconds = 0.0;  // recomputed below from the worker's clocks
  return resp;
}

double Server::RemainingSeconds(const QueuedRequest& item) {
  if (item.deadline == Clock::time_point::max()) {
    return std::numeric_limits<double>::infinity();
  }
  return SecondsBetween(Clock::now(), item.deadline);
}

StatusOr<BatchResult> Server::Attempt(const QueuedRequest& item,
                                      RegisteredBatch* batch,
                                      const ExecLimits& limits) {
  switch (item.request.cls) {
    case RequestClass::kPreparedExecute: {
      // Request-level bindings override the registered defaults.
      const ParamPack& params = item.request.params.size() > 0
                                    ? item.request.params
                                    : batch->params;
      return batch->prepared.Execute(params, limits);
    }
    case RequestClass::kDeltaRefresh: {
      std::shared_ptr<const BatchResult> base;
      {
        std::lock_guard<std::mutex> lock(batch->mu);
        base = batch->base;
      }
      StatusOr<BatchResult> refreshed =
          batch->prepared.ExecuteDelta(*base, batch->params, limits);
      if (refreshed.ok()) {
        // Advance the pinned base so later refreshes fold from here — but
        // never backwards: a slow refresh must not regress a newer base
        // installed by a concurrent one.
        std::lock_guard<std::mutex> lock(batch->mu);
        if (EpochNotNewer(batch->base->epoch, refreshed->epoch)) {
          batch->base = std::make_shared<const BatchResult>(*refreshed);
        }
      }
      return refreshed;
    }
    case RequestClass::kAdHoc: {
      // A parse error is InvalidArgument — not retryable, by design.
      LMFAO_ASSIGN_OR_RETURN(
          QueryBatch parsed,
          ParseQueryBatch(item.request.text, *catalog_));
      return engine_->Evaluate(parsed, item.request.params, limits);
    }
  }
  return Status::Internal("unknown request class");
}

Response Server::RunWithRetries(const QueuedRequest& item,
                                RegisteredBatch* batch) {
  const auto exec_start = Clock::now();
  Response resp;
  Status last_error = Status::OK();
  int attempts_beyond_first = 0;
  for (int attempt = 0;; ++attempt) {
    const double remaining = RemainingSeconds(item);
    if (remaining <= 0.0) {
      last_error = Status::DeadlineExceeded(
          "deadline expired before attempt " + std::to_string(attempt + 1));
      break;
    }
    ExecLimits limits;
    limits.max_view_bytes = options_.max_view_bytes;
    if (std::isfinite(remaining)) limits.deadline_seconds = remaining;
    StatusOr<BatchResult> result = Attempt(item, batch, limits);
    if (result.ok()) {
      resp.status = Status::OK();
      resp.results = std::move(result->results);
      resp.epoch = std::move(result->epoch);
      resp.retries = attempts_beyond_first;
      resp.degraded = result->stats.degraded_groups > 0;
      resp.exec_seconds = SecondsBetween(exec_start, Clock::now());
      return resp;
    }
    last_error = result.status();
    // A tripped deadline is final: re-running cannot recover budget that
    // is already spent. Everything else retryable gets backoff + retry.
    if (last_error.code() == StatusCode::kDeadlineExceeded) break;
    if (!last_error.IsRetryable()) break;
    if (attempt >= kMaxRetries) break;
    double backoff_ms =
        std::min(kRetryMaxBackoffMs,
                 kRetryInitialBackoffMs *
                     std::exp2(static_cast<double>(attempt)));
    // Deterministic jitter in [0.5, 1.0) x backoff de-synchronizes
    // retrying workers without losing reproducibility.
    const double u =
        UnitUniform(Mix64(kJitterSeed ^ (item.seq * 0x9e3779b97f4a7c15ULL) ^
                          static_cast<uint64_t>(attempt + 1)));
    backoff_ms *= 0.5 + 0.5 * u;
    if (backoff_ms * 1e-3 >= RemainingSeconds(item)) break;  // no budget
    ++attempts_beyond_first;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
  }
  // Retries exhausted (or not applicable). Delta-refresh degrades to the
  // pinned base epoch — stale but correct as of its epoch — instead of
  // failing the caller.
  if (item.request.cls == RequestClass::kDeltaRefresh && batch != nullptr &&
      last_error.code() != StatusCode::kDeadlineExceeded) {
    std::shared_ptr<const BatchResult> base;
    {
      std::lock_guard<std::mutex> lock(batch->mu);
      base = batch->base;
    }
    resp.status = Status::OK();
    resp.results = base->results;
    resp.epoch = base->epoch;
    resp.retries = attempts_beyond_first;
    resp.degraded = true;
    resp.exec_seconds = SecondsBetween(exec_start, Clock::now());
    return resp;
  }
  resp.status = std::move(last_error);
  resp.retries = attempts_beyond_first;
  resp.exec_seconds = SecondsBetween(exec_start, Clock::now());
  return resp;
}

void Server::Shutdown(bool drain) {
  std::vector<std::unique_ptr<QueuedRequest>> flushed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) return;
    draining_ = true;
    drain_on_stop_ = drain;
    if (!drain) {
      for (auto& queue : queues_) {
        for (auto& item : queue) flushed.push_back(std::move(item));
        queue.clear();
      }
      queued_total_ = 0;
      for (auto& item : flushed) {
        ++stats_.of(item->request.cls).failed;
      }
    }
    stop_ = true;
  }
  cv_work_.notify_all();
  // Resolve flushed promises outside the lock: a future continuation must
  // not run under the server mutex.
  for (auto& item : flushed) {
    item->promise.set_value(RejectedResponse(Status::FailedPrecondition(
        "server shut down before the request was executed")));
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  shut_down_ = true;
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_total_;
}

}  // namespace lmfao
