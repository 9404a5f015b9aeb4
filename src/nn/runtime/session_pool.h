// session_pool.h — the concurrent serving front-end.
//
// Every compiled model in this repo is compile-once / run-many but
// single-flight: one arena, one scratch arena, one weight-panel cache, all
// rebound per run. Serving concurrent traffic therefore needs N pre-built
// execution contexts, not per-request compilation. That is exactly what
// this layer owns:
//
//   InferenceSession — one (model, arena, scratch) triple. The model owns
//     its static tensor arena and its KernelBackend (scratch + panel
//     cache); the session adds request accounting and is the unit of
//     exclusive execution: at most one request runs on a session at a time.
//
//   SessionPool — N sessions plus N serving threads and one blocking
//     request queue. submit() enqueues a request and returns a future;
//     whichever serving thread frees up first pops it and runs it on *its
//     own* session, so a session is only ever driven by one thread (the
//     backend's thread-affinity guard holds by construction) and requests
//     reuse compiled state instead of paying compilation per request.
//     submit_batch() enqueues a whole batch as ONE queue entry — one
//     wakeup instead of batch-size wakeups — and the serving session loops
//     over the batch reusing its bound arena, which is what lifts
//     small-model throughput (ROADMAP "batched submission").
//
// Both are templates over the model type — CompiledModel,
// CompiledQuantModel, the patch models, or any type with
// `Output run(const nn::Tensor&) const`. Construction runs the factory N
// times on the calling thread (compilation + weight prepack happen here,
// before any traffic); destruction drains already-queued requests, then
// joins the serving threads.
//
// A pool can own an ArenaSlab shared by several pools (pass one in, or let
// the pool create its own): factories wire it into their models via
// set_arena_source, so every model leases its run arena for the duration
// of a request and the fleet's arena memory is capped by concurrent
// traffic (max model arena x busy lanes), not by the number of models.
//
// swap_session() hot-swaps one lane's model under live traffic: the
// replacement is built on the calling thread, then installed by the lane's
// own serving thread via a lane-addressed control task (task_queue.h), so
// the lane drains, rebinds between two requests, and resumes — no admitted
// request is dropped and no session is ever touched by two threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "nn/check.h"
#include "nn/runtime/arena_slab.h"
#include "nn/runtime/task_queue.h"
#include "nn/tensor.h"

namespace qmcu::nn {

template <class Model>
class InferenceSession {
 public:
  using Output =
      decltype(std::declval<const Model&>().run(std::declval<const Tensor&>()));

  explicit InferenceSession(std::unique_ptr<Model> model)
      : model_(std::move(model)) {
    QMCU_REQUIRE(model_ != nullptr, "session needs a model");
  }

  // Exclusive execution: callers (SessionPool serving threads, or a user
  // managing their own threads) must not run one session concurrently —
  // the backend's affinity guard turns violations into exceptions.
  Output run(const Tensor& input) {
    ++requests_;
    return model_->run(input);
  }

  // Pool-run flavour for models with intra-request parallelism
  // (patch::BasicCompiledPatchModel::run(input, WorkerPool*)): the
  // session's request accounting, the model's parallel path. Only
  // instantiated when called, so plain run(input)-only models cost nothing.
  template <class Pool>
  Output run(const Tensor& input, Pool* pool) {
    ++requests_;
    return model_->run(input, pool);
  }

  // Rebinds this session to a new model. Must only run on the thread that
  // owns the session's execution (the pool routes it there as a
  // lane-addressed control task), so it can never race a run() — the old
  // model is destroyed here, after its last request finished.
  void replace_model(std::unique_ptr<Model> model) {
    QMCU_REQUIRE(model != nullptr, "session needs a model");
    model_ = std::move(model);
  }

  [[nodiscard]] const Model& model() const { return *model_; }
  [[nodiscard]] Model& model() { return *model_; }
  [[nodiscard]] std::uint64_t requests_served() const { return requests_; }

 private:
  std::unique_ptr<Model> model_;
  std::uint64_t requests_ = 0;  // touched only by the serving thread
};

template <class Model>
class SessionPool {
 public:
  using Output = typename InferenceSession<Model>::Output;
  using Factory = std::function<std::unique_ptr<Model>()>;
  // Factory form that receives the pool's slab, for wiring it into each
  // model (model->set_arena_source(slab)) as it is built.
  using SlabFactory =
      std::function<std::unique_ptr<Model>(const std::shared_ptr<ArenaSlab>&)>;
  // Runs on serving thread i before it pops its first request — the
  // serving front-end's hook for pinning each lane to its core-budget
  // slice. Must not throw.
  using LaneStart = std::function<void(std::size_t)>;

  // `slab`: the arena pool this SessionPool's models may lease run arenas
  // from. Defaults to a pool-owned slab; pass a shared one to cap arena
  // memory across several SessionPools serving different models.
  explicit SessionPool(int sessions, const Factory& factory,
                       std::shared_ptr<ArenaSlab> slab = nullptr,
                       LaneStart lane_start = nullptr)
      : slab_(slab ? std::move(slab) : std::make_shared<ArenaSlab>()),
        lane_start_(std::move(lane_start)) {
    QMCU_REQUIRE(sessions >= 1, "session pool needs at least one session");
    sessions_.reserve(static_cast<std::size_t>(sessions));
    for (int i = 0; i < sessions; ++i) {
      sessions_.push_back(
          std::make_unique<InferenceSession<Model>>(factory()));
    }
    start_serving();
  }

  // Same, with the slab handed to the factory so each model can lease its
  // run arenas from it (model->set_arena_source(slab)).
  SessionPool(int sessions, const SlabFactory& factory,
              std::shared_ptr<ArenaSlab> slab = nullptr,
              LaneStart lane_start = nullptr)
      : slab_(slab ? std::move(slab) : std::make_shared<ArenaSlab>()),
        lane_start_(std::move(lane_start)) {
    QMCU_REQUIRE(sessions >= 1, "session pool needs at least one session");
    sessions_.reserve(static_cast<std::size_t>(sessions));
    for (int i = 0; i < sessions; ++i) {
      sessions_.push_back(
          std::make_unique<InferenceSession<Model>>(factory(slab_)));
    }
    start_serving();
  }

  ~SessionPool() {
    queue_.shutdown();  // serving threads drain queued requests, then exit
    for (std::thread& t : threads_) t.join();
  }

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  // Enqueues one request; the future resolves with the output (or the
  // exception the model threw). The input is captured by value — the
  // caller's tensor may die before the request runs.
  std::future<Output> submit(Tensor input) {
    auto promise = std::make_shared<std::promise<Output>>();
    std::future<Output> result = promise->get_future();
    queue_.push([this, promise, input = std::move(input)](std::size_t si) {
      try {
        Output out = sessions_[si]->run(input);
        // Count before fulfilling the promise so completed() is already
        // up to date when the submitter's future.get() returns.
        completed_.fetch_add(1, std::memory_order_relaxed);
        promise->set_value(std::move(out));
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    return result;
  }

  // Enqueues a whole batch as one queue entry — a single wakeup, and the
  // serving session that pops it runs every input back to back on its
  // already-bound arena (no per-item re-dispatch). Futures resolve in
  // batch order as items finish; an item that throws fails only its own
  // future, the rest of the batch still runs.
  std::vector<std::future<Output>> submit_batch(std::vector<Tensor> inputs) {
    std::vector<std::future<Output>> results;
    results.reserve(inputs.size());
    auto promises =
        std::make_shared<std::vector<std::promise<Output>>>(inputs.size());
    for (auto& p : *promises) results.push_back(p.get_future());
    if (inputs.empty()) return results;
    queue_.push([this, promises,
                 inputs = std::move(inputs)](std::size_t si) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        try {
          Output out = sessions_[si]->run(inputs[i]);
          completed_.fetch_add(1, std::memory_order_relaxed);
          (*promises)[i].set_value(std::move(out));
        } catch (...) {
          (*promises)[i].set_exception(std::current_exception());
        }
      }
    });
    return results;
  }

  // Synchronous convenience: submit + wait. Unlike calling a model
  // directly, this is safe from any number of caller threads at once.
  Output run(const Tensor& input) { return submit(input).get(); }

  // Raw task entry points for serving front-ends that own their request
  // envelope (deadlines, shed accounting, batch spreading): the task runs
  // on whichever serving thread frees up first and receives that lane's
  // index. The task owns its promise — SessionPool's completed() counter
  // does NOT see these requests. try_submit_raw enforces a bounded queue:
  // false = full (or shut down), the task was dropped and the caller must
  // fail the request itself.
  void submit_raw(runtime::TaskQueue::Task task) {
    queue_.push(std::move(task));
  }
  [[nodiscard]] bool try_submit_raw(runtime::TaskQueue::Task task,
                                    std::size_t max_depth) {
    return queue_.try_push(std::move(task), max_depth);
  }
  // Lane-addressed raw task: runs on lane `lane` specifically, in FIFO
  // order with everything else addressed to that lane. This is what pins a
  // frame stream to one session — per-stream state (retained arenas, diff
  // baselines) is only coherent if every frame of the stream runs on the
  // same lane, in order.
  void submit_raw_to(std::size_t lane, runtime::TaskQueue::Task task) {
    QMCU_REQUIRE(lane < sessions_.size(), "lane out of range");
    queue_.push_to(lane, std::move(task));
  }

  // Lane i's session. Only lane i's serving thread may run() it (sessions
  // are exclusive); other threads may read accounting.
  [[nodiscard]] InferenceSession<Model>& session(std::size_t i) {
    return *sessions_[i];
  }

  // Hot-swaps lane `lane`'s model: builds the replacement HERE (on the
  // calling thread — compilation and prepack never block a serving
  // thread), then routes a lane-addressed rebind through the queue and
  // blocks until the lane has executed it. FIFO queue order gives the
  // drain → rebind → resume contract per lane: every request admitted
  // before the swap is either claimed by another lane or runs on this
  // lane before the rebind; requests admitted after it run on the new
  // model (on this lane). Nothing is dropped. Throws
  // std::future_error(broken_promise) if the pool shuts down first.
  void swap_session(std::size_t lane, const SlabFactory& factory) {
    QMCU_REQUIRE(lane < sessions_.size(), "lane out of range");
    auto fresh = std::make_shared<std::unique_ptr<Model>>(factory(slab_));
    QMCU_REQUIRE(*fresh != nullptr, "swap factory returned no model");
    auto rebound = std::make_shared<std::promise<void>>();
    std::future<void> done = rebound->get_future();
    queue_.push_to(lane, [this, fresh, rebound](std::size_t si) {
      sessions_[si]->replace_model(std::move(*fresh));
      rebound->set_value();
    });
    done.get();
  }

  // The arena slab this pool's models lease from (shared across pools when
  // passed at construction).
  [[nodiscard]] const std::shared_ptr<ArenaSlab>& slab() const {
    return slab_;
  }

  [[nodiscard]] int num_sessions() const {
    return static_cast<int>(sessions_.size());
  }
  // Requests completed successfully across all sessions.
  [[nodiscard]] std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }
  // Requests queued but not yet picked up by a serving thread.
  [[nodiscard]] std::size_t pending() const { return queue_.depth(); }
  // Sessions not currently executing a request (instantaneous; a batch
  // spreader uses it to decide how many chunks are worth splitting off).
  [[nodiscard]] int idle_sessions() const {
    const int busy = busy_.load(std::memory_order_relaxed);
    return std::max(0, num_sessions() - busy);
  }
  // Per-session request counts (read when no traffic is in flight).
  [[nodiscard]] std::vector<std::uint64_t> per_session_requests() const {
    std::vector<std::uint64_t> counts;
    counts.reserve(sessions_.size());
    for (const auto& s : sessions_) counts.push_back(s->requests_served());
    return counts;
  }

 private:
  void start_serving() {
    const int sessions = static_cast<int>(sessions_.size());
    threads_.reserve(static_cast<std::size_t>(sessions));
    for (int i = 0; i < sessions; ++i) {
      threads_.emplace_back([this, i] { serve(static_cast<std::size_t>(i)); });
    }
  }

  void serve(std::size_t session_index) {
    if (lane_start_) lane_start_(session_index);
    runtime::TaskQueue::Task task;
    while (queue_.pop(session_index, task)) {
      busy_.fetch_add(1, std::memory_order_relaxed);
      task(session_index);
      busy_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<ArenaSlab> slab_;
  LaneStart lane_start_;
  std::vector<std::unique_ptr<InferenceSession<Model>>> sessions_;
  runtime::TaskQueue queue_;
  std::vector<std::thread> threads_;
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<int> busy_{0};
};

}  // namespace qmcu::nn
