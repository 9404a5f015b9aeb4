#include "serving.h"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <deque>
#include <future>
#include <span>
#include <string>

#include "nn/serving/serving_frontend.h"

namespace perfbench {

using namespace qmcu;

namespace {

constexpr int kOutstandingPerLane = 2;
constexpr int kSegmentMs = 500;  // serving time between reference bursts
constexpr int kRefUnits = 4;

// Forwards to the compiled mixed model and times each execution on the
// lane thread that runs it (the serving layer sees an ordinary model).
class TimedModel {
 public:
  TimedModel(std::unique_ptr<patch::CompiledPatchQuantModel> model,
             Tracer* tracer)
      : model_(std::move(model)), tracer_(tracer) {}

  nn::QTensor run(const nn::Tensor& input) const {
    return timed(request_ms_, "nn.serving.exec", [&] {
      return model_->run(input);
    });
  }
  nn::QTensor run(const nn::Tensor& input, nn::WorkerPool* pool) const {
    return timed(request_ms_, "nn.serving.exec", [&] {
      return model_->run(input, pool);
    });
  }
  nn::QTensor run_streaming(const nn::Tensor& input, nn::WorkerPool* pool,
                            patch::StreamState& state) const {
    Span span(tracer_, "nn.serving.exec_stream", next_request_.fetch_add(1));
    return model_->run_streaming(input, pool, state);
  }
  [[nodiscard]] const patch::PatchPlan& plan() const { return model_->plan(); }
  [[nodiscard]] std::span<const patch::PipelinedTailLayer> pipelined_tail()
      const {
    return model_->pipelined_tail();
  }

  // Read only while the front-end is drained.
  [[nodiscard]] const std::vector<double>& request_ms() const {
    return request_ms_;
  }

 private:
  template <class Fn>
  nn::QTensor timed(std::vector<double>& sink, const char* name,
                    const Fn& fn) const {
    const auto t0 = Clock::now();
    nn::QTensor out;
    {
      Span span(tracer_, name, next_request_.fetch_add(1));
      out = fn();
    }
    sink.push_back(ms_between(t0, Clock::now()));
    return out;
  }

  std::unique_ptr<patch::CompiledPatchQuantModel> model_;
  Tracer* tracer_;
  mutable std::vector<double> request_ms_;
  static inline std::atomic<std::int64_t> next_request_{0};
};

using Frontend = nn::serving::ServingFrontend<TimedModel>;

struct Pending {
  int stream = -1;  // -1: ordinary request
  int input = 0;    // image or frame index
  std::future<nn::QTensor> result;
};

}  // namespace

struct ClosedLoopServer::Impl {
  std::vector<const TimedModel*> lanes;
  std::unique_ptr<Frontend> frontend;
};

ClosedLoopServer::ClosedLoopServer(const Deployment& dep,
                                   const std::vector<int>& cpus,
                                   Tracer* tracer)
    : impl_(std::make_unique<Impl>()) {
  // The front-end partitions the CPUs the constructing thread may use.
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const int c : cpus) CPU_SET(c, &all);
  pthread_setaffinity_np(pthread_self(), sizeof(all), &all);
  nn::serving::ServingConfig scfg;  // default partition, pinned lanes
  scfg.max_queue_depth = 0;         // unbounded: nothing is shed
  impl_->frontend = std::make_unique<Frontend>(
      scfg, [&](int, const std::shared_ptr<nn::ArenaSlab>& slab) {
        auto inner = dep.compile(nn::ops::KernelTier::Simd);
        inner->set_arena_source(slab);
        auto m = std::make_unique<TimedModel>(std::move(inner), tracer);
        impl_->lanes.push_back(m.get());
        return m;
      });
  impl_->frontend->enable_latency_recording();
  pin_to_cpu(cpus.front());  // the generator shares the first CPU
}

ClosedLoopServer::~ClosedLoopServer() = default;

ServeResult ClosedLoopServer::run(const Fixture& in, double seconds,
                                  Yardstick& ys, Checks& checks) {
  Frontend& frontend = *impl_->frontend;
  const auto& images = in.images;
  const auto& streams = in.streams;
  const int num_images = static_cast<int>(images.size());
  const int num_streams = static_cast<int>(streams.size());
  ServeResult r;
  const auto stats0 = frontend.stats();
  std::int64_t fulfilled = 0;

  std::vector<std::uint64_t> ids;
  for (int s = 0; s < num_streams; ++s) ids.push_back(frontend.open_stream());
  std::vector<int> next_frame(static_cast<std::size_t>(num_streams), 0);
  int next_image = 0;
  std::deque<Pending> pending;
  const auto submit_request = [&] {
    Pending p;
    p.input = next_image;
    next_image = (next_image + 1) % num_images;
    p.result = frontend.submit(images[static_cast<std::size_t>(p.input)]);
    pending.push_back(std::move(p));
  };
  const auto submit_frame = [&](int s) {
    const CameraStream& cs = streams[static_cast<std::size_t>(s)];
    Pending p;
    p.stream = s;
    p.input = next_frame[static_cast<std::size_t>(s)];
    next_frame[static_cast<std::size_t>(s)] =
        (p.input + 1) % static_cast<int>(cs.frames.size());
    p.result = frontend.submit_stream(
        ids[static_cast<std::size_t>(s)],
        cs.frames[static_cast<std::size_t>(p.input)]);
    pending.push_back(std::move(p));
  };
  const auto finish = [&](Pending& p) {
    const nn::QTensor out = p.result.get();
    ++fulfilled;
    if (p.stream < 0) {
      checks.require(
          same_bytes(out, in.expected[static_cast<std::size_t>(p.input)]),
          "serve.request_vs_reference");
      ++r.requests;
    } else {
      checks.require(
          same_bytes(out, in.expected_frames[static_cast<std::size_t>(p.stream)]
                                            [static_cast<std::size_t>(p.input)]),
          "serve.stream_vs_reference",
          "stream " + std::to_string(p.stream) + " frame " +
              std::to_string(p.input));
      ++r.frames;
    }
  };

  const int outstanding = kOutstandingPerLane * frontend.num_sessions();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  // Lane execution times not yet taken into r.exec_ms, per lane.
  std::vector<std::size_t> exec_taken(impl_->lanes.size(), 0);
  double ref_before = ys.team_unit_s(kRefUnits).mean_unit_s;
  while (Clock::now() < deadline) {
    // One segment: fill the loop, keep it full, then drain it.
    const auto segment_end =
        std::min(deadline, Clock::now() + std::chrono::milliseconds(
                                              kSegmentMs));
    for (int i = 0; i < outstanding; ++i) submit_request();
    for (int s = 0; s < num_streams; ++s) submit_frame(s);
    while (Clock::now() < segment_end) {
      bool progressed = false;
      for (std::size_t i = 0; i < pending.size();) {
        if (pending[i].result.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        Pending done = std::move(pending[i]);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        finish(done);
        if (done.stream < 0) {
          submit_request();
        } else {
          submit_frame(done.stream);
        }
        progressed = true;
      }
      if (!progressed && !pending.empty()) {
        (void)pending.front().result.wait_for(std::chrono::microseconds(200));
      }
    }
    while (!pending.empty()) {
      finish(pending.front());
      pending.pop_front();
    }
    const double ref_after = ys.team_unit_s(kRefUnits).mean_unit_s;
    const double scale = kNominalTeamUnitS / (0.5 * (ref_before + ref_after));
    ref_before = ref_after;
    for (const double ms : frontend.take_latencies_ms()) {
      r.latency_ms.push_back(ms);
      r.scaled_latency_ms.push_back(ms * scale);
    }
    // The segment has drained, so every lane's execution times of it are
    // recorded; they get the same scale as the segment's latencies.
    for (std::size_t l = 0; l < impl_->lanes.size(); ++l) {
      const std::vector<double>& ms = impl_->lanes[l]->request_ms();
      for (; exec_taken[l] < ms.size(); ++exec_taken[l]) {
        r.exec_ms.push_back(ms[exec_taken[l]]);
        r.scaled_exec_ms.push_back(ms[exec_taken[l]] * scale);
      }
    }
  }
  r.window_s = std::chrono::duration<double>(Clock::now() - start).count();

  const nn::serving::ServingStats stats = frontend.stats();
  checks.require(
      fulfilled == static_cast<std::int64_t>(
                       stats.completed + stats.stream_frames -
                       stats0.completed - stats0.stream_frames),
      "serve.futures_match_stats",
      std::to_string(fulfilled) + " fulfilled vs " +
          std::to_string(stats.completed) + " + " +
          std::to_string(stats.stream_frames));
  checks.require(stats.rejected == 0 && stats.expired == 0,
                 "serve.nothing_shed");
  double branches = 0.0;
  double frames = 0.0;
  for (const std::uint64_t id : ids) {
    const nn::streaming::StreamingStats ss = frontend.stream_stats(id).get();
    branches += static_cast<double>(ss.branches_recomputed);
    frames += static_cast<double>(ss.frames);
    frontend.close_stream(id);
  }
  r.lane_branches_per_frame = frames > 0 ? branches / frames : 0.0;
  r.slab_bytes = frontend.slab()->footprint_bytes();
  r.lanes = frontend.budget().sessions;
  r.workers_per_lane = frontend.budget().workers_per_session;
  r.pinned_lanes = stats.pinned_lanes;
  return r;
}

}  // namespace perfbench
