// Benchmark harness: runs one workload through the same public entry
// points `gluefl run` and `gluefl resume` call, times those calls from
// outside the layers, and writes the measurements as one JSON object.
//
//   perfbench_harness run   [gluefl run flags] --out FILE
//                           [--trace FILE] [--resume-from CKPT]
//   perfbench_harness probe --dataset D --model M --strategy S --out FILE
//
// `run` accepts the subset of `gluefl run` flags the workloads use, with
// the CLI's meaning, so run.py can hand the same flag list to both and
// compare trajectories. `--trace` turns on the program's span tracer plus
// the harness's own "bench.*" spans around each public call. One process
// runs one workload once; run.py starts a fresh process per repetition.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "data/presets.h"
#include "fl/async_engine.h"
#include "fl/engine.h"
#include "net/environment.h"
#include "nn/proxies.h"
#include "pace.h"
#include "probes.h"
#include "scenario/scenario.h"
#include "strategies/factory.h"
#include "telemetry/events.h"
#include "telemetry/telemetry.h"

namespace gluefl::perfbench {
namespace {

using Flags = std::map<std::string, std::string>;

class Clock {
 public:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// Pace samples taken at the harness's boundary stamps, outside every
/// interval run.py times (see pace.h).
class Pacer {
 public:
  explicit Pacer(const Clock& clock) : clock_(clock) {}
  void sample() {
    telemetry::Span span("bench.pace");
    const double start = clock_.now();
    PaceSample s = sample_pace();
    s.start_s = start;
    s.end_s = clock_.now();
    samples.push_back(s);
  }
  std::vector<PaceSample> samples;

 private:
  const Clock& clock_;
};

const std::string& need(const Flags& f, const std::string& key) {
  const auto it = f.find(key);
  if (it == f.end()) throw std::runtime_error("missing flag --" + key);
  return it->second;
}

std::string get(const Flags& f, const std::string& key,
                const std::string& def) {
  const auto it = f.find(key);
  return it == f.end() ? def : it->second;
}

long get_long(const Flags& f, const std::string& key, long def) {
  const auto it = f.find(key);
  return it == f.end() ? def : std::stol(it->second);
}

double get_double(const Flags& f, const std::string& key, double def) {
  const auto it = f.find(key);
  return it == f.end() ? def : std::stod(it->second);
}

SyntheticSpec make_spec(const std::string& dataset, double scale) {
  if (dataset == "femnist") return femnist_spec(scale);
  if (dataset == "openimage") return openimage_spec(scale);
  if (dataset == "speech") return speech_spec(scale);
  throw std::runtime_error("unknown dataset " + dataset);
}

/// Shortest round-trip formatting; non-finite values become JSON null.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

uint64_t fnv1a(const std::vector<float>& a, uint64_t h) {
  const auto* p = reinterpret_cast<const unsigned char*>(a.data());
  for (size_t i = 0; i < a.size() * sizeof(float); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return h;
}

/// Stamps the end of the strategy's init() and takes a pace sample, after
/// which round 0 starts, and forwards everything else unchanged.
class TimedStrategy final : public Strategy {
 public:
  TimedStrategy(std::unique_ptr<Strategy> inner, const Clock& clock,
                Pacer& pacer, double& init_end)
      : inner_(std::move(inner)),
        clock_(clock),
        pacer_(pacer),
        init_end_(init_end) {}
  std::string name() const override { return inner_->name(); }
  void init(SimEngine& engine) override {
    telemetry::Span span("bench.strategy.init");
    inner_->init(engine);
    init_end_ = clock_.now();
    pacer_.sample();
  }
  void run_round(SimEngine& engine, int round, RoundRecord& rec) override {
    inner_->run_round(engine, round, rec);
  }
  void save_state(ckpt::Writer& w) const override { inner_->save_state(w); }
  void restore_state(ckpt::Reader& r) override { inner_->restore_state(r); }

 private:
  std::unique_ptr<Strategy> inner_;
  const Clock& clock_;
  Pacer& pacer_;
  double& init_end_;
};

class TimedAsyncStrategy final : public AsyncStrategy {
 public:
  TimedAsyncStrategy(std::unique_ptr<AsyncStrategy> inner, const Clock& clock,
                     Pacer& pacer, double& init_end)
      : inner_(std::move(inner)),
        clock_(clock),
        pacer_(pacer),
        init_end_(init_end) {}
  std::string name() const override { return inner_->name(); }
  void init(SimEngine& engine) override {
    telemetry::Span span("bench.strategy.init");
    inner_->init(engine);
    init_end_ = clock_.now();
    pacer_.sample();
  }
  void aggregate(SimEngine& engine, int version,
                 std::vector<AsyncUpdate>& buffer, RoundRecord& rec) override {
    inner_->aggregate(engine, version, buffer, rec);
  }
  void save_state(ckpt::Writer& w) const override { inner_->save_state(w); }
  void restore_state(ckpt::Reader& r) override { inner_->restore_state(r); }

 private:
  std::unique_ptr<AsyncStrategy> inner_;
  const Clock& clock_;
  Pacer& pacer_;
  double& init_end_;
};

/// Timing RoundHook: records each round's record and the wall time of
/// each boundary, after the wrapped checkpoint hook has saved (so round
/// times include checkpoint stalls), and the bytes of every save; then
/// takes a pace sample, after which the next round starts.
class BoundaryHook final : public RoundHook {
 public:
  BoundaryHook(const Clock& clock, Pacer& pacer, ckpt::CheckpointHook* inner)
      : clock_(clock), pacer_(pacer), inner_(inner) {}

  void on_round_end(SimEngine& engine, int round, const RunResult& partial,
                    const AsyncRunState* async_state) override {
    records.push_back(partial.rounds.back());
    const int saves_before = inner_ == nullptr ? 0 : inner_->saves();
    try {
      if (inner_ != nullptr) {
        inner_->on_round_end(engine, round, partial, async_state);
      }
    } catch (...) {
      mark(saves_before);
      throw;
    }
    mark(saves_before);
  }

  std::vector<RoundRecord> records;
  std::vector<double> boundaries;
  uint64_t ckpt_bytes = 0;

 private:
  void mark(int saves_before) {
    boundaries.push_back(clock_.now());
    if (inner_ != nullptr && inner_->saves() != saves_before) {
      ckpt_bytes += std::filesystem::file_size(inner_->last_path());
    }
    pacer_.sample();
  }

  const Clock& clock_;
  Pacer& pacer_;
  ckpt::CheckpointHook* inner_;
};

/// Runs `fn` under a harness span, which tracing records around the
/// public call so the layer's time is attributed.
template <class Fn>
void spanned(const char* span_name, Fn&& fn) {
  telemetry::Span span(span_name);
  fn();
}

/// Seconds are on the harness clock (0 = entry to `run`): `setup_end_s`
/// is the end of strategy init, `run_start_s` the run()/run_from()/resume()
/// call, `boundaries_s` every round boundary; `pace` holds every pace
/// sample as [start, end, compute, memory] seconds, the first taken
/// before set-up begins.
void write_result(std::ostream& os, double init_end, double run_start,
                  const BoundaryHook& hook, const Pacer& pacer,
                  const SimEngine& engine, bool crashed,
                  const RunResult* res) {
  os << "{\"setup_end_s\": " << num(init_end)
     << ", \"run_start_s\": " << num(run_start)
     << ", \"crashed\": " << (crashed ? "true" : "false")
     << ", \"ckpt_bytes\": " << hook.ckpt_bytes << ", \"boundaries_s\": [";
  for (size_t i = 0; i < hook.boundaries.size(); ++i) {
    os << (i ? ", " : "") << num(hook.boundaries[i]);
  }
  os << "], \"pace\": [";
  for (size_t i = 0; i < pacer.samples.size(); ++i) {
    const PaceSample& p = pacer.samples[i];
    os << (i ? ", " : "") << "[" << num(p.start_s) << ", " << num(p.end_s)
       << ", " << num(p.compute_s) << ", " << num(p.memory_s) << "]";
  }
  // Full-precision records of every round this process completed, in the
  // RoundRecord field order.
  os << "], \"records\": [";
  for (size_t i = 0; i < hook.records.size(); ++i) {
    const RoundRecord& r = hook.records[i];
    os << (i ? ", " : "") << "[" << r.round << ", " << num(r.down_bytes)
       << ", " << num(r.up_bytes) << ", " << num(r.down_time_s) << ", "
       << num(r.up_time_s) << ", " << num(r.compute_time_s) << ", "
       << num(r.wall_time_s) << ", " << num(r.train_loss) << ", "
       << num(r.test_acc) << ", " << r.num_invited << ", " << r.num_included
       << ", " << num(r.mean_staleness) << ", " << num(r.changed_frac) << ", "
       << num(r.mask_overlap) << "]";
  }
  os << "]";
  if (res != nullptr) {
    // The CLI summary's fields, computed the same way: trajectory entries
    // at evaluated rounds with running totals, best accuracy, totals.
    const RunTotals t = res->totals();
    os << ", \"best_accuracy\": " << num(res->best_accuracy())
       << ", \"totals\": {\"down_gb\": " << num(t.down_gb)
       << ", \"up_gb\": " << num(t.up_gb)
       << ", \"total_gb\": " << num(t.total_gb)
       << ", \"download_hours\": " << num(t.download_hours)
       << ", \"wall_hours\": " << num(t.wall_hours) << "}, \"trajectory\": [";
    double cum_down = 0.0, cum_up = 0.0, cum_wall = 0.0;
    bool first = true;
    for (const RoundRecord& r : res->rounds) {
      cum_down += r.down_bytes / kBytesPerGb;
      cum_up += r.up_bytes / kBytesPerGb;
      cum_wall += r.wall_time_s / 3600.0;
      if (std::isnan(r.test_acc)) continue;
      os << (first ? "" : ", ") << "{\"round\": " << r.round
         << ", \"accuracy\": " << num(r.test_acc)
         << ", \"round_down_bytes\": " << num(r.down_bytes)
         << ", \"round_up_bytes\": " << num(r.up_bytes)
         << ", \"cum_down_gb\": " << num(cum_down)
         << ", \"cum_up_gb\": " << num(cum_up)
         << ", \"cum_wall_h\": " << num(cum_wall) << "}";
      first = false;
    }
    os << "]";
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(fnv1a(
                    engine.stats(), fnv1a(engine.params(),
                                          0xcbf29ce484222325ULL))));
  os << ", \"model_digest\": \"" << digest << "\", \"counters\": {";
  const telemetry::MetricDef* defs = telemetry::metric_defs();
  for (int i = 0; i < telemetry::kNumScalarMetrics; ++i) {
    os << (i ? ", " : "") << "\"" << defs[i].name << "\": "
       << telemetry::value(static_cast<telemetry::MetricId>(i));
  }
  os << "}}\n";
}

int cmd_run(const Flags& f) {
  const Clock clock;
  const std::string out_path = need(f, "out");
  const std::string resume_from = get(f, "resume-from", "");
  const std::string events_path = get(f, "events", "");
  const bool async = get(f, "exec", "sync") == "async";

  telemetry::reset();
  events::reset();
  telemetry::configure({get(f, "trace", ""), ""});
  if (!events_path.empty()) events::configure(events_path);
  Pacer pacer(clock);
  pacer.sample();  // set-up is timed from the end of this sample

  ckpt::Snapshot snap;
  if (!resume_from.empty()) {
    // The program's own "ckpt.load" span covers this call.
    snap = ckpt::load_checkpoint(resume_from);
    telemetry::set_sim_values(snap.telemetry);
  }

  // The same engine configuration `gluefl run` builds from these flags.
  const SyntheticSpec spec =
      make_spec(need(f, "dataset"), get_double(f, "scale", 0.25));
  const int k = preset_clients_per_round(spec);
  const std::string model = get(f, "model", "shufflenet");
  RunConfig run;
  run.rounds = static_cast<int>(get_long(f, "rounds", 50));
  run.clients_per_round = k;
  run.overcommit = 1.3;  // the CLI's --overcommit and --eval-every defaults
  run.eval_every = std::min(5, run.rounds);
  run.topk_accuracy = preset_topk(spec);
  run.seed = static_cast<uint64_t>(get_long(f, "seed", 42));
  run.use_availability = true;
  run.num_threads = static_cast<int>(get_long(f, "threads", 0));
  run.population = get_long(f, "population", 0);
  run.population_mode = get(f, "population-mode", "dense") == "virtual"
                            ? PopulationMode::kVirtual
                            : PopulationMode::kDense;
  run.wire.mode = get(f, "wire", "encoded") == "analytic"
                      ? WireMode::kAnalytic
                      : WireMode::kEncoded;
  const std::string scenario_name = get(f, "scenario", "");
  if (!scenario_name.empty()) {
    run.scenario = scenario::load_scenario(scenario_name);
  }
  TrainConfig train;
  train.lr0 = 0.05;

  FederatedDataset dataset;
  spanned("bench.data.synth",
          [&] { dataset = make_synthetic_dataset(spec); });
  std::optional<ModelProxy> proxy;
  spanned("bench.nn.proxy", [&] {
    proxy.emplace(make_proxy(model, spec.feature_dim, spec.num_classes));
  });
  std::unique_ptr<SimEngine> engine;
  std::unique_ptr<AsyncSimEngine> async_engine;
  AsyncConfig acfg;
  if (async) {
    acfg.concurrency = std::stoi(need(f, "async-conc"));
    acfg.buffer_size = std::stoi(need(f, "async-buffer"));
  }
  spanned("bench.fl.engine_ctor", [&] {
    engine = std::make_unique<SimEngine>(
        std::move(dataset), std::move(*proxy),
        make_env(get(f, "env", "edge")), train, run);
    if (async) async_engine = std::make_unique<AsyncSimEngine>(*engine, acfg);
  });

  double init_end = -1.0;
  const std::string strategy_name = need(f, "strategy");
  std::unique_ptr<TimedStrategy> sync_strategy;
  std::unique_ptr<TimedAsyncStrategy> async_strategy;
  ckpt::Checkpointable* checkpointable = nullptr;
  spanned("bench.strategy.make", [&] {
    if (async) {
      AsyncFedBuffConfig fb;
      fb.discount = get(f, "staleness", "poly") == "const"
                        ? StalenessDiscount::kConstant
                        : StalenessDiscount::kPolynomial;
      fb.alpha = get_double(f, "staleness-alpha", fb.alpha);
      fb.server_lr = get_double(f, "server-lr", fb.server_lr);
      async_strategy = std::make_unique<TimedAsyncStrategy>(
          make_async_strategy(strategy_name, fb), clock, pacer, init_end);
      checkpointable = async_strategy.get();
    } else {
      sync_strategy = std::make_unique<TimedStrategy>(
          make_strategy(strategy_name, k, model), clock, pacer, init_end);
      checkpointable = sync_strategy.get();
    }
  });

  const ckpt::CkptOptions copts{
      static_cast<int>(get_long(f, "checkpoint-every", 0)),
      get(f, "checkpoint-dir", ""),
      static_cast<int>(get_long(f, "crash-at-round", 0))};
  std::unique_ptr<ckpt::CheckpointHook> ckpt_hook;
  if (copts.every > 0 || copts.crash_at > 0) {
    ckpt_hook = std::make_unique<ckpt::CheckpointHook>(
        copts, std::map<std::string, std::string>{{"workload", "perfbench"}},
        strategy_name, *checkpointable);
  }
  BoundaryHook hook(clock, pacer, ckpt_hook.get());

  RunResult res;
  bool crashed = false;
  double run_start = -1.0;
  try {
    if (!resume_from.empty()) {
      AsyncRunState state;
      spanned("bench.ckpt.restore", [&] {
        if (async) {
          state = ckpt::restore_async_run(snap, *engine, *async_strategy);
        } else {
          ckpt::restore_sync_run(snap, *engine, *sync_strategy);
        }
      });
      run_start = clock.now();
      res = async ? async_engine->resume(*async_strategy, std::move(state),
                                         ckpt::history_result(snap), &hook)
                  : engine->run_from(*sync_strategy, snap.next_round,
                                     ckpt::history_result(snap), &hook);
    } else {
      run_start = clock.now();
      res = async ? async_engine->run(*async_strategy, &hook)
                  : engine->run(*sync_strategy, &hook);
    }
  } catch (const ckpt::SimulatedCrash&) {
    crashed = true;
    events::abandon();  // the log ends at the last checkpoint
  }
  if (!crashed) spanned("bench.events.finalize", [] { events::finalize(); });
  telemetry::finalize();  // writes the trace, if any
  pacer.sample();         // the workload's time ends where this begins

  std::ofstream out(out_path);
  write_result(out, init_end, run_start, hook, pacer, *engine, crashed,
               crashed ? nullptr : &res);
  out.close();
  if (!out) throw std::runtime_error("cannot write " + out_path);
  return 0;
}

/// The `gluefl run` flags cmd_run understands, plus the harness's own. An
/// unknown flag is an error: ignoring it would run another configuration
/// than the CLI the results are compared against.
const std::set<std::string> kKnownFlags = {
    "strategy", "exec", "dataset", "scale", "model", "env", "wire", "rounds",
    "seed", "threads", "population", "population-mode", "scenario",
    "checkpoint-every", "checkpoint-dir",
    "crash-at-round", "events", "async-conc", "async-buffer", "staleness",
    "staleness-alpha", "server-lr", "trace", "out", "resume-from"};

Flags parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || kKnownFlags.count(key.substr(2)) == 0) {
      throw std::runtime_error("unexpected argument " + key);
    }
    key = key.substr(2);
    if (i + 1 == argc) {
      throw std::runtime_error("flag --" + key + " is missing a value");
    }
    f[key] = argv[++i];
  }
  return f;
}

}  // namespace
}  // namespace gluefl::perfbench

int main(int argc, char** argv) {
  using namespace gluefl::perfbench;
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    const Flags f = parse_flags(argc, argv);
    if (cmd == "run") return cmd_run(f);
    if (cmd == "probe") {
      return run_probes(need(f, "dataset"), need(f, "model"),
                        need(f, "strategy"), need(f, "out"));
    }
    std::cerr << "usage: perfbench_harness run|probe [flags]\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
