#include "cli/cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/report.h"
#include "ckpt/checkpoint.h"
#include "common/check.h"
#include "common/json.h"
#include "common/provenance.h"
#include "common/table.h"
#include "data/presets.h"
#include "fl/engine.h"
#include "net/environment.h"
#include "nn/proxies.h"
#include "strategies/factory.h"
#include "strategies/gluefl.h"
#include "telemetry/events.h"
#include "telemetry/profile.h"
#include "telemetry/report.h"
#include "telemetry/telemetry.h"
#include "wire/kernels.h"

namespace gluefl::cli {

namespace {

/// Bad flags / values: reported as usage errors (exit code 2), as opposed
/// to CheckError (library invariant violations, exit code 1).
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

constexpr const char* kUsage = R"(usage: gluefl <command> [flags]

commands:
  list    enumerate strategies, dataset presets, network envs and models;
          --metrics prints the telemetry metric registry instead;
          --scenarios prints the bundled scenario specs instead
  run     train one strategy on one workload, print report + JSON summary
  sweep   grid-search GlueFL's q / q_shr / sticky parameters
  resume  continue an interrupted run from a checkpoint:
            gluefl resume CKPT [--threads N] [--json FILE]
                   [--trace FILE] [--metrics FILE]
                   [--checkpoint-every N --checkpoint-dir D]
                   [--crash-at-round K]
          the final report/JSON is byte-identical to the uninterrupted run
  profile compare the telemetry blocks of two JSON summaries:
            gluefl profile A.json B.json
  report  attribute cost and faults from a flight-recorder event log:
            gluefl report EVENTS [--top K] [--json]
          prints top-K stragglers, per-device-class byte/time/fate
          breakdowns, sticky-cohort churn, mask-overlap stats and the
          scenario fault timeline; --json emits one machine-readable
          document instead of tables
  help    show this message (so does --help after any command)

run flags:
  --exec MODE        round execution model: sync | async         [sync]
  --strategy NAME    sync:  fedavg | stc | apf | gluefl | gluefl-paper
                     async: async-fedbuff                        [gluefl]
  --dataset NAME     femnist | openimage | speech                [femnist]
  --model NAME       shufflenet | mobilenet | resnet34           [shufflenet]
  --env NAME         edge | 5g | datacenter                      [edge]
  --rounds N         training rounds (async: aggregations)       [50]
  --scale X          dataset population scale in (0, 1]          [0.25]
  --population N     simulated client population in
                     [1, 100000000]; omit to use the preset's
                     count at this --scale                       [preset]
  --population-mode MODE  per-client state layout: dense
                     (materialized arrays) | virtual (derived on
                     demand; memory stays O(active cohort) even
                     at 10^6+ clients)                           [dense]
  --overcommit F     invitation over-commitment factor (sync)    [1.3]
  --eval-every N     evaluate test accuracy every N rounds       [5]
  --seed N           RNG seed                                    [42]
  --threads N        training threads; 0 = hardware concurrency  [0]
  --agg MODE         update reduction: dense | sharded           [dense]
  --agg-shards N     parameter-range shards (--agg=sharded only;
                     omit for an automatic count)
  --topology SPEC    flat, or hier:<E> for E edge aggregators
                     between clients and cloud                   [flat]
  --wire MODE        byte accounting: encoded (serialize real
                     payloads, price measured bytes) | analytic
                     (pre-wire size formulas, for A/B)           [encoded]
  --scenario S       fleet-shaping scenario: a bundled name (see
                     `gluefl list --scenarios`) or a JSON spec
                     file — device-class mixes, diurnal/trace
                     availability, reporting deadlines, dropouts
                     and Byzantine clients (DESIGN.md §11);
                     validated eagerly, also under --dry-run     [off]
  --json FILE        also write the JSON summary to FILE
  --trace FILE       write a Chrome trace-event JSON file to FILE (open in
                     Perfetto / chrome://tracing): wall-clock spans for
                     every round phase plus a simulated-clock timeline
  --metrics FILE     stream cumulative per-round metrics to FILE as JSONL
  --events FILE      record a binary flight-recorder event log to FILE: one
                     record per (round, client) participation — device
                     class, bytes, phase seconds, fate, staleness — plus
                     round summaries; inspect with `gluefl report`
                     (run/resume only; byte-identical across --threads)
  --dry-run          validate flags and configuration, then exit without
                     running anything (accepted by run, sweep, resume and
                     profile; skips checkpoint-directory probing, file
                     probing and loading)
  --checkpoint-every N  save a resumable snapshot every N rounds
                        (requires --checkpoint-dir)
  --checkpoint-dir D    existing, writable directory for snapshots
  --crash-at-round K    fault injection: simulate a server crash once K
                        rounds have completed (exit code 3); resume from
                        the newest snapshot with `gluefl resume`

async run flags (require --exec=async):
  --async-buffer N     updates buffered per aggregation (K)      [preset K]
  --async-conc N       clients training concurrently             [3K]
  --staleness MODE     discount family: const | poly             [poly]
  --staleness-alpha F  poly exponent: s(t) = (1+t)^-alpha        [0.5]
  --server-lr F        server learning rate eta_g                [1.0]
  --max-staleness N    weight 0 beyond this staleness; 0 = off   [0]

sweep flags (plus --dataset/--model/--env/--rounds/--scale/--seed/
             --population/--population-mode/--agg/--agg-shards/
             --topology/--wire/--scenario above):
  --q LIST           total mask ratios, e.g. 0.1,0.2,0.3
  --q-shr LIST       shared mask ratios, e.g. 0.08,0.16
  --sticky-s LIST    sticky group sizes S (absolute client counts)
  --sticky-c LIST    sticky participants per round C
  --json FILE        also write the JSON summary to FILE
  --trace FILE / --metrics FILE  as for run (spans cover every arm)
  with --exec=async the grid is --async-buffer LIST x --staleness-alpha LIST
)";

double parse_double(const std::string& key, const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno != 0 || !std::isfinite(v)) {
    throw UsageError("--" + key + " expects a number, got '" + s + "'");
  }
  return v;
}

long parse_long(const std::string& key, const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno != 0) {
    throw UsageError("--" + key + " expects an integer, got '" + s + "'");
  }
  return v;
}

std::vector<double> parse_double_list(const std::string& key,
                                      const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(parse_double(key, item));
  }
  if (out.empty()) throw UsageError("--" + key + " expects a non-empty list");
  return out;
}

/// Topology spec: "flat" -> 0 edges, "hier:<E>" -> E edge aggregators.
/// Anything else — including hier with E < 1 — is rejected loudly rather
/// than silently misconfiguring the run.
int parse_topology(const std::string& spec) {
  if (spec == "flat") return 0;
  if (spec.rfind("hier:", 0) == 0) {
    const std::string e = spec.substr(5);
    const long v = parse_long("topology", e);
    if (v < 1 || v > 1000000) {
      throw UsageError("--topology hier:<E> needs E in [1, 1000000], got '" +
                       e + "'");
    }
    return static_cast<int>(v);
  }
  throw UsageError("--topology expects 'flat' or 'hier:<E>', got '" + spec +
                   "'");
}

/// Flag accessor that tracks which keys were consumed so unknown flags can
/// be rejected afterwards.
class Flags {
 public:
  explicit Flags(const std::map<std::string, std::string>& flags)
      : flags_(flags) {}

  std::string str(const std::string& key, const std::string& def) {
    used_.insert(key);
    const auto it = flags_.find(key);
    return it == flags_.end() ? def : it->second;
  }
  double num(const std::string& key, double def) {
    used_.insert(key);
    const auto it = flags_.find(key);
    return it == flags_.end() ? def : parse_double(key, it->second);
  }
  long integer(const std::string& key, long def, long lo, long hi) {
    used_.insert(key);
    const auto it = flags_.find(key);
    if (it == flags_.end()) return def;
    const long v = parse_long(key, it->second);
    if (v < lo || v > hi) {
      throw UsageError("--" + key + " must be in [" + std::to_string(lo) +
                       ", " + std::to_string(hi) + "], got '" + it->second +
                       "'");
    }
    return v;
  }
  std::vector<double> list(const std::string& key, std::vector<double> def) {
    used_.insert(key);
    const auto it = flags_.find(key);
    return it == flags_.end() ? std::move(def)
                              : parse_double_list(key, it->second);
  }

  /// Boolean (presence) flag. parse_args stores "1" for the bare form;
  /// an explicit value is a usage error because none is meaningful.
  bool flag(const std::string& key) {
    used_.insert(key);
    const auto it = flags_.find(key);
    if (it == flags_.end()) return false;
    if (it->second != "1") {
      throw UsageError("--" + key + " takes no value");
    }
    return true;
  }

  /// True if the flag appeared on the command line. Does NOT mark the flag
  /// consumed — use it to reject flags that are invalid in this mode.
  bool provided(const std::string& key) const {
    return flags_.count(key) != 0;
  }

  /// Throws if any provided flag was never consumed by the command.
  void reject_unknown() const {
    for (const auto& [key, value] : flags_) {
      (void)value;
      if (used_.count(key) == 0) throw UsageError("unknown flag --" + key);
    }
  }

 private:
  const std::map<std::string, std::string>& flags_;
  std::set<std::string> used_;
};

/// Only `resume` consumes positionals; everywhere else they are mistakes.
void reject_positionals(const ParsedArgs& args) {
  if (!args.positionals.empty()) {
    throw UsageError("unexpected positional argument '" +
                     args.positionals.front() + "'");
  }
}

void require_name(const std::string& kind, const std::string& name,
                  const std::vector<std::string>& known) {
  if (std::find(known.begin(), known.end(), name) != known.end()) return;
  std::string msg = "unknown " + kind + " '" + name + "'; choose one of:";
  for (const auto& k : known) msg += " " + k;
  throw UsageError(msg);
}

SyntheticSpec make_spec(const std::string& dataset, double scale) {
  if (dataset == "femnist") return femnist_spec(scale);
  if (dataset == "openimage") return openimage_spec(scale);
  return speech_spec(scale);
}

/// The population the run actually simulates: --population when given,
/// otherwise the dataset preset's client count at this --scale. This is
/// the N that sizes samplers, async concurrency and the topology check.
long effective_population(const RunOptions& opt, const SyntheticSpec& spec) {
  return opt.population > 0 ? opt.population : spec.num_clients;
}

/// Strategy construction with the sticky group clamped to the (possibly
/// tiny, --scale-shrunk) population so small smoke runs stay valid.
std::unique_ptr<Strategy> make_strategy_for(const std::string& name, int k,
                                            const std::string& model,
                                            int num_clients) {
  if (name == "gluefl" || name == "gluefl-paper") {
    GlueFlConfig cfg = name == "gluefl-paper"
                           ? default_gluefl_config(k, model)
                           : calibrated_gluefl_config(k, model);
    cfg.sticky_group_size = std::min(cfg.sticky_group_size, num_clients);
    cfg.sticky_per_round = std::min(cfg.sticky_per_round, k);
    return std::make_unique<GlueFlStrategy>(cfg);
  }
  return make_strategy(name, k, model);
}

RunOptions resolve_common(Flags& flags) {
  RunOptions opt;
  opt.dataset = flags.str("dataset", opt.dataset);
  opt.model = flags.str("model", opt.model);
  opt.env = flags.str("env", opt.env);
  opt.exec = flags.str("exec", opt.exec);
  opt.rounds = static_cast<int>(flags.integer("rounds", opt.rounds, 1, 1000000));
  opt.scale = flags.num("scale", opt.scale);
  // [1, 10^8]: zero/negative populations are nonsense and anything past
  // 10^8 exceeds the engine's supported maximum; absent = preset count.
  opt.population = flags.integer("population", 0, 1, 100000000);
  opt.population_mode = flags.str("population-mode", opt.population_mode);
  opt.overcommit = flags.num("overcommit", opt.overcommit);
  opt.eval_every =
      static_cast<int>(flags.integer("eval-every", opt.eval_every, 1, 1000000));
  opt.seed = static_cast<uint64_t>(
      flags.integer("seed", 42, 0, std::numeric_limits<long>::max()));
  opt.threads = static_cast<int>(flags.integer("threads", 0, 0, 1024));
  opt.agg = flags.str("agg", opt.agg);
  opt.agg_shards = static_cast<int>(flags.integer("agg-shards", 0, 1, 65536));
  opt.topology = flags.str("topology", opt.topology);
  opt.wire = flags.str("wire", opt.wire);
  opt.scenario = flags.str("scenario", "");
  opt.json_path = flags.str("json", "");
  opt.trace_path = flags.str("trace", "");
  opt.metrics_path = flags.str("metrics", "");
  opt.events_path = flags.str("events", "");

  require_name("dataset", opt.dataset, dataset_names());
  require_name("model", opt.model, model_names());
  require_name("network env", opt.env, env_names());
  require_name("exec mode", opt.exec, {"sync", "async"});
  require_name("aggregator", opt.agg, {"dense", "sharded"});
  require_name("population mode", opt.population_mode, {"dense", "virtual"});
  require_name("wire mode", opt.wire, {"encoded", "analytic"});
  if (flags.provided("agg-shards") && opt.agg != "sharded") {
    throw UsageError("--agg-shards requires --agg=sharded");
  }
  opt.num_edges = parse_topology(opt.topology);
  // Async execution has no invitation barrier, so over-commitment cannot
  // shape the run; reject it rather than silently ignore it.
  if (opt.exec == "async" && flags.provided("overcommit")) {
    throw UsageError("--overcommit requires --exec=sync (async execution "
                     "has no straggler barrier to over-commit against)");
  }
  if (opt.scale <= 0.0 || opt.scale > 1.0) {
    throw UsageError("--scale must be in (0, 1]");
  }
  if (opt.overcommit < 1.0) throw UsageError("--overcommit must be >= 1.0");
  // Eager even under --dry-run: a misspelled scenario file must fail when
  // the command line is vetted, not hundreds of rounds into a campaign.
  // ScenarioError propagates to run_cli (one clean line, exit code 1).
  if (!opt.scenario.empty()) {
    opt.scenario_spec = scenario::load_scenario(opt.scenario);
  }
  return opt;
}

/// The run/sweep/resume JSON "scenario" value: the canonical single-line
/// spec when a scenario is active, JSON null otherwise. Canonicalization
/// (scenario::to_json) makes the echo independent of how the spec was
/// given — a file path at run time, checkpoint meta at resume time — which
/// is what keeps resumed summaries byte-identical.
std::string scenario_json(const RunOptions& opt) {
  if (opt.scenario.empty()) return "null";
  return scenario::to_json(opt.scenario_spec);
}

/// Async-execution knobs resolved from flags + (K, population) defaults.
struct AsyncOptions {
  AsyncConfig engine;
  AsyncFedBuffConfig fedbuff;
  std::string staleness = "poly";  // discount family name for reports
};

constexpr const char* kAsyncFlagNames[] = {
    "async-buffer", "async-conc",  "staleness",
    "staleness-alpha", "server-lr", "max-staleness"};

/// Async flags silently ignored under --exec=sync would be misleading;
/// reject them explicitly.
void reject_async_flags_in_sync_mode(const Flags& flags,
                                     const std::string& exec) {
  if (exec == "async") return;
  for (const char* f : kAsyncFlagNames) {
    if (flags.provided(f)) {
      throw UsageError(std::string("--") + f + " requires --exec=async");
    }
  }
}

/// Resolves the async knobs shared by run and sweep — everything except
/// the buffer / alpha axes, which run reads as scalars and sweep as lists.
AsyncOptions resolve_async_shared(Flags& flags, int k, int num_clients) {
  AsyncOptions a;
  const long default_conc =
      std::min(static_cast<long>(3) * k, static_cast<long>(num_clients));
  a.engine.concurrency = static_cast<int>(
      flags.integer("async-conc", default_conc, 1, 1000000));
  if (a.engine.concurrency > num_clients) {
    throw UsageError("--async-conc exceeds the client population (" +
                     std::to_string(num_clients) + ")");
  }
  a.staleness = flags.str("staleness", a.staleness);
  require_name("staleness mode", a.staleness, {"const", "poly"});
  a.fedbuff.discount = a.staleness == "const" ? StalenessDiscount::kConstant
                                              : StalenessDiscount::kPolynomial;
  a.fedbuff.server_lr = flags.num("server-lr", a.fedbuff.server_lr);
  a.fedbuff.max_staleness = static_cast<int>(
      flags.integer("max-staleness", 0, 0, 1000000));
  if (a.fedbuff.server_lr <= 0.0) {
    throw UsageError("--server-lr must be > 0");
  }
  return a;
}

/// A buffer larger than the concurrency can never fill from one in-flight
/// cohort — every aggregation would wait on multiple dispatch waves,
/// inflating staleness in a way that is almost always a misconfiguration.
/// Explicitly-requested values are rejected loudly; the buffer DEFAULT
/// clamps to the concurrency instead (see resolve_async), so lowering
/// --async-conc alone never errors about a flag the user did not set.
void require_buffer_fits_concurrency(int buffer_size, int concurrency) {
  if (buffer_size > concurrency) {
    throw UsageError("--async-buffer (K=" + std::to_string(buffer_size) +
                     ") must not exceed --async-conc (N=" +
                     std::to_string(concurrency) +
                     "): a K-of-N trigger needs K <= N");
  }
}

AsyncOptions resolve_async(Flags& flags, int k, int num_clients) {
  AsyncOptions a = resolve_async_shared(flags, k, num_clients);
  const long default_buffer =
      std::min(static_cast<long>(k), static_cast<long>(a.engine.concurrency));
  a.engine.buffer_size = static_cast<int>(
      flags.integer("async-buffer", default_buffer, 1, 100000));
  require_buffer_fits_concurrency(a.engine.buffer_size, a.engine.concurrency);
  a.fedbuff.alpha = flags.num("staleness-alpha", a.fedbuff.alpha);
  if (a.fedbuff.alpha < 0.0) {
    throw UsageError("--staleness-alpha must be >= 0");
  }
  return a;
}

/// Population/topology consistency checks shared by the real engine
/// construction and --dry-run (which must report the same errors without
/// paying for the engine).
void validate_population_topology(const RunOptions& opt, long pop, int k) {
  if (pop < k) {
    throw UsageError("--population " + std::to_string(pop) +
                     " is smaller than the preset cohort K=" +
                     std::to_string(k));
  }
  if (opt.num_edges > pop) {
    throw UsageError("--topology hier:" + std::to_string(opt.num_edges) +
                     " has more edges than the population (" +
                     std::to_string(pop) + " clients)");
  }
}

SimEngine make_cli_engine(const RunOptions& opt, const SyntheticSpec& spec,
                          int k, int topk) {
  validate_population_topology(opt, effective_population(opt, spec), k);
  TrainConfig train;
  train.lr0 = 0.05;
  RunConfig run;
  run.rounds = opt.rounds;
  run.clients_per_round = k;
  run.overcommit = opt.overcommit;
  run.eval_every = std::min(opt.eval_every, opt.rounds);
  run.topk_accuracy = topk;
  run.seed = opt.seed;
  run.use_availability = true;
  run.num_threads = opt.threads;
  run.population = opt.population;
  run.population_mode = opt.population_mode == "virtual"
                            ? PopulationMode::kVirtual
                            : PopulationMode::kDense;
  run.agg.kind = opt.agg == "sharded" ? AggKind::kSharded : AggKind::kDense;
  run.agg.shards = opt.agg_shards;
  run.topology.num_edges = opt.num_edges;
  run.wire.mode =
      opt.wire == "analytic" ? WireMode::kAnalytic : WireMode::kEncoded;
  run.scenario = opt.scenario_spec;
  return SimEngine(make_synthetic_dataset(spec),
                   make_proxy(opt.model, spec.feature_dim, spec.num_classes),
                   make_env(opt.env), train, run);
}

// ---- checkpoint / provenance plumbing ----

/// Resolves and validates the run/resume checkpoint flags. All failure
/// modes surface before the first (possibly expensive) round executes: a
/// missing or read-only directory must not cost a lost snapshot hundreds
/// of rounds into a campaign.
void resolve_checkpoint_flags(Flags& flags, RunOptions& opt,
                              bool probe_dir = true) {
  opt.checkpoint_every =
      static_cast<int>(flags.integer("checkpoint-every", 0, 1, 1000000));
  opt.checkpoint_dir = flags.str("checkpoint-dir", "");
  opt.crash_at_round = static_cast<int>(
      flags.integer("crash-at-round", 0, 1, opt.rounds));
  if (opt.checkpoint_every > 0 && opt.checkpoint_dir.empty()) {
    throw UsageError("--checkpoint-every requires --checkpoint-dir");
  }
  if (!opt.checkpoint_dir.empty() && opt.checkpoint_every == 0) {
    throw UsageError("--checkpoint-dir requires --checkpoint-every");
  }
  // --dry-run skips the probe: validating a command line must not require
  // the snapshot directory to exist yet.
  if (!opt.checkpoint_dir.empty() && probe_dir) {
    const std::string probe = opt.checkpoint_dir + "/.gluefl-ckpt-probe";
    std::ofstream f(probe);
    const bool ok = f.good();
    f.close();
    std::remove(probe.c_str());
    if (!ok) {
      throw UsageError("--checkpoint-dir '" + opt.checkpoint_dir +
                       "' is missing or not writable");
    }
  }
}

/// Round-trip-exact double formatting for checkpoint meta: precision 17
/// guarantees parse(format(x)) == x, which keeps a resumed run's echoed
/// JSON byte-identical to the original run's.
std::string meta_double_str(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Everything `gluefl resume` needs to reconstruct the engine + strategy,
/// plus the provenance of the binary that wrote the snapshot.
std::map<std::string, std::string> ckpt_meta(const RunOptions& opt,
                                             const std::string& strategy,
                                             const AsyncOptions* aopt) {
  std::map<std::string, std::string> m;
  m["strategy"] = strategy;
  m["exec"] = opt.exec;
  m["dataset"] = opt.dataset;
  m["model"] = opt.model;
  m["env"] = opt.env;
  m["rounds"] = std::to_string(opt.rounds);
  m["scale"] = meta_double_str(opt.scale);
  m["population"] = std::to_string(opt.population);
  m["population_mode"] = opt.population_mode;
  m["overcommit"] = meta_double_str(opt.overcommit);
  m["eval_every"] = std::to_string(opt.eval_every);
  m["seed"] = std::to_string(opt.seed);
  m["threads"] = std::to_string(opt.threads);
  m["agg"] = opt.agg;
  m["agg_shards"] = std::to_string(opt.agg_shards);
  m["topology"] = opt.topology;
  m["wire"] = opt.wire;
  // The canonical spec, not the --scenario flag value: the file it named
  // may be gone or edited by resume time, and the run's exact fleet shape
  // must ride the snapshot. Empty = no scenario.
  m["scenario"] = opt.scenario.empty() ? "" : scenario::to_json(opt.scenario_spec);
  if (aopt != nullptr) {
    m["async_buffer"] = std::to_string(aopt->engine.buffer_size);
    m["async_conc"] = std::to_string(aopt->engine.concurrency);
    m["staleness"] = aopt->staleness;
    m["staleness_alpha"] = meta_double_str(aopt->fedbuff.alpha);
    m["server_lr"] = meta_double_str(aopt->fedbuff.server_lr);
    m["max_staleness"] = std::to_string(aopt->fedbuff.max_staleness);
  }
  m["git_hash"] = build_git_hash();
  m["build_type"] = build_type();
  return m;
}

/// One hook-construction point for all four run/resume x sync/async
/// sites. Returns null when neither checkpointing nor crash injection is
/// requested; `resumed_from` (resume only) seeds the crash report's
/// "newest checkpoint" with the source snapshot.
std::unique_ptr<ckpt::CheckpointHook> make_ckpt_hook(
    const ckpt::CkptOptions& copts, const RunOptions& opt,
    const std::string& strategy_name, const AsyncOptions* aopt,
    const ckpt::Checkpointable& strategy,
    const std::string& resumed_from = "") {
  if (copts.every <= 0 && copts.crash_at <= 0) return nullptr;
  auto hook = std::make_unique<ckpt::CheckpointHook>(
      copts, ckpt_meta(opt, strategy_name, aopt), strategy_name, strategy);
  if (!resumed_from.empty()) hook->set_last_checkpoint(resumed_from);
  return hook;
}

const std::string& meta_get(const ckpt::Snapshot& snap,
                            const std::string& key) {
  const auto it = snap.meta.find(key);
  if (it == snap.meta.end()) {
    throw ckpt::CkptError("checkpoint is missing meta key '" + key + "'");
  }
  return it->second;
}

long meta_long(const ckpt::Snapshot& snap, const std::string& key) {
  const std::string& s = meta_get(snap, key);
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno != 0) {
    throw ckpt::CkptError("checkpoint meta key '" + key +
                          "' is not an integer: '" + s + "'");
  }
  return v;
}

double meta_double(const ckpt::Snapshot& snap, const std::string& key) {
  const std::string& s = meta_get(snap, key);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno != 0 || !std::isfinite(v)) {
    throw ckpt::CkptError("checkpoint meta key '" + key +
                          "' is not a number: '" + s + "'");
  }
  return v;
}

/// Range-checked meta reads: a tampered-but-CRC-resealed checkpoint must
/// fail as a clean CkptError, never reach the engine as a nonsense value
/// (eval_every=0 would divide by zero in the round loop).
long meta_long_range(const ckpt::Snapshot& snap, const std::string& key,
                     long lo, long hi) {
  const long v = meta_long(snap, key);
  if (v < lo || v > hi) {
    throw ckpt::CkptError("checkpoint meta key '" + key +
                          "' is out of range: " + std::to_string(v));
  }
  return v;
}

/// Rejects a meta value that violates the SAME acceptance condition the
/// run command's flag validation applies — a checkpoint any legal run
/// could write must never be unresumable, and anything tighter or looser
/// here would break that symmetry.
[[noreturn]] void meta_range_fail(const ckpt::Snapshot& snap,
                                  const std::string& key,
                                  const char* constraint) {
  throw ckpt::CkptError("checkpoint meta key '" + key + "' violates " +
                        constraint + ": '" + meta_get(snap, key) + "'");
}

/// Registry-name meta check: unknown values must fail as CkptError (the
/// bad-checkpoint exit path), not fall through to a silent default.
void require_meta_name(const ckpt::Snapshot& snap, const std::string& key,
                       const std::vector<std::string>& known) {
  const std::string& name = meta_get(snap, key);
  if (std::find(known.begin(), known.end(), name) != known.end()) return;
  throw ckpt::CkptError("checkpoint meta key '" + key + "' names '" + name +
                        "', which this binary does not know");
}

// ---- JSON emission (hand-rolled; no external deps available) ----

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

/// Build provenance block: identifies the binary that produced a summary
/// (resumed runs embed the CURRENT binary's provenance, so same-binary
/// resume output stays byte-identical to the uninterrupted run's).
std::string provenance_json() {
  return "{\"git_hash\": " + jstr(build_git_hash()) +
         ", \"build_type\": " + jstr(build_type()) + "}";
}

std::string totals_json(const RunTotals& t) {
  std::ostringstream os;
  os << "{\"down_gb\": " << jnum(t.down_gb) << ", \"up_gb\": " << jnum(t.up_gb)
     << ", \"total_gb\": " << jnum(t.total_gb)
     << ", \"download_hours\": " << jnum(t.download_hours)
     << ", \"wall_hours\": " << jnum(t.wall_hours)
     << ", \"rounds\": " << t.rounds << "}";
  return os.str();
}

// Per-eval trajectory entries. Round byte figures are the priced payload
// sizes — measured encodes under --wire=encoded, analytic formulas under
// --wire=analytic.
std::string trajectory_json(const RunResult& res) {
  std::ostringstream os;
  os << "[";
  double cum_down = 0.0, cum_up = 0.0, cum_wall = 0.0;
  bool first = true;
  for (const auto& r : res.rounds) {
    cum_down += r.down_bytes / kBytesPerGb;
    cum_up += r.up_bytes / kBytesPerGb;
    cum_wall += r.wall_time_s / 3600.0;
    if (std::isnan(r.test_acc)) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"round\": " << r.round << ", \"accuracy\": " << jnum(r.test_acc)
       << ", \"round_down_bytes\": " << jnum(r.down_bytes)
       << ", \"round_up_bytes\": " << jnum(r.up_bytes)
       << ", \"cum_down_gb\": " << jnum(cum_down)
       << ", \"cum_up_gb\": " << jnum(cum_up)
       << ", \"cum_wall_h\": " << jnum(cum_wall) << "}";
  }
  os << "]";
  return os.str();
}

std::string async_json(const AsyncOptions& a) {
  std::ostringstream os;
  os << "{\"buffer_size\": " << a.engine.buffer_size
     << ", \"concurrency\": " << a.engine.concurrency
     << ", \"staleness\": " << jstr(a.staleness)
     << ", \"alpha\": " << jnum(a.fedbuff.alpha)
     << ", \"server_lr\": " << jnum(a.fedbuff.server_lr)
     << ", \"max_staleness\": " << a.fedbuff.max_staleness << "}";
  return os.str();
}

/// The "telemetry" block of run/sweep/resume JSON summaries. Only
/// sim-class material may appear here: phase times are summed from the
/// (resume-stable) round records at emission time, and the counters /
/// histogram come from telemetry::sim_values(), which checkpoints restore
/// — so the block honours the same byte-identity contracts as the rest of
/// the summary (tracing on/off, thread count, resume).
std::string telemetry_block_json(double down_s, double compute_s, double up_s,
                                 double wall_s) {
  std::ostringstream os;
  os << "{\"schema\": \"gluefl.telemetry.v1\", \"phases_sim_s\": {\"down\": "
     << jnum(down_s) << ", \"compute\": " << jnum(compute_s)
     << ", \"up\": " << jnum(up_s) << ", \"wall\": " << jnum(wall_s)
     << "}, \"counters\": " << telemetry::sim_counters_json()
     << ", \"wire.mask.run_len\": " << telemetry::mask_hist_json()
     << ", \"digests\": " << telemetry::digests_json() << "}";
  return os.str();
}

std::string telemetry_json(const RunResult& res) {
  double down = 0.0, compute = 0.0, up = 0.0, wall = 0.0;
  for (const auto& r : res.rounds) {
    down += r.down_time_s;
    compute += r.compute_time_s;
    up += r.up_time_s;
    wall += r.wall_time_s;
  }
  return telemetry_block_json(down, compute, up, wall);
}

/// Sweep variant: phase times summed across every arm's rounds (the
/// counters are process-cumulative across arms already).
std::string telemetry_json(const std::vector<LabeledRun>& runs) {
  double down = 0.0, compute = 0.0, up = 0.0, wall = 0.0;
  for (const auto& lr : runs) {
    for (const auto& r : lr.result.rounds) {
      down += r.down_time_s;
      compute += r.compute_time_s;
      up += r.up_time_s;
      wall += r.wall_time_s;
    }
  }
  return telemetry_block_json(down, compute, up, wall);
}

std::string run_json(const RunOptions& opt, const std::string& strategy,
                     const SyntheticSpec& spec, int k, long population,
                     double peak_rss_est_mb, const RunResult& res,
                     const std::string& async_block = "") {
  const RunTotals totals = res.totals();
  std::ostringstream os;
  os << "{\"schema\": \"gluefl.run.v1\", \"strategy\": " << jstr(strategy)
     << ", \"exec\": " << jstr(opt.exec)
     << ", \"dataset\": " << jstr(opt.dataset)
     << ", \"model\": " << jstr(opt.model) << ", \"env\": " << jstr(opt.env)
     << ", \"rounds\": " << opt.rounds << ", \"clients\": " << spec.num_clients
     << ", \"clients_per_round\": " << k << ", \"scale\": " << jnum(opt.scale)
     << ", \"seed\": " << opt.seed << ", \"agg\": " << jstr(opt.agg)
     << ", \"agg_shards\": " << opt.agg_shards
     << ", \"topology\": " << jstr(opt.topology)
     << ", \"wire\": " << jstr(opt.wire)
     << ", \"scenario\": " << scenario_json(opt)
     << ", \"population\": " << population
     << ", \"population_mode\": " << jstr(opt.population_mode)
     << ", \"peak_rss_est_mb\": " << jnum(peak_rss_est_mb)
     << ", \"provenance\": " << provenance_json();
  if (!async_block.empty()) os << ", \"async\": " << async_block;
  os << ", \"telemetry\": " << telemetry_json(res)
     << ", \"best_accuracy\": " << jnum(res.best_accuracy())
     << ", \"totals\": " << totals_json(totals)
     << ", \"trajectory\": " << trajectory_json(res) << "}";
  return os.str();
}

/// "': <strerror text>'" suffix for file-open failures; empty when errno
/// was not set (so the message never invents a cause).
std::string errno_suffix(int saved_errno) {
  if (saved_errno == 0) return "";
  return std::string(": ") + std::strerror(saved_errno);
}

void emit_json(const std::string& json, const std::string& path,
               std::ostream& out) {
  out << "\nJSON summary:\n" << json << "\n";
  if (path.empty()) return;
  errno = 0;
  std::ofstream f(path);
  if (!f) {
    throw UsageError("cannot open --json file '" + path + "' for writing" +
                     errno_suffix(errno));
  }
  f << json << "\n";
}

/// Eagerly validates that an output file named by --json / --trace /
/// --metrics can be created, BEFORE any (possibly expensive) rounds run —
/// same philosophy as the checkpoint-directory probe: a bad path must not
/// cost a finished campaign its summary. The probe opens in append mode
/// so an existing file's contents survive; a file the probe itself
/// created is removed again.
void validate_output_path(const std::string& key, const std::string& path) {
  if (path.empty()) return;
  const bool existed = static_cast<bool>(std::ifstream(path));
  errno = 0;
  std::ofstream f(path, std::ios::app);
  const bool ok = f.good();
  const int saved_errno = errno;
  f.close();
  if (!ok) {
    throw UsageError("cannot open --" + key + " file '" + path +
                     "' for writing" + errno_suffix(saved_errno));
  }
  if (!existed) std::remove(path.c_str());
}

/// Whole-file read for `gluefl profile` inputs.
std::string read_text_file(const std::string& path) {
  errno = 0;
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw UsageError("cannot read '" + path + "'" + errno_suffix(errno));
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Shared tail of `run` and `resume`: the per-eval report table, the
/// totals line and the JSON summary. Byte-identical output between the
/// two commands is the resume correctness contract, so both MUST go
/// through here.
void emit_run_report(const RunOptions& opt, const std::string& strategy_name,
                     const SyntheticSpec& spec, int k, long population,
                     double peak_rss_est_mb, const RunResult& res,
                     const AsyncOptions* aopt, std::ostream& out) {
  const bool async = aopt != nullptr;
  TablePrinter t;
  if (async) {
    t.set_headers({"round", "acc", "cum down", "cum up", "cum wall",
                   "staleness"});
  } else {
    t.set_headers({"round", "acc", "cum down", "cum up", "cum wall"});
  }
  double cum_down = 0.0, cum_up = 0.0, cum_wall = 0.0;
  for (const auto& r : res.rounds) {
    cum_down += r.down_bytes;
    cum_up += r.up_bytes;
    cum_wall += r.wall_time_s;
    if (std::isnan(r.test_acc)) continue;
    std::vector<std::string> row{std::to_string(r.round),
                                 fmt_percent(r.test_acc), fmt_bytes(cum_down),
                                 fmt_bytes(cum_up), fmt_seconds(cum_wall)};
    if (async) row.push_back(fmt_double(r.mean_staleness, 2));
    t.add_row(row);
  }
  out << t.to_string();

  const RunTotals totals = res.totals();
  out << "\ntotals: DV=" << fmt_double(totals.down_gb, 3)
      << " GB  TV=" << fmt_double(totals.total_gb, 3)
      << " GB  DT=" << fmt_double(totals.download_hours, 2)
      << " h  TT=" << fmt_double(totals.wall_hours, 2)
      << " h  best-acc=" << fmt_percent(res.best_accuracy()) << "\n";

  emit_json(run_json(opt, strategy_name, spec, k, population, peak_rss_est_mb,
                     res, async ? async_json(*aopt) : ""),
            opt.json_path, out);
}

/// The crash-injection exit path shared by run/resume (exit code 3).
int report_simulated_crash(const ckpt::SimulatedCrash& crash,
                           std::ostream& out) {
  out << "\nsimulated crash after round boundary " << crash.boundary()
      << "\n";
  if (crash.last_checkpoint().empty()) {
    out << "no checkpoint was written before the crash\n";
  } else {
    out << "resume with: gluefl resume " << crash.last_checkpoint() << "\n";
  }
  return 3;
}

}  // namespace

const std::vector<std::string>& strategy_names() {
  static const std::vector<std::string> names{"fedavg", "stc", "apf", "gluefl",
                                              "gluefl-paper"};
  return names;
}

const std::vector<std::string>& async_strategy_names() {
  static const std::vector<std::string> names{"async-fedbuff"};
  return names;
}

const std::vector<std::string>& dataset_names() {
  static const std::vector<std::string> names{"femnist", "openimage", "speech"};
  return names;
}

const std::vector<std::string>& env_names() {
  static const std::vector<std::string> names{"edge", "5g", "datacenter"};
  return names;
}

const std::vector<std::string>& model_names() {
  static const std::vector<std::string> names{"shufflenet", "mobilenet",
                                              "resnet34"};
  return names;
}

ParsedArgs parse_args(const std::vector<std::string>& args) {
  ParsedArgs p;
  if (args.empty()) {
    p.error = "no command given";
    return p;
  }
  p.command = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a.rfind("--", 0) != 0) {
      p.positionals.push_back(a);
      continue;
    }
    std::string key = a.substr(2);
    std::string value;
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key == "dry-run" || key == "help" ||
               ((key == "metrics" || key == "scenarios") &&
                p.command == "list") ||
               (key == "json" && p.command == "report")) {
      // Boolean flags never consume the next token; `--help` on any
      // command prints the usage. `--metrics` is a value flag
      // everywhere (the JSONL sink path) EXCEPT under `list`,
      // where the bare form selects the metric-registry listing;
      // `--scenarios` likewise selects the bundled-scenario listing.
      // `--json` is a value flag everywhere (the summary file path)
      // EXCEPT under `report`, where it selects machine output to stdout.
      value = "1";
    } else {
      if (i + 1 >= args.size()) {
        p.error = "flag --" + key + " is missing a value";
        return p;
      }
      value = args[++i];
    }
    if (key.empty()) {
      p.error = "empty flag name in '" + a + "'";
      return p;
    }
    if (p.flags.count(key) != 0) {
      p.error = "duplicate flag --" + key;
      return p;
    }
    p.flags[key] = value;
  }
  return p;
}

const char* metric_kind_str(telemetry::MetricKind kind) {
  switch (kind) {
    case telemetry::MetricKind::kCounter: return "counter";
    case telemetry::MetricKind::kGauge: return "gauge";
    case telemetry::MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

const char* metric_class_str(telemetry::MetricClass cls) {
  switch (cls) {
    case telemetry::MetricClass::kSim: return "sim";
    case telemetry::MetricClass::kProcess: return "process";
    case telemetry::MetricClass::kWall: return "wall";
  }
  return "?";
}

int cmd_list(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  (void)err;
  reject_positionals(args);
  Flags flags(args.flags);
  const bool metrics = flags.flag("metrics");
  const bool scenarios = flags.flag("scenarios");
  flags.reject_unknown();
  if (metrics && scenarios) {
    throw UsageError("--metrics and --scenarios are mutually exclusive");
  }

  if (scenarios) {
    out << "bundled scenarios (pass `--scenario NAME`, or `--scenario FILE` "
           "with a JSON spec of the same shape):\n";
    for (const auto& [name, spec_json] : scenario::builtin_scenarios()) {
      out << "\n" << name << ":\n  " << spec_json << "\n";
    }
    return 0;
  }

  if (metrics) {
    out << "telemetry metrics (sim metrics appear in JSON summaries; "
           "process/wall only in --metrics JSONL and traces):\n";
    TablePrinter t;
    t.set_headers({"name", "kind", "class", "description"});
    const telemetry::MetricDef* defs = telemetry::metric_defs();
    for (int i = 0; i < telemetry::num_metric_defs(); ++i) {
      t.add_row({defs[i].name, metric_kind_str(defs[i].kind),
                 metric_class_str(defs[i].cls), defs[i].desc});
    }
    out << t.to_string();
    return 0;
  }

  out << "strategies:\n";
  TablePrinter s;
  s.set_headers({"name", "description"});
  s.add_row({"fedavg", "dense FedAvg baseline (McMahan et al.)"});
  s.add_row({"stc", "sparse ternary compression, top-q masking + EF"});
  s.add_row({"apf", "adaptive parameter freezing"});
  s.add_row({"gluefl", "sticky sampling + shared-mask shifting (calibrated)"});
  s.add_row({"gluefl-paper", "GlueFL with the paper's verbatim constants"});
  out << s.to_string();

  out << "\nasync strategies (--exec=async):\n";
  TablePrinter a;
  a.set_headers({"name", "description"});
  a.add_row({"async-fedbuff",
             "buffered async aggregation with staleness discounting"});
  out << a.to_string();

  out << "\ndataset presets (paper scale-1 populations):\n";
  TablePrinter d;
  d.set_headers({"name", "clients", "classes", "K", "accuracy"});
  for (const auto& name : dataset_names()) {
    const SyntheticSpec spec = make_spec(name, 1.0);
    const int topk = preset_topk(spec);
    d.add_row({name, std::to_string(spec.num_clients),
               std::to_string(spec.num_classes),
               std::to_string(preset_clients_per_round(spec)),
               "top-" + std::to_string(topk)});
  }
  out << d.to_string();

  out << "\nnetwork environments:\n";
  TablePrinter e;
  e.set_headers({"name", "description"});
  e.add_row({"edge", "residential/mobile links, slow devices, 80% availability"});
  e.add_row({"5g", "commercial 5G, phone-class compute"});
  e.add_row({"datacenter", "~5 Gbps symmetric, server-class, no churn"});
  out << e.to_string();

  out << "\nmodel proxies (paper defaults q / q_shr):\n";
  TablePrinter m;
  m.set_headers({"name", "q", "q_shr"});
  for (const auto& name : model_names()) {
    m.add_row({name, fmt_percent(default_mask_ratio(name)),
               fmt_percent(default_shared_ratio(name))});
  }
  out << m.to_string();
  return 0;
}

int cmd_run(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  (void)err;
  reject_positionals(args);
  Flags flags(args.flags);
  const bool dry_run = flags.flag("dry-run");
  RunOptions opt = resolve_common(flags);
  resolve_checkpoint_flags(flags, opt, /*probe_dir=*/!dry_run);
  const bool async = opt.exec == "async";
  const std::string strategy_name =
      flags.str("strategy", async ? "async-fedbuff" : "gluefl");
  reject_async_flags_in_sync_mode(flags, opt.exec);
  require_name("strategy", strategy_name,
               async ? async_strategy_names() : strategy_names());

  const SyntheticSpec spec = make_spec(opt.dataset, opt.scale);
  const int k = preset_clients_per_round(spec);
  const int topk = preset_topk(spec);
  const long pop = effective_population(opt, spec);
  AsyncOptions aopt;
  if (async) aopt = resolve_async(flags, k, static_cast<int>(pop));
  flags.reject_unknown();
  validate_population_topology(opt, pop, k);
  if (dry_run) {
    out << "dry-run: " << strategy_name << " on " << opt.dataset << " x "
        << opt.model << " — flags OK\n";
    return 0;
  }
  validate_output_path("json", opt.json_path);
  validate_output_path("trace", opt.trace_path);
  validate_output_path("metrics", opt.metrics_path);
  validate_output_path("events", opt.events_path);
  telemetry::configure({opt.trace_path, opt.metrics_path});
  if (!opt.events_path.empty()) events::configure(opt.events_path);
  // Dataset synthesis, proxy, engine and strategy construction; it ends
  // where the first round begins.
  telemetry::Span setup("setup");
  SimEngine engine = make_cli_engine(opt, spec, k, topk);
  const double rss_mb =
      static_cast<double>(engine.memory_estimate_bytes()) / (1024.0 * 1024.0);

  const ckpt::CkptOptions copts{opt.checkpoint_every, opt.checkpoint_dir,
                                opt.crash_at_round};

  out << "run: " << strategy_name << " on " << opt.dataset << " x " << opt.model
      << " over " << opt.env << " (N=" << pop;
  if (opt.population_mode == "virtual") out << " virtual";
  out << ", K=" << k;
  if (!async) out << ", OC=" << fmt_double(opt.overcommit, 2);
  out << ", " << opt.rounds << " rounds, seed=" << opt.seed << ")\n";
  if (async) {
    out << "async: buffer=" << aopt.engine.buffer_size
        << " concurrency=" << aopt.engine.concurrency << " staleness="
        << aopt.staleness << " alpha=" << fmt_double(aopt.fedbuff.alpha, 2)
        << " server-lr=" << fmt_double(aopt.fedbuff.server_lr, 2) << "\n";
  }
  if (opt.agg != "dense" || opt.num_edges > 0) {
    out << "agg: " << opt.agg;
    if (opt.agg == "sharded") {
      out << " (shards="
          << (opt.agg_shards > 0 ? std::to_string(opt.agg_shards)
                                 : std::string("auto"))
          << ")";
    }
    out << " topology=" << opt.topology << "\n";
  }
  if (!opt.scenario.empty()) {
    const scenario::ScenarioSpec& s = opt.scenario_spec;
    out << "scenario: " << s.name << " (classes=" << s.device_classes.size()
        << " deadline=" << fmt_double(s.deadline_s, 1)
        << "s dropout=" << fmt_percent(s.dropout_rate)
        << " byzantine=" << fmt_percent(s.byzantine_rate) << ")\n";
  }
  out << "\n";

  RunResult res;
  try {
    if (async) {
      AsyncSimEngine async_engine(engine, aopt.engine);
      auto strategy = make_async_strategy(strategy_name, aopt.fedbuff);
      const auto hook =
          make_ckpt_hook(copts, opt, strategy_name, &aopt, *strategy);
      setup.end();
      res = async_engine.run(*strategy, hook.get());
    } else {
      auto strategy = make_strategy_for(strategy_name, k, opt.model,
                                        static_cast<int>(pop));
      const auto hook =
          make_ckpt_hook(copts, opt, strategy_name, nullptr, *strategy);
      setup.end();
      res = engine.run(*strategy, hook.get());
    }
  } catch (const ckpt::SimulatedCrash& crash) {
    // Drop the recorder's uncommitted rounds: the log must end at the
    // last checkpoint, where the resumed run's log picks up.
    events::abandon();
    telemetry::finalize();
    return report_simulated_crash(crash, out);
  }

  events::finalize();
  telemetry::finalize();
  emit_run_report(opt, strategy_name, spec, k, pop, rss_mb, res,
                  async ? &aopt : nullptr, out);
  return 0;
}

int cmd_resume(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  Flags flags(args.flags);
  const bool dry_run = flags.flag("dry-run");
  if (args.positionals.size() != 1) {
    throw UsageError(
        "resume expects exactly one checkpoint path: gluefl resume CKPT");
  }
  const std::string path = args.positionals.front();
  const long threads_override = flags.integer("threads", -1, 0, 1024);
  const std::string json_path = flags.str("json", "");
  const std::string trace_path = flags.str("trace", "");
  const std::string metrics_path = flags.str("metrics", "");
  const std::string events_path = flags.str("events", "");
  if (dry_run) {
    // Validate resume's own flags without touching the snapshot (which
    // need not exist yet when a command line is being vetted).
    RunOptions scratch;
    scratch.rounds = 1000000;  // --crash-at-round bound without a snapshot
    resolve_checkpoint_flags(flags, scratch, /*probe_dir=*/false);
    flags.reject_unknown();
    out << "dry-run: resume from " << path << " — flags OK\n";
    return 0;
  }

  validate_output_path("json", json_path);
  validate_output_path("trace", trace_path);
  validate_output_path("metrics", metrics_path);
  validate_output_path("events", events_path);
  telemetry::configure({trace_path, metrics_path});
  // The resumed segment records to its OWN file: concatenating the
  // crashed run's log with this one reproduces the uninterrupted log.
  if (!events_path.empty()) events::configure(events_path);

  const ckpt::Snapshot snap = ckpt::load_checkpoint(path);
  // Restore the sim-class counters to the boundary so the resumed run's
  // "telemetry" block comes out byte-identical to the uninterrupted one.
  telemetry::set_sim_values(snap.telemetry);

  // Reconstruct the resolved options of the original run from the
  // checkpoint meta; the echoed JSON must come out byte-identical.
  RunOptions opt;
  opt.dataset = meta_get(snap, "dataset");
  opt.model = meta_get(snap, "model");
  opt.env = meta_get(snap, "env");
  opt.exec = meta_get(snap, "exec");
  opt.rounds = static_cast<int>(meta_long_range(snap, "rounds", 1, 1000000));
  opt.scale = meta_double(snap, "scale");
  if (opt.scale <= 0.0 || opt.scale > 1.0) {
    meta_range_fail(snap, "scale", "scale in (0, 1]");
  }
  opt.population = meta_long_range(snap, "population", 0, 100000000);
  opt.population_mode = meta_get(snap, "population_mode");
  require_meta_name(snap, "population_mode", {"dense", "virtual"});
  opt.overcommit = meta_double(snap, "overcommit");
  if (opt.overcommit < 1.0) {
    meta_range_fail(snap, "overcommit", "overcommit >= 1");
  }
  opt.eval_every =
      static_cast<int>(meta_long_range(snap, "eval_every", 1, 1000000));
  opt.seed = static_cast<uint64_t>(meta_long_range(
      snap, "seed", 0, std::numeric_limits<long>::max()));
  opt.threads = threads_override >= 0
                    ? static_cast<int>(threads_override)
                    : static_cast<int>(
                          meta_long_range(snap, "threads", 0, 1024));
  opt.agg = meta_get(snap, "agg");
  require_meta_name(snap, "agg", {"dense", "sharded"});
  opt.agg_shards =
      static_cast<int>(meta_long_range(snap, "agg_shards", 0, 65536));
  opt.topology = meta_get(snap, "topology");
  try {
    opt.num_edges = parse_topology(opt.topology);
  } catch (const UsageError&) {
    meta_range_fail(snap, "topology", "'flat' or 'hier:<E>'");
  }
  opt.wire = meta_get(snap, "wire");
  require_meta_name(snap, "wire", {"encoded", "analytic"});
  // The scenario rides the checkpoint as its canonical JSON (never a file
  // path): re-parsing it through the same validator rejects a tampered
  // spec and reproduces the exact fleet shape mid-scenario.
  const std::string& scen_meta = meta_get(snap, "scenario");
  if (!scen_meta.empty()) {
    try {
      opt.scenario_spec = scenario::parse_scenario_json(scen_meta);
    } catch (const scenario::ScenarioError& e) {
      throw ckpt::CkptError("checkpoint meta key 'scenario' is invalid: " +
                            std::string(e.what()));
    }
    opt.scenario = opt.scenario_spec.name;
  }
  opt.json_path = json_path;
  opt.trace_path = trace_path;
  opt.metrics_path = metrics_path;
  opt.events_path = events_path;
  resolve_checkpoint_flags(flags, opt);
  flags.reject_unknown();
  // A crash boundary the resumed run will never reach is a silent no-op
  // the user almost certainly did not intend.
  if (opt.crash_at_round > 0 && opt.crash_at_round <= snap.next_round) {
    throw UsageError("--crash-at-round " + std::to_string(opt.crash_at_round) +
                     " is at or before the checkpoint boundary " +
                     std::to_string(snap.next_round) +
                     "; the resumed run only executes later rounds");
  }

  // Binary mismatch is survivable (the format is versioned) but breaks
  // the bit-identity guarantee: floating-point round-off may differ
  // between builds. Warn rather than refuse.
  const std::string& ck_hash = meta_get(snap, "git_hash");
  const std::string& ck_build = meta_get(snap, "build_type");
  if (ck_hash != build_git_hash() || ck_build != build_type()) {
    err << "warning: checkpoint was written by build " << ck_hash << " ("
        << ck_build << "); this binary is " << build_git_hash() << " ("
        << build_type() << ") — resumed results may not be bit-identical\n";
  }

  const bool async = opt.exec == "async";
  const std::string strategy_name = meta_get(snap, "strategy");
  // The CRC already guards integrity; these reject checkpoints written by
  // a future binary whose registries this one does not know.
  require_meta_name(snap, "dataset", dataset_names());
  require_meta_name(snap, "model", model_names());
  require_meta_name(snap, "env", env_names());
  require_meta_name(snap, "exec", {"sync", "async"});
  require_meta_name(snap, "strategy",
                    async ? async_strategy_names() : strategy_names());
  const SyntheticSpec spec = make_spec(opt.dataset, opt.scale);
  const int k = preset_clients_per_round(spec);
  const int topk = preset_topk(spec);
  const long pop = effective_population(opt, spec);
  AsyncOptions aopt;
  if (async) {
    aopt.engine.buffer_size =
        static_cast<int>(meta_long_range(snap, "async_buffer", 1, 100000));
    aopt.engine.concurrency =
        static_cast<int>(meta_long_range(snap, "async_conc", 1, 1000000));
    aopt.staleness = meta_get(snap, "staleness");
    require_meta_name(snap, "staleness", {"const", "poly"});
    aopt.fedbuff.discount = aopt.staleness == "const"
                                ? StalenessDiscount::kConstant
                                : StalenessDiscount::kPolynomial;
    aopt.fedbuff.alpha = meta_double(snap, "staleness_alpha");
    if (aopt.fedbuff.alpha < 0.0) {
      meta_range_fail(snap, "staleness_alpha", "alpha >= 0");
    }
    aopt.fedbuff.server_lr = meta_double(snap, "server_lr");
    if (aopt.fedbuff.server_lr <= 0.0) {
      meta_range_fail(snap, "server_lr", "server_lr > 0");
    }
    aopt.fedbuff.max_staleness =
        static_cast<int>(meta_long_range(snap, "max_staleness", 0, 1000000));
  }
  // As in cmd_run, plus restoring the snapshot into engine and strategy.
  telemetry::Span setup("setup");
  SimEngine engine = make_cli_engine(opt, spec, k, topk);
  const double rss_mb =
      static_cast<double>(engine.memory_estimate_bytes()) / (1024.0 * 1024.0);

  out << "resume: " << strategy_name << " on " << opt.dataset << " x "
      << opt.model << " from round " << snap.next_round << "/" << opt.rounds
      << " (" << path << ")\n\n";

  const ckpt::CkptOptions copts{opt.checkpoint_every, opt.checkpoint_dir,
                                opt.crash_at_round};
  RunResult res;
  try {
    if (async) {
      AsyncSimEngine async_engine(engine, aopt.engine);
      auto strategy = make_async_strategy(strategy_name, aopt.fedbuff);
      const auto hook =
          make_ckpt_hook(copts, opt, strategy_name, &aopt, *strategy, path);
      AsyncRunState state = ckpt::restore_async_run(snap, engine, *strategy);
      setup.end();
      res = async_engine.resume(*strategy, std::move(state),
                                ckpt::history_result(snap), hook.get());
    } else {
      auto strategy = make_strategy_for(strategy_name, k, opt.model,
                                        static_cast<int>(pop));
      const auto hook = make_ckpt_hook(copts, opt, strategy_name, nullptr,
                                       *strategy, path);
      ckpt::restore_sync_run(snap, engine, *strategy);
      setup.end();
      res = engine.run_from(*strategy, snap.next_round,
                            ckpt::history_result(snap), hook.get());
    }
  } catch (const ckpt::SimulatedCrash& crash) {
    events::abandon();  // log ends at the last checkpoint, like cmd_run
    telemetry::finalize();
    return report_simulated_crash(crash, out);
  }

  events::finalize();
  telemetry::finalize();
  emit_run_report(opt, strategy_name, spec, k, pop, rss_mb, res,
                  async ? &aopt : nullptr, out);
  return 0;
}

/// Async sweep: grid over --async-buffer x --staleness-alpha with a fixed
/// concurrency, reusing the Table-2-style cost reporting.
int cmd_sweep_async(Flags& flags, const RunOptions& opt, bool dry_run,
                    std::ostream& out) {
  for (const char* f : {"q", "q-shr", "sticky-s", "sticky-c"}) {
    if (flags.provided(f)) {
      throw UsageError(std::string("--") + f + " requires --exec=sync");
    }
  }

  const SyntheticSpec spec = make_spec(opt.dataset, opt.scale);
  const int k = preset_clients_per_round(spec);
  const int topk = preset_topk(spec);
  const long pop = effective_population(opt, spec);

  const AsyncOptions base =
      resolve_async_shared(flags, k, static_cast<int>(pop));
  const int conc = base.engine.concurrency;
  // Like run's --async-buffer, the default arm clamps to the concurrency;
  // only explicitly-listed buffer values can violate K <= N below.
  const std::vector<double> buffers = flags.list(
      "async-buffer", {static_cast<double>(std::min(k, conc))});
  const std::vector<double> alphas = flags.list("staleness-alpha", {0.5});
  flags.reject_unknown();

  for (const double b : buffers) {
    if (b < 1.0 || b > 100000.0 || b != std::floor(b)) {
      throw UsageError("--async-buffer values must be integers in "
                       "[1, 100000]");
    }
    require_buffer_fits_concurrency(static_cast<int>(b), conc);
  }
  for (const double a : alphas) {
    if (a < 0.0) throw UsageError("--staleness-alpha values must be >= 0");
  }
  const size_t arms = buffers.size() * alphas.size();
  if (arms > 64) {
    throw UsageError("sweep grid has " + std::to_string(arms) +
                     " arms; keep it <= 64");
  }
  validate_population_topology(opt, pop, k);
  if (dry_run) {
    out << "dry-run: async sweep (" << arms << " arms) — flags OK\n";
    return 0;
  }
  validate_output_path("json", opt.json_path);
  validate_output_path("trace", opt.trace_path);
  validate_output_path("metrics", opt.metrics_path);
  telemetry::configure({opt.trace_path, opt.metrics_path});

  out << "sweep: async-fedbuff on " << opt.dataset << " x " << opt.model
      << " over " << opt.env << " (N=" << pop << ", conc=" << conc
      << ", " << opt.rounds << " aggregations, " << arms << " arms)\n\n";

  telemetry::Span setup("setup");  // shared by the arms
  SimEngine engine = make_cli_engine(opt, spec, k, topk);
  setup.end();
  const double rss_mb =
      static_cast<double>(engine.memory_estimate_bytes()) / (1024.0 * 1024.0);
  std::vector<LabeledRun> runs;
  for (const double b : buffers) {
    for (const double a : alphas) {
      AsyncConfig acfg = base.engine;
      acfg.buffer_size = static_cast<int>(b);
      AsyncFedBuffConfig fcfg = base.fedbuff;
      fcfg.alpha = a;
      std::ostringstream label;
      label << "K=" << acfg.buffer_size << " alpha=" << fmt_double(a, 2);
      AsyncSimEngine async_engine(engine, acfg);
      AsyncFedBuffStrategy strategy(fcfg);
      runs.push_back({label.str(), async_engine.run(strategy)});
      const RunTotals t = runs.back().result.totals();
      out << "  " << label.str() << ": best-acc "
          << fmt_percent(runs.back().result.best_accuracy()) << ", DV "
          << fmt_double(t.down_gb, 2) << " GB, TT "
          << fmt_double(t.wall_hours, 2) << " h\n";
    }
  }

  const double target = common_target_accuracy(runs, 0.01);
  out << "\ncosts to reach the common target accuracy (" << fmt_percent(target)
      << "):\n"
      << make_cost_table(runs, target).to_string();

  telemetry::finalize();
  std::ostringstream json;
  json << "{\"schema\": \"gluefl.sweep.v1\", \"exec\": \"async\""
       << ", \"dataset\": " << jstr(opt.dataset)
       << ", \"model\": " << jstr(opt.model) << ", \"env\": " << jstr(opt.env)
       << ", \"agg\": " << jstr(opt.agg)
       << ", \"agg_shards\": " << opt.agg_shards
       << ", \"topology\": " << jstr(opt.topology)
       << ", \"wire\": " << jstr(opt.wire)
       << ", \"scenario\": " << scenario_json(opt)
       << ", \"population\": " << pop
       << ", \"population_mode\": " << jstr(opt.population_mode)
       << ", \"peak_rss_est_mb\": " << jnum(rss_mb)
       << ", \"provenance\": " << provenance_json()
       << ", \"telemetry\": " << telemetry_json(runs)
       << ", \"rounds\": " << opt.rounds << ", \"concurrency\": " << conc
       << ", \"staleness\": " << jstr(base.staleness)
       << ", \"target_accuracy\": " << jnum(target) << ", \"arms\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) json << ", ";
    json << "{\"label\": " << jstr(runs[i].label)
         << ", \"best_accuracy\": " << jnum(runs[i].result.best_accuracy())
         << ", \"totals\": " << totals_json(runs[i].result.totals())
         << ", \"totals_to_target\": "
         << totals_json(runs[i].result.totals_to_accuracy(target)) << "}";
  }
  json << "]}";
  emit_json(json.str(), opt.json_path, out);
  return 0;
}

int cmd_sweep(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  (void)err;
  reject_positionals(args);
  Flags flags(args.flags);
  const bool dry_run = flags.flag("dry-run");
  RunOptions opt = resolve_common(flags);
  // One event log per run is the attribution contract: a sweep's arms
  // would interleave rounds from different configurations in one file.
  if (!opt.events_path.empty()) {
    throw UsageError("--events requires `run` or `resume`; record one arm "
                     "at a time with `gluefl run`");
  }
  if (opt.exec == "async") return cmd_sweep_async(flags, opt, dry_run, out);
  reject_async_flags_in_sync_mode(flags, opt.exec);

  const SyntheticSpec spec = make_spec(opt.dataset, opt.scale);
  const int k = preset_clients_per_round(spec);
  const int topk = preset_topk(spec);
  const long pop = effective_population(opt, spec);
  const GlueFlConfig base = calibrated_gluefl_config(k, opt.model);

  const std::vector<double> qs = flags.list("q", {base.q});
  const std::vector<double> q_shrs = flags.list("q-shr", {base.q_shr});
  const std::vector<double> sticky_ss =
      flags.list("sticky-s", {static_cast<double>(base.sticky_group_size)});
  const std::vector<double> sticky_cs =
      flags.list("sticky-c", {static_cast<double>(base.sticky_per_round)});
  flags.reject_unknown();

  const size_t arms =
      qs.size() * q_shrs.size() * sticky_ss.size() * sticky_cs.size();
  if (arms > 64) {
    throw UsageError("sweep grid has " + std::to_string(arms) +
                     " arms; keep it <= 64");
  }

  // Validate the whole grid up front — every (q, q_shr) pair will run, so
  // reject bad values before the first (possibly expensive) arm executes.
  for (const double q : qs) {
    if (q <= 0.0 || q > 1.0) throw UsageError("--q values must be in (0, 1]");
  }
  for (const double q_shr : q_shrs) {
    for (const double q : qs) {
      if (q_shr < 0.0 || q_shr > q) {
        throw UsageError("--q-shr values must be in [0, q] for every --q");
      }
    }
  }
  for (const double s : sticky_ss) {
    if (s < 1.0) throw UsageError("--sticky-s values must be positive");
  }
  for (const double c : sticky_cs) {
    if (c < 1.0) throw UsageError("--sticky-c values must be positive");
  }
  validate_population_topology(opt, pop, k);
  if (dry_run) {
    out << "dry-run: sweep (" << arms << " arms) — flags OK\n";
    return 0;
  }
  validate_output_path("json", opt.json_path);
  validate_output_path("trace", opt.trace_path);
  validate_output_path("metrics", opt.metrics_path);
  telemetry::configure({opt.trace_path, opt.metrics_path});

  out << "sweep: gluefl on " << opt.dataset << " x " << opt.model << " over "
      << opt.env << " (N=" << pop << ", K=" << k << ", "
      << opt.rounds << " rounds, " << arms << " arms)\n\n";

  telemetry::Span setup("setup");  // shared by the arms
  SimEngine engine = make_cli_engine(opt, spec, k, topk);
  setup.end();
  const double rss_mb =
      static_cast<double>(engine.memory_estimate_bytes()) / (1024.0 * 1024.0);
  std::vector<LabeledRun> runs;
  for (const double q : qs) {
    for (const double q_shr : q_shrs) {
      for (const double s : sticky_ss) {
        for (const double c : sticky_cs) {
          GlueFlConfig cfg = base;
          cfg.q = q;
          cfg.q_shr = q_shr;
          cfg.sticky_group_size =
              std::min(static_cast<int>(s), static_cast<int>(pop));
          cfg.sticky_per_round = std::min(static_cast<int>(c), k);
          std::ostringstream label;
          label << "q=" << fmt_percent(q) << " q_shr=" << fmt_percent(q_shr)
                << " S=" << cfg.sticky_group_size
                << " C=" << cfg.sticky_per_round;
          GlueFlStrategy strategy(cfg);
          runs.push_back({label.str(), engine.run(strategy)});
          const RunTotals t = runs.back().result.totals();
          out << "  " << label.str() << ": best-acc "
              << fmt_percent(runs.back().result.best_accuracy()) << ", DV "
              << fmt_double(t.down_gb, 2) << " GB, TT "
              << fmt_double(t.wall_hours, 2) << " h\n";
        }
      }
    }
  }

  const double target = common_target_accuracy(runs, 0.01);
  out << "\ncosts to reach the common target accuracy (" << fmt_percent(target)
      << "):\n"
      << make_cost_table(runs, target).to_string();

  telemetry::finalize();
  std::ostringstream json;
  json << "{\"schema\": \"gluefl.sweep.v1\", \"exec\": \"sync\""
       << ", \"dataset\": " << jstr(opt.dataset)
       << ", \"model\": " << jstr(opt.model) << ", \"env\": " << jstr(opt.env)
       << ", \"agg\": " << jstr(opt.agg)
       << ", \"agg_shards\": " << opt.agg_shards
       << ", \"topology\": " << jstr(opt.topology)
       << ", \"wire\": " << jstr(opt.wire)
       << ", \"scenario\": " << scenario_json(opt)
       << ", \"population\": " << pop
       << ", \"population_mode\": " << jstr(opt.population_mode)
       << ", \"peak_rss_est_mb\": " << jnum(rss_mb)
       << ", \"provenance\": " << provenance_json()
       << ", \"telemetry\": " << telemetry_json(runs)
       << ", \"rounds\": " << opt.rounds
       << ", \"target_accuracy\": " << jnum(target) << ", \"arms\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) json << ", ";
    json << "{\"label\": " << jstr(runs[i].label)
         << ", \"best_accuracy\": " << jnum(runs[i].result.best_accuracy())
         << ", \"totals\": " << totals_json(runs[i].result.totals())
         << ", \"totals_to_target\": "
         << totals_json(runs[i].result.totals_to_accuracy(target)) << "}";
  }
  json << "]}";
  emit_json(json.str(), opt.json_path, out);
  return 0;
}

/// `gluefl profile A.json B.json`: diffs the telemetry blocks of two run /
/// sweep / resume JSON summaries (see src/telemetry/profile.h).
int cmd_profile(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  (void)err;
  Flags flags(args.flags);
  const bool dry_run = flags.flag("dry-run");
  flags.reject_unknown();
  if (args.positionals.size() != 2) {
    throw UsageError(
        "profile expects two JSON summaries: gluefl profile A.json B.json");
  }
  const std::string& path_a = args.positionals[0];
  const std::string& path_b = args.positionals[1];
  if (dry_run) {
    out << "dry-run: profile " << path_a << " vs " << path_b
        << " — flags OK\n";
    return 0;
  }
  const std::string doc_a = read_text_file(path_a);
  const std::string doc_b = read_text_file(path_b);
  try {
    out << telemetry::diff_profiles(doc_a, doc_b, path_a, path_b);
  } catch (const json::JsonError& e) {
    // Malformed input files are the user's to fix: usage error, exit 2.
    throw UsageError("profile: " + std::string(e.what()));
  }
  return 0;
}

/// `gluefl report EVENTS`: straggler / device-class / fault attribution
/// over a flight-recorder log (see src/telemetry/report.h). Parse errors
/// surface as ckpt::CkptError — one clean line, exit code 1.
int cmd_report(const ParsedArgs& args, std::ostream& out, std::ostream& err) {
  (void)err;
  Flags flags(args.flags);
  const bool dry_run = flags.flag("dry-run");
  const bool as_json = flags.flag("json");
  const long top_k = flags.integer("top", 10, 0, 1000000);
  flags.reject_unknown();
  if (args.positionals.size() != 1) {
    throw UsageError(
        "report expects one event log: gluefl report EVENTS [--top K] "
        "[--json]");
  }
  const std::string& path = args.positionals.front();
  if (dry_run) {
    // Flags only; the log need not exist yet when the command is vetted.
    out << "dry-run: report " << path << " — flags OK\n";
    return 0;
  }
  const events::EventLog log = events::read_log(path);
  const events::Report rep =
      events::build_report(log, static_cast<int>(top_k));
  if (as_json) {
    out << events::render_report_json(rep) << "\n";
  } else {
    out << events::render_report_text(rep);
  }
  return 0;
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  // Telemetry is process-global; a fresh command starts from a clean,
  // disabled registry (tests drive run_cli repeatedly in one process).
  telemetry::reset();
  events::reset();
  const ParsedArgs parsed = parse_args(args);
  if (!parsed.error.empty()) {
    err << "error: " << parsed.error << "\n" << kUsage;
    return 2;
  }
  if (parsed.flags.count("help") != 0) {
    out << kUsage;
    return 0;
  }
  try {
    // Codec kernel resolution is lazy (first quantized block), so an
    // fp32-only run would silently ignore a bad GLUEFL_WIRE_KERNEL.
    // Validate eagerly whenever the knob is set: unknown or unsupported
    // names fail here as one loud line, before any work happens.
    if (std::getenv("GLUEFL_WIRE_KERNEL") != nullptr) {
      (void)wire::active_kernel();
    }
    if (parsed.command == "list") return cmd_list(parsed, out, err);
    if (parsed.command == "run") return cmd_run(parsed, out, err);
    if (parsed.command == "sweep") return cmd_sweep(parsed, out, err);
    if (parsed.command == "resume") return cmd_resume(parsed, out, err);
    if (parsed.command == "profile") return cmd_profile(parsed, out, err);
    if (parsed.command == "report") return cmd_report(parsed, out, err);
    if (parsed.command == "help" || parsed.command == "--help" ||
        parsed.command == "-h") {
      out << kUsage;
      return 0;
    }
    err << "error: unknown command '" << parsed.command << "'\n" << kUsage;
    return 2;
  } catch (const UsageError& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const ckpt::CkptError& e) {
    // Bad checkpoints (missing, truncated, corrupt, wrong version, wrong
    // binary shape) fail as ONE clean line — never UB, never a stack dump.
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const scenario::ScenarioError& e) {
    // Bad scenario specs (unknown keys, NaN/out-of-range multipliers,
    // unsorted traces, unreadable files): one clean line, exit code 1.
    err << "error: " << e.what() << "\n";
    return 1;
  } catch (const CheckError& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace gluefl::cli
