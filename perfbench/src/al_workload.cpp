// volta_al_session: the annotator's loop. Uncertainty sampling with a
// random forest on Volta TSFRESH features, one train/test split, a query
// budget of 250 and an instant perfect oracle, driven through the public
// ActiveLearner::run. No wire, streaming or serving code runs.
//
// The classifier handed to the learner is a decorator that forwards every
// call and notes when each fit starts: the learner refits right after each
// oracle answer, so successive fit starts bound one query round (score +
// select + annotate + refit + eval). LabelOracle::annotate is not virtual,
// so the oracle itself cannot be wrapped; the fit start is the closest
// observable boundary.
//
// Sessions repeat back to back, identically (same split, same model seed),
// until --seconds of session time have passed. Each session's queries and
// F1 curve are folded into a CRC-32; every session must reproduce the
// first one's CRC, every query must come back with its ground-truth label,
// and the oracle must have answered exactly the rounds run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "alba.hpp"
#include "common.hpp"
#include "common/crc32.hpp"
#include "decorators.hpp"

namespace perfbench {
namespace {

using namespace alba;

constexpr int kBudget = 250;
constexpr double kTargetF1 = 0.95;

struct AlNames {
  std::uint16_t session, fit, eval, round, pool_predict;
  explicit AlNames(Tracer& t)
      : session(t.intern("bench.session")), fit(t.intern("ml.fit")),
        eval(t.intern("ml.eval")), round(t.intern("active.round")),
        pool_predict(t.intern("ml.pool_predict")) {}
};

// What one session's decorated classifier observed.
struct SessionLog {
  std::vector<std::int64_t> fit_start_ns;
  std::vector<double> fit_ms;
  std::atomic<std::uint64_t> rows_scored{0};
  std::int64_t fit_end_ns = -1;  // end of the last fit, -1 before one
};

class TimedClassifier : public Classifier {
 public:
  /// `test_x` is the learner's evaluation matrix: row predictions on it
  /// are test-set evaluation, on any other matrix pool scoring.
  TimedClassifier(std::unique_ptr<Classifier> inner, const Matrix& test_x,
                  const Tracer& clock, TraceContext& ctx,
                  const AlNames& names, SessionLog& log)
      : inner_(std::move(inner)), test_x_(test_x), clock_(clock), ctx_(ctx),
        names_(names), log_(log) {}

  void fit(const Matrix& x, std::span<const int> y) override {
    const std::int64_t t0 = clock_.now_ns();
    if (ctx_.tracer != nullptr && log_.fit_end_ns >= 0) {
      // Everything since the last fit: eval, scoring, selection, answer.
      ctx_.tracer->record(names_.round, log_.fit_end_ns, t0, ctx_.item);
    }
    log_.fit_start_ns.push_back(t0);
    ctx_.item = static_cast<std::uint32_t>(log_.fit_start_ns.size());
    inner_->fit(x, y);
    const std::int64_t t1 = clock_.now_ns();
    log_.fit_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    log_.fit_end_ns = t1;
    if (ctx_.tracer != nullptr) {
      ctx_.tracer->record(names_.fit, t0, t1, ctx_.item);
    }
  }
  Matrix predict_proba(const Matrix& x) const override {
    return inner_->predict_proba(x);
  }
  Matrix predict_proba_reference(const Matrix& x) const override {
    return inner_->predict_proba_reference(x);
  }
  // Test-set evaluation and pool scoring both land here, concurrently on
  // the pool's threads.
  void predict_proba_rows(const Matrix& x, std::span<const std::size_t> rows,
                          Matrix& out) const override {
    const bool eval = &x == &test_x_;
    ScopedSpan s(ctx_.tracer, eval ? names_.eval : names_.pool_predict,
                 ctx_.item);
    if (!eval) log_.rows_scored.fetch_add(rows.size(), std::memory_order_relaxed);
    inner_->predict_proba_rows(x, rows, out);
  }
  std::unique_ptr<Classifier> clone() const override {
    return std::make_unique<TimedClassifier>(inner_->clone(), test_x_, clock_,
                                             ctx_, names_, log_);
  }
  std::unique_ptr<Classifier> clone_reseeded(
      std::uint64_t seed) const override {
    return std::make_unique<TimedClassifier>(inner_->clone_reseeded(seed),
                                             test_x_, clock_, ctx_, names_,
                                             log_);
  }
  std::string name() const override { return inner_->name(); }
  int num_classes() const noexcept override { return inner_->num_classes(); }
  bool fitted() const noexcept override { return inner_->fitted(); }

 private:
  std::unique_ptr<Classifier> inner_;
  const Matrix& test_x_;
  const Tracer& clock_;
  TraceContext& ctx_;
  const AlNames& names_;
  SessionLog& log_;
};

struct AlRig {
  PreparedSplit prepared;
  ALSetup al;
  double dataset_s = 0.0;
  double train_s = 0.0;
  double setup_s = 0.0;
};

std::unique_ptr<Classifier> make_rf(std::uint64_t seed) {
  return make_model_factory("rf", kNumClasses, seed + 4)(
      table4_optimum("rf", false));
}

std::unique_ptr<AlRig> set_up(const DatasetConfig& cfg, std::uint64_t seed) {
  auto rig = std::make_unique<AlRig>();
  const Clock::time_point t0 = Clock::now();
  const ExperimentData data = build_experiment_data(cfg);
  const Clock::time_point t1 = Clock::now();
  const SplitIndices split = make_split(data, cfg.test_fraction, seed + 1);
  rig->prepared = prepare_split(data, split, cfg.select_k);
  rig->al = make_al_setup(rig->prepared, seed + 2);
  if (rig->al.pool_x.rows() < static_cast<std::size_t>(kBudget)) {
    throw std::runtime_error("AL pool smaller than the query budget");
  }
  const Clock::time_point t2 = Clock::now();
  // Warm-up: one seed fit and one test-set prediction, untimed.
  std::unique_ptr<Classifier> warm = make_rf(seed);
  warm->fit(rig->al.seed.x, rig->al.seed.y);
  (void)warm->predict(rig->al.test_x);
  const Clock::time_point t3 = Clock::now();
  rig->dataset_s = seconds_between(t0, t1);
  rig->train_s = seconds_between(t1, t2);
  rig->setup_s = seconds_between(t0, t3);
  return rig;
}

struct Session {
  double wall_s = 0.0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t rounds = 0;
  std::vector<double> round_ms;  // between successive oracle answers
  std::vector<double> fit_ms;
  std::vector<double> eval_ms;
  std::uint64_t rows_scored = 0;
  double final_f1 = 0.0;
  int labels_to_target = 0;
  std::uint32_t crc = 0;
  bool labels_true = true;
};

Session run_session(const AlRig& rig, std::uint64_t seed, Tracer& clock,
                    TraceContext& ctx, const AlNames& names, bool perturb) {
  SessionLog log;
  ActiveLearnerConfig ac;
  ac.strategy = QueryStrategy::Uncertainty;
  ac.max_queries = kBudget;
  ac.target_f1 = -1.0;  // run the whole budget; the target is read off
  ac.seed = seed + 3;
  ActiveLearner learner(
      std::make_unique<TimedClassifier>(make_rf(seed), rig.al.test_x, clock,
                                        ctx, names, log),
      ac);
  LabelOracle oracle(rig.al.pool_y, kNumClasses);

  Session s;
  s.start_ns = clock.now_ns();
  const ActiveLearnerResult res =
      learner.run(rig.al.seed, rig.al.pool_x, oracle, rig.al.pool_app,
                  rig.al.test_x, rig.al.test_y);
  s.end_ns = clock.now_ns();
  s.wall_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  if (ctx.tracer != nullptr) {
    ctx.tracer->record(names.round, log.fit_end_ns, s.end_ns, ctx.item);
    ctx.tracer->record(names.session, s.start_ns, s.end_ns, 0);
  }
  s.rounds = res.queried.size();
  // fit_start[k] follows the k-th answer (k >= 1); rounds between two
  // answers are the gaps between successive post-answer fits.
  for (std::size_t k = 2; k < log.fit_start_ns.size(); ++k) {
    s.round_ms.push_back(
        static_cast<double>(log.fit_start_ns[k] - log.fit_start_ns[k - 1]) *
        1e-6);
  }
  s.fit_ms = log.fit_ms;
  for (const RoundStats& r : res.rounds) s.eval_ms.push_back(r.eval_seconds * 1e3);
  s.rows_scored = log.rows_scored.load();
  s.final_f1 = res.final_f1;
  const int reached = queries_to_reach(res.curve, kTargetF1);
  s.labels_to_target = reached >= 0 ? reached : kBudget + 1;

  std::uint32_t crc = 0;
  const auto fold = [&crc](const void* p, std::size_t n) {
    crc = crc32_update(crc, {static_cast<const std::uint8_t*>(p), n});
  };
  for (const QueryRecord& q : res.queried) {
    const std::uint64_t idx = q.pool_index;
    int label = q.label;
    if (perturb && &q == &res.queried.front()) label ^= 1;
    fold(&idx, sizeof idx);
    fold(&label, sizeof label);
    s.labels_true = s.labels_true && q.label == oracle.true_label(q.pool_index);
  }
  for (const QueryCurvePoint& p : res.curve) fold(&p.f1, sizeof p.f1);
  s.crc = crc;
  s.labels_true = s.labels_true && oracle.queries_answered() == s.rounds &&
                  s.rounds == static_cast<std::size_t>(kBudget);
  return s;
}

}  // namespace

void run_al_workload(const Options& opt, Outcome& out) {
  // A larger, evenly split data set than the streams use: the pool must
  // hold the whole budget, and a bigger test set keeps the final F1 from
  // swinging with a handful of test samples.
  DatasetConfig cfg = dataset_config(true, opt.seed, false);
  cfg.num_apps = 5;
  cfg.test_fraction = 0.5;
  std::vector<double> setup_s, dataset_s, train_s;
  std::unique_ptr<AlRig> rig;
  for (int i = 0; i < (opt.tiny ? 1 : kSetupRepeats); ++i) {
    rig.reset();
    rig = set_up(cfg, opt.seed);
    setup_s.push_back(rig->setup_s);
    dataset_s.push_back(rig->dataset_s);
    train_s.push_back(rig->train_s);
  }
  out.thread_budget = "feeder 1 (blocked while the pool scores); pool " +
                      std::to_string(pool_threads()) +
                      " scores the pool and fits trees";

  Tracer tracer;
  const AlNames names(tracer);
  TraceContext ctx;

  // Sessions until the time is up; the first one of a traced run is
  // untraced, the last one traced.
  std::vector<Session> sessions;
  double elapsed = 0.0;
  const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  while (sessions.empty() || elapsed < budget) {
    sessions.push_back(run_session(*rig, opt.seed, tracer, ctx, names,
                                   opt.perturb && sessions.size() == 1));
    elapsed += sessions.back().wall_s;
  }
  if (opt.trace) {
    tracer.clear();
    ctx.tracer = &tracer;
    sessions.push_back(
        run_session(*rig, opt.seed, tracer, ctx, names, false));
    ctx.tracer = nullptr;
  }
  // A perturbed run needs a second session to disagree with.
  if (opt.perturb && sessions.size() < 2) {
    sessions.push_back(run_session(*rig, opt.seed, tracer, ctx, names, true));
  }

  std::uint64_t rounds = 0;
  for (const Session& s : sessions) {
    out.check(s.crc == sessions.front().crc,
              "a session's queries or F1 curve differ from the first's");
    out.check(s.labels_true,
              "an oracle answer or the query count is wrong");
    rounds += s.rounds;
  }
  out.attempted = rounds;
  out.failed = 0;
  const Session& first = sessions.front();

  if (!opt.trace) {
    std::vector<double> round_ms;
    double wall = 0.0;
    for (const Session& s : sessions) {
      round_ms.insert(round_ms.end(), s.round_ms.begin(), s.round_ms.end());
      wall += s.wall_s;
    }
    out.add("throughput_per_s", static_cast<double>(rounds) / wall, rounds);
    out.add("latency_p50_ms",
            checked_quantile(round_ms, 0.50, "query round p50"),
            round_ms.size());
    out.add("latency_tail_ms",
            checked_quantile(round_ms, 0.95, "query round p95"),
            round_ms.size());
    out.add("macro_f1", first.final_f1, first.rounds);
    out.add("setup_s", median(setup_s), setup_s.size());
    out.add("peak_rss_mb", peak_rss_mb());
    char line[200];
    std::snprintf(line, sizeof line,
                  "%zu sessions x %zu rounds in %.3f s; throughput = query "
                  "rounds/s, tail = p95 of %zu rounds; labels to F1 %.2f: %d",
                  sessions.size(), first.rounds, wall, round_ms.size(),
                  kTargetF1, first.labels_to_target);
    out.report.push_back(line);
    return;
  }

  const Session& traced = sessions.back();
  const std::vector<AnalyzedSpan> spans = analyze(tracer.spans());
  const auto totals = totals_by_name(spans, tracer.names());
  const auto self_s = [&](const char* n) {
    const auto it = totals.find(n);
    return it == totals.end() ? 0.0 : it->second.self_ns * 1e-9;
  };
  const auto total_s = [&](const char* n) {
    const auto it = totals.find(n);
    return it == totals.end() ? 0.0 : it->second.total_ns * 1e-9;
  };
  // Selection time per round: the round span minus the wall time the pool
  // threads spent evaluating and scoring inside it.
  std::vector<double> select_ms;
  for (const AnalyzedSpan& a : spans) {
    if (a.span.name != names.round) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> busy;
    for (const AnalyzedSpan& b : spans) {
      if ((b.span.name == names.pool_predict || b.span.name == names.eval) &&
          b.span.item == a.span.item &&
          b.span.start_ns >= a.span.start_ns &&
          b.span.end_ns <= a.span.end_ns) {
        busy.emplace_back(b.span.start_ns, b.span.end_ns);
      }
    }
    std::sort(busy.begin(), busy.end());
    std::int64_t covered = 0;
    std::int64_t reach = a.span.start_ns;
    for (const auto& [b0, b1] : busy) {
      const std::int64_t from = std::max(b0, reach);
      if (b1 > from) covered += b1 - from;
      reach = std::max(reach, b1);
    }
    select_ms.push_back(static_cast<double>(a.span.duration() - covered) *
                        1e-6);
  }
  const double rows_scored = static_cast<double>(traced.rows_scored);
  out.add("ml.fit_ms_p50", checked_quantile(traced.fit_ms, 0.50, "fit p50"),
          traced.fit_ms.size());
  out.add("ml.fit_ms_p95", checked_quantile(traced.fit_ms, 0.95, "fit p95"),
          traced.fit_ms.size());
  out.add("ml.pool_predict_us_per_row",
          rows_scored > 0 ? total_s("ml.pool_predict") * 1e6 / rows_scored
                          : 0.0,
          traced.rows_scored);
  out.add("active.select_ms_p50",
          checked_quantile(select_ms, 0.50, "select p50"), select_ms.size());
  out.add("active.eval_ms_p50",
          checked_quantile(traced.eval_ms, 0.50, "eval p50"),
          traced.eval_ms.size());
  out.add("active.labels_to_target", traced.labels_to_target);
  out.add("setup.dataset_s", median(dataset_s), dataset_s.size());
  out.add("setup.train_s", median(train_s), train_s.size());
  // Session time outside every fit and round span (the learner's own
  // set-up before the seed fit).
  out.add("trace.unattributed_share", self_s("bench.session") / traced.wall_s,
          1);
  const Session& plain = sessions[sessions.size() - 2];
  out.add("trace.overhead_share", traced.wall_s / plain.wall_s - 1.0, 2);

  out.report.push_back("self time by span (traced session wall " +
                       std::to_string(traced.wall_s) +
                       " s; ml.eval and ml.pool_predict run on pool threads):");
  for (const auto& [name, t] : totals) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-24s %10.6f s  %6.2f%%  n=%llu",
                  name.c_str(), t.self_ns * 1e-9,
                  100.0 * t.self_ns * 1e-9 / traced.wall_s,
                  static_cast<unsigned long long>(t.count));
    out.report.push_back(line);
  }
  if (!opt.trace_csv.empty()) {
    std::ofstream os(opt.trace_csv);
    write_trace_csv(os, spans, tracer.names());
    if (!os) throw std::runtime_error("could not write " + opt.trace_csv);
  }
}

}  // namespace perfbench
