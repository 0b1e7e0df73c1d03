// The trained fixture the serving-tier tests share: one tiny experiment, a
// random forest and a logistic regression fitted on it, and both frozen
// into bundle bytes (two models, so reloads and rollouts have something to
// swap). Each test binary builds it once: building the dataset is the
// expensive part, everything downstream is cheap.
#pragma once

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "ml/grid_search.hpp"
#include "serving/diagnosis_service.hpp"
#include "serving/model_bundle.hpp"

namespace alba {

struct ServingFixture {
  DatasetConfig cfg = tiny_config();
  ExperimentData data;
  SplitIndices split;
  PreparedSplit prepared;
  std::unique_ptr<Classifier> model;  // the random forest in bundle_a
  std::string bundle_a;               // random forest, serialized
  std::string bundle_b;               // logistic regression, serialized
  std::vector<Matrix> windows;        // fresh raw windows, filled per file
};

inline std::string freeze_bundle(const ServingFixture& f,
                                 const Classifier& model) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  save_model_bundle(ss, make_model_bundle(f.data, f.prepared, model));
  return ss.str();
}

// Never freed: the fixture lives for the whole test binary. `cfg` picks the
// experiment (tiny_config() is MVTS; a TSFRESH variant exercises the other
// extractor's serving plans).
inline ServingFixture* train_serving_fixture(DatasetConfig cfg = tiny_config()) {
  auto* f = new ServingFixture;
  f->cfg = cfg;
  f->data = build_experiment_data(f->cfg);
  f->split = make_split(f->data, f->cfg.test_fraction, 5);
  f->prepared = prepare_split(f->data, f->split, f->cfg.select_k);
  ParamSet rf_params = table4_optimum("rf", false);
  rf_params["n_estimators"] = "15";  // keep the fixture fast
  f->model = make_model_factory("rf", kNumClasses, 9)(rf_params);
  f->model->fit(f->prepared.train_x, f->prepared.train_y);
  const auto lr =
      make_model_factory("lr", kNumClasses, 9)(table4_optimum("lr", false));
  lr->fit(f->prepared.train_x, f->prepared.train_y);
  f->bundle_a = freeze_bundle(*f, *f->model);
  f->bundle_b = freeze_bundle(*f, *lr);
  return f;
}

inline ModelBundle bundle_from_bytes(const std::string& bytes) {
  std::stringstream ss(bytes,
                       std::ios::in | std::ios::out | std::ios::binary);
  return load_model_bundle(ss);
}

inline std::shared_ptr<DiagnosisService> make_service(
    const std::string& bytes, ServingConfig config = {}) {
  return std::make_shared<DiagnosisService>(bundle_from_bytes(bytes),
                                            config);
}

}  // namespace alba
