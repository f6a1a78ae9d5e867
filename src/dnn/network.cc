#include "dnn/network.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "tensor/conv.h"
#include "tensor/im2col.h"

namespace saffire {

namespace {

constexpr const char* kNetworkKindNames[] = {"extraction", "mlp", "cnn"};

// Column-wise L1 mass of an INT8 matrix — the "incoming weight" salience
// of a layer's output channels.
std::vector<double> ColumnL1(const Int8Tensor& w) {
  std::vector<double> mass(static_cast<std::size_t>(w.dim(1)), 0.0);
  for (std::int64_t i = 0; i < w.dim(0); ++i) {
    for (std::int64_t j = 0; j < w.dim(1); ++j) {
      mass[static_cast<std::size_t>(j)] +=
          std::abs(static_cast<double>(w(i, j)));
    }
  }
  return mass;
}

// Row-wise L1 mass, grouped: rows [c·group, (c+1)·group) of `w` all consume
// channel c of the previous layer, so their combined mass is how much that
// channel matters downstream (group = 1 for dense-to-dense).
std::vector<double> GroupedRowL1(const Int8Tensor& w, std::int64_t channels,
                                 std::int64_t group) {
  std::vector<double> mass(static_cast<std::size_t>(channels), 0.0);
  for (std::int64_t i = 0; i < w.dim(0); ++i) {
    const std::int64_t channel = i / group;
    for (std::int64_t j = 0; j < w.dim(1); ++j) {
      mass[static_cast<std::size_t>(channel)] +=
          std::abs(static_cast<double>(w(i, j)));
    }
  }
  return mass;
}

ConvParams DigitConv(std::int64_t batch, std::int64_t channels) {
  ConvParams conv;
  conv.batch = batch;
  conv.in_channels = 1;
  conv.height = 8;
  conv.width = 8;
  conv.out_channels = channels;
  conv.kernel_h = 3;
  conv.kernel_w = 3;
  conv.stride = 1;
  conv.pad = 1;
  return conv;
}

}  // namespace

std::string ToString(NetworkKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  SAFFIRE_ASSERT_MSG(index < std::size(kNetworkKindNames),
                     "network kind " << static_cast<int>(index));
  return kNetworkKindNames[index];
}

NetworkKind ParseNetworkKind(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kNetworkKindNames); ++i) {
    if (name == kNetworkKindNames[i]) return static_cast<NetworkKind>(i);
  }
  SAFFIRE_CHECK_MSG(
      false, "unknown network kind '" << name
                                      << "' (expected extraction|mlp|cnn)");
}

std::int64_t NetworkLayerCount(NetworkKind kind) {
  return kind == NetworkKind::kExtraction ? 1 : 2;
}

void NetworkSpec::Validate() const {
  SAFFIRE_CHECK_MSG(batch >= 1 && batch <= 4096, "batch=" << batch);
  SAFFIRE_CHECK_MSG(noise >= 0.0 && noise <= 1.0, "noise=" << noise);
  switch (kind) {
    case NetworkKind::kExtraction:
      SAFFIRE_CHECK_MSG(extraction_k >= 1 && extraction_n >= 1,
                        "extraction " << extraction_k << "x" << extraction_n);
      break;
    case NetworkKind::kMlp:
      SAFFIRE_CHECK_MSG(hidden >= 2, "hidden=" << hidden);
      SAFFIRE_CHECK_MSG(train_samples >= 10,
                        "train_samples=" << train_samples);
      SAFFIRE_CHECK_MSG(train_epochs >= 1, "train_epochs=" << train_epochs);
      SAFFIRE_CHECK_MSG(train_target > 0.0 && train_target <= 1.0,
                        "train_target=" << train_target);
      break;
    case NetworkKind::kCnn:
      SAFFIRE_CHECK_MSG(conv_channels >= 1 && conv_channels <= 64,
                        "conv_channels=" << conv_channels);
      break;
  }
}

PreparedNetwork::PreparedNetwork(const NetworkSpec& spec) : spec_(spec) {
  spec_.Validate();
  switch (spec_.kind) {
    case NetworkKind::kExtraction: {
      ones_a_ = Int8Tensor({spec_.batch, spec_.extraction_k});
      ones_b_ = Int8Tensor({spec_.extraction_k, spec_.extraction_n});
      for (std::int64_t i = 0; i < ones_a_.size(); ++i) ones_a_.flat(i) = 1;
      for (std::int64_t i = 0; i < ones_b_.size(); ++i) ones_b_.flat(i) = 1;
      WorkloadSpec layer;
      layer.name = "extract";
      layer.op = OpType::kGemm;
      layer.m = spec_.batch;
      layer.k = spec_.extraction_k;
      layer.n = spec_.extraction_n;
      layer.input_fill = OperandFill::kOnes;
      layer.weight_fill = OperandFill::kOnes;
      layer.data_seed = spec_.seed;
      workloads_.push_back(layer);
      break;
    }
    case NetworkKind::kMlp: {
      const Dataset train =
          MakeSyntheticDigits(spec_.train_samples, spec_.noise, spec_.seed);
      const Dataset eval =
          MakeSyntheticDigits(spec_.batch, spec_.noise, spec_.seed + 1);
      Mlp mlp(kDigitPixels, spec_.hidden, kDigitClasses, spec_.seed);
      Rng rng(spec_.seed + 2);
      mlp.TrainUntil(train, spec_.train_target, spec_.train_epochs, 0.1, rng);
      mlp_.emplace(mlp, train);
      eval_inputs_ = mlp_->QuantizeInputs(eval.inputs);
      labels_ = eval.labels;

      WorkloadSpec fc1;
      fc1.name = "fc1";
      fc1.op = OpType::kGemm;
      fc1.m = spec_.batch;
      fc1.k = kDigitPixels;
      fc1.n = spec_.hidden;
      fc1.input_fill = OperandFill::kRandom;
      fc1.weight_fill = OperandFill::kRandom;
      fc1.data_seed = spec_.seed;
      workloads_.push_back(fc1);

      WorkloadSpec fc2 = fc1;
      fc2.name = "fc2";
      fc2.k = spec_.hidden;
      fc2.n = kDigitClasses;
      workloads_.push_back(fc2);
      break;
    }
    case NetworkKind::kCnn: {
      const Dataset eval =
          MakeSyntheticDigits(spec_.batch, spec_.noise, spec_.seed + 1);
      const ConvParams conv = DigitConv(spec_.batch, spec_.conv_channels);
      cnn_.emplace(conv, kDigitClasses, spec_.seed);
      float scale = 1.0f;
      cnn_patches_ = Im2Col(QuantizeSymmetric(eval.inputs, scale)
                                .Reshape({spec_.batch, 1, std::int64_t{8},
                                          std::int64_t{8}}),
                            conv);
      labels_ = eval.labels;

      WorkloadSpec conv_layer;
      conv_layer.name = "conv";
      conv_layer.op = OpType::kConv;
      conv_layer.conv = conv;
      conv_layer.lowering = ConvLowering::kIm2Col;
      conv_layer.input_fill = OperandFill::kRandom;
      conv_layer.weight_fill = OperandFill::kRandom;
      conv_layer.data_seed = spec_.seed;
      workloads_.push_back(conv_layer);

      const std::int64_t pooled =
          conv.out_channels * (conv.out_height() / 2) * (conv.out_width() / 2);
      WorkloadSpec dense;
      dense.name = "dense";
      dense.op = OpType::kGemm;
      dense.m = spec_.batch;
      dense.k = pooled;
      dense.n = kDigitClasses;
      dense.input_fill = OperandFill::kRandom;
      dense.weight_fill = OperandFill::kRandom;
      dense.data_seed = spec_.seed;
      workloads_.push_back(dense);
      break;
    }
  }
  for (const WorkloadSpec& workload : workloads_) workload.Validate();

  // Channel salience per layer, the remap planner's victim ranking: a
  // hidden channel is as important as the L1 mass of the next layer's
  // weights consuming it; the final layer's channels (the logits) by their
  // incoming columns. Extraction outputs have no downstream consumer —
  // uniform, so the remap victim choice is deterministic but arbitrary.
  switch (spec_.kind) {
    case NetworkKind::kExtraction:
      salience_.push_back(std::vector<double>(
          static_cast<std::size_t>(spec_.extraction_n), 1.0));
      break;
    case NetworkKind::kMlp:
      salience_.push_back(GroupedRowL1(mlp_->w2q(), spec_.hidden, 1));
      salience_.push_back(ColumnL1(mlp_->w2q()));
      break;
    case NetworkKind::kCnn: {
      const ConvParams conv = DigitConv(spec_.batch, spec_.conv_channels);
      const std::int64_t pooled_per_channel =
          (conv.out_height() / 2) * (conv.out_width() / 2);
      salience_.push_back(GroupedRowL1(cnn_->dense_weights(),
                                       spec_.conv_channels,
                                       pooled_per_channel));
      salience_.push_back(ColumnL1(cnn_->dense_weights()));
      break;
    }
  }
  SAFFIRE_ASSERT_MSG(salience_.size() == workloads_.size(),
                     salience_.size() << " vs " << workloads_.size());
  for (std::size_t i = 0; i < salience_.size(); ++i) {
    SAFFIRE_ASSERT_MSG(
        static_cast<std::int64_t>(salience_[i].size()) ==
            workloads_[i].GemmN(),
        "layer " << i << " salience " << salience_[i].size());
  }
}

const std::vector<double>& PreparedNetwork::channel_salience(
    std::int64_t layer) const {
  SAFFIRE_CHECK_MSG(layer >= 0 && layer < layer_count(),
                    "layer " << layer << " of " << layer_count());
  return salience_[static_cast<std::size_t>(layer)];
}

const WorkloadSpec& PreparedNetwork::layer_workload(
    std::int64_t layer) const {
  SAFFIRE_CHECK_MSG(layer >= 0 && layer < layer_count(),
                    "layer " << layer << " of " << layer_count());
  return workloads_[static_cast<std::size_t>(layer)];
}

PreparedNetwork::Inference PreparedNetwork::Run(const LayerGemm& gemm) const {
  Inference inference;
  inference.layer_outputs.assign(workloads_.size(), Int32Tensor({1, 1}));
  const LayerGemm capture = [&](int layer, const Int8Tensor& a,
                                const Int8Tensor& b) {
    Int32Tensor out = gemm(layer, a, b);
    SAFFIRE_CHECK_MSG(
        layer >= 0 && layer < layer_count() &&
            out.rank() == 2 &&
            out.dim(0) == workloads_[static_cast<std::size_t>(layer)].GemmM() &&
            out.dim(1) == workloads_[static_cast<std::size_t>(layer)].GemmN(),
        "layer " << layer << " output " << out.ShapeString());
    inference.layer_outputs[static_cast<std::size_t>(layer)] = out;
    return out;
  };

  switch (spec_.kind) {
    case NetworkKind::kExtraction:
      inference.logits = capture(0, ones_a_, ones_b_);
      break;
    case NetworkKind::kMlp:
      inference.logits = mlp_->LogitsWith(eval_inputs_, capture);
      break;
    case NetworkKind::kCnn:
      inference.logits = cnn_->ForwardLowered(cnn_patches_, capture).logits;
      break;
  }
  inference.top1 = ArgmaxRows(inference.logits);
  return inference;
}

PreparedNetwork::Inference PreparedNetwork::Run(
    const LayerGemm& gemm, const std::vector<LayerMitigationPlan>& plans,
    const LayerObserver& observe) const {
  if (plans.empty() && observe == nullptr) return Run(gemm);
  SAFFIRE_CHECK_MSG(
      plans.empty() ||
          static_cast<std::int64_t>(plans.size()) == layer_count(),
      plans.size() << " plans for " << layer_count() << " layers");
  static const LayerMitigationPlan kIdentity;
  const LayerGemm mitigated = [&](int layer, const Int8Tensor& a,
                                  const Int8Tensor& b) {
    const LayerMitigationPlan& plan =
        plans.empty() ? kIdentity : plans[static_cast<std::size_t>(layer)];
    Int32Tensor out{{1, 1}};
    if (plan.identity()) {
      out = gemm(layer, a, b);
      if (observe != nullptr) observe(layer, a, b, out);
      return out;
    }
    // Physical space in, logical space out: the executor (host reference,
    // appfi injector, or driver) only ever sees the transformed operands,
    // so the faulty physical columns stay fixed while the logical channels
    // routed through them move.
    const Int8Tensor a_phys = PermuteInputColumns(plan, a);
    const Int8Tensor b_phys = TransformWeights(plan, b);
    out = RestoreOutput(plan, gemm(layer, a_phys, b_phys));
    if (observe != nullptr) {
      const Int8Tensor b_logical = EffectiveWeights(plan, b);
      observe(layer, a, b_logical, out);
    }
    return out;
  };
  return Run(mitigated);
}

double LabelAccuracy(const std::vector<int>& predictions,
                     const std::vector<int>& labels) {
  SAFFIRE_CHECK_MSG(predictions.size() == labels.size() && !labels.empty(),
                    predictions.size() << " predictions vs " << labels.size()
                                       << " labels");
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(predictions.size());
}

std::int64_t Top1Flips(const std::vector<int>& golden,
                       const std::vector<int>& faulty) {
  SAFFIRE_CHECK_MSG(golden.size() == faulty.size(),
                    golden.size() << " vs " << faulty.size());
  std::int64_t flips = 0;
  for (std::size_t i = 0; i < golden.size(); ++i) {
    if (golden[i] != faulty[i]) ++flips;
  }
  return flips;
}

}  // namespace saffire
