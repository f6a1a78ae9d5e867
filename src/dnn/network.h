// Network topologies for end-to-end reliability campaigns — the bridge
// between the paper's single-operator fault patterns and whole-network
// outcomes (SDC, top-1 flips, accuracy degradation). A NetworkSpec names a
// topology + quantization recipe; preparing it trains/quantizes the model
// once and exposes every accelerated layer as an explicit GEMM, so one
// inference can be re-run under any execution rung (CPU reference,
// cycle-accurate faulty accelerator, or the appfi tensor-level injector)
// by swapping the LayerGemm executor.
//
// Three topologies, matching the evaluation ladder:
//   kExtraction — one all-ones GEMM layer, the paper's pattern-extraction
//                 workload, where the appfi rung is provably bit-exact;
//   kMlp        — the trained+quantized two-layer perceptron of the
//                 accuracy-degradation study (dnn/quantize.h);
//   kCnn        — the conv+dense SmallCnn (dnn/cnn.h), its convolution run
//                 as the im2col-lowered GEMM so conv-specific pattern
//                 classes (single/multi-channel) appear.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dnn/cnn.h"
#include "dnn/mlp.h"
#include "dnn/quantize.h"
#include "dnn/synthetic.h"
#include "fi/workload.h"
#include "mitigation/remap.h"

namespace saffire {

enum class NetworkKind : std::uint8_t {
  kExtraction = 0,
  kMlp = 1,
  kCnn = 2,
};

std::string ToString(NetworkKind kind);

// Parses exactly the ToString names; throws std::invalid_argument naming
// the accepted values ("extraction|mlp|cnn") otherwise.
NetworkKind ParseNetworkKind(const std::string& name);

// Topology + data recipe of one network campaign. Everything is
// deterministic in `seed`: weights, training order, and the synthetic
// evaluation batch.
struct NetworkSpec {
  NetworkKind kind = NetworkKind::kMlp;
  // Evaluation samples — the GEMM M dimension of every dense layer.
  std::int64_t batch = 32;
  std::uint64_t seed = 7;
  // Synthetic-digit pixel noise (kMlp / kCnn data).
  double noise = 0.02;

  // kExtraction: one all-ones batch×k · k×n GEMM.
  std::int64_t extraction_k = 16;
  std::int64_t extraction_n = 16;

  // kMlp: hidden width and the training recipe (dnn/mlp.h).
  std::int64_t hidden = 32;
  std::int64_t train_samples = 600;
  std::int64_t train_epochs = 80;
  double train_target = 0.97;

  // kCnn: convolution output channels on the fixed 1×8×8 digit geometry
  // (3×3 kernel, stride 1, pad 1 → 8×8 out, pooled to 4×4).
  std::int64_t conv_channels = 4;

  // Throws std::invalid_argument on degenerate members.
  void Validate() const;
};

// Number of accelerated layers a prepared `kind` network will have — known
// statically (kExtraction: 1; kMlp, kCnn: 2), so sweep specs can validate
// per-layer injection scopes without training the model first.
std::int64_t NetworkLayerCount(NetworkKind kind);

// The spec, realized: model trained and quantized, evaluation data
// materialized, and one GEMM-view WorkloadSpec per accelerated layer (the
// space fault patterns are predicted and classified in). Immutable after
// construction; Run() is const and safe to call concurrently.
class PreparedNetwork {
 public:
  explicit PreparedNetwork(const NetworkSpec& spec);

  const NetworkSpec& spec() const { return spec_; }
  std::int64_t layer_count() const {
    return static_cast<std::int64_t>(workloads_.size());
  }
  // GEMM-view workload of layer `layer` (dims + conv lowering; the name
  // field carries the layer name: "extract", "fc1"/"fc2", "conv"/"dense").
  const WorkloadSpec& layer_workload(std::int64_t layer) const;

  // Per-sample labels of the evaluation batch; empty for kExtraction
  // (whose output has no classification semantics).
  const std::vector<int>& labels() const { return labels_; }
  std::int64_t batch() const { return spec_.batch; }

  struct Inference {
    // What the executor returned per layer — the GEMM-view outputs the
    // corruption analysis compares (pre-bias/epilogue).
    std::vector<Int32Tensor> layer_outputs;
    // Final classification-space accumulators (post-epilogue).
    Int32Tensor logits{{1, 1}};
    // Per-sample argmax of `logits`.
    std::vector<int> top1;
  };

  // One full inference of the evaluation batch with every accelerated
  // layer executed by `gemm` (layer indices match layer_workload).
  Inference Run(const LayerGemm& gemm) const;

  // Post-mitigation per-layer observer: called with the logical-space
  // inputs the restored output corresponds to (EffectiveWeights of the
  // layer's plan); mutating `out` — e.g. ABFT correction — propagates into
  // the rest of the inference.
  using LayerObserver = std::function<void(
      int layer, const Int8Tensor& a, const Int8Tensor& b, Int32Tensor& out)>;

  // Mitigated inference: every layer's plan (mitigation/remap.h) is applied
  // around `gemm` — inputs/weights transformed into physical space before
  // the executor runs, the output restored to logical channel order after —
  // so the same plans drive the host reference, the appfi injector, and the
  // cycle-accurate driver identically. `plans` must be empty (no
  // mitigation) or size layer_count(). Remap-only plans are pure
  // permutations: on a fault-free executor the inference is byte-identical
  // to Run(gemm).
  Inference Run(const LayerGemm& gemm,
                const std::vector<LayerMitigationPlan>& plans,
                const LayerObserver& observe = nullptr) const;

  // Per-logical-channel salience of layer `layer`'s output, the remap
  // planner's victim-selection input: hidden layers weigh each channel by
  // the L1 mass of its outgoing next-layer weights, the final layer by its
  // incoming weight column; kExtraction is uniform.
  const std::vector<double>& channel_salience(std::int64_t layer) const;

 private:
  NetworkSpec spec_;
  std::vector<WorkloadSpec> workloads_;
  std::vector<int> labels_;
  std::vector<std::vector<double>> salience_;  // per layer, size GemmN

  // kExtraction operands.
  Int8Tensor ones_a_{{1, 1}};
  Int8Tensor ones_b_{{1, 1}};
  // kMlp model + evaluation inputs, quantized once at construction.
  std::optional<QuantizedMlp> mlp_;
  Int8Tensor eval_inputs_{{1, 1}};
  // kCnn model + the quantized evaluation images, lowered by Im2Col once
  // here so no inference re-lowers the fixed batch.
  std::optional<SmallCnn> cnn_;
  Int8Tensor cnn_patches_{{1, 1}};
};

// Fraction of `predictions` agreeing with `labels` (sizes must match).
double LabelAccuracy(const std::vector<int>& predictions,
                     const std::vector<int>& labels);

// Number of positions where the two prediction vectors disagree.
std::int64_t Top1Flips(const std::vector<int>& golden,
                       const std::vector<int>& faulty);

}  // namespace saffire
