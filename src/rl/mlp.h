// Multi-layer perceptron with tanh hidden activations and a linear output,
// plus exact reverse-mode gradients — the function approximator behind the
// PPO actor and critic (the paper uses two hidden layers; width is a knob).
//
// The training path is batched: forward_batch/backward_batch process a whole
// minibatch as one activations matrix per layer, writing into a reusable
// MlpWorkspace whose arenas are sized once from the layer dims. The per-sample
// forward()/backward() API is re-expressed on top of the batch path with a
// batch of one.
#pragma once

#include <iosfwd>
#include <vector>

#include "rl/matrix.h"
#include "util/rng.h"

namespace libra {

class Mlp;

/// Caller-owned activation + gradient arenas for the batched training path.
/// configure() allocates every matrix once at the maximum batch size;
/// set_batch() then reshapes within that capacity, so steady-state training
/// performs zero heap allocations.
struct MlpWorkspace {
  /// acts[0] is the input batch (batch x in); acts[i+1] the post-activation
  /// output of layer i (batch x width_i).
  std::vector<Matrix> acts;
  /// deltas[i] holds dLoss/dZ of layer i during backward (batch x width_i).
  std::vector<Matrix> deltas;
  /// dLoss/dInput (batch x in), filled by backward_batch on request.
  Matrix input_grad;

  void configure(const Mlp& net, std::size_t max_batch);
  /// Reshapes all arenas to `batch` rows; never allocates once configured
  /// with max_batch >= batch.
  void set_batch(std::size_t batch);

  Matrix& input() { return acts.front(); }
  const Matrix& output() const { return acts.back(); }
  /// Where the caller writes dLoss/dOutput before backward_batch.
  Matrix& output_grad() { return deltas.back(); }
};

class Mlp {
 public:
  /// `sizes` = {input, hidden..., output}. Weights get Xavier-uniform init.
  Mlp(const std::vector<std::size_t>& sizes, Rng& rng);

  /// Forward pass caching activations for a subsequent backward().
  Vector forward(const Vector& input);

  /// Forward pass without touching the gradient cache (inference-only).
  Vector evaluate(const Vector& input) const;

  /// Fused inference into a caller-owned buffer: hidden-layer activations go
  /// through per-thread scratch space, so steady-state cost is zero
  /// allocations. Safe to call concurrently on a shared (read-only) model —
  /// the per-ACK path of every frozen learned CCA under the parallel engine.
  void evaluate_into(const Vector& input, Vector& out) const;

  /// evaluate(input)[0] without materializing the output vector (the actor
  /// and critic both have 1-wide outputs).
  double evaluate1(const Vector& input) const;

  /// Accumulates parameter gradients for the cached forward pass given
  /// dLoss/dOutput; returns dLoss/dInput. Call zero_gradients() between
  /// optimizer steps (gradients accumulate across calls, enabling batching).
  Vector backward(const Vector& grad_output);

  /// Batched forward through `ws`: the caller fills ws.input() (batch x in)
  /// and reads ws.output() (batch x out). Allocation-free once `ws` is
  /// configured. Iteration order matches running the rows through the
  /// per-sample path one at a time, so results are bitwise identical.
  void forward_batch(MlpWorkspace& ws) const;

  /// Batched backward for the pass cached in `ws`: the caller writes
  /// dLoss/dOutput into ws.output_grad(); parameter gradients accumulate into
  /// the layers (same contract as backward()). When `want_input_grad` is set,
  /// dLoss/dInput lands in ws.input_grad.
  void backward_batch(MlpWorkspace& ws, bool want_input_grad = false);

  void zero_gradients();

  /// Copies weights, biases (and nothing else) from a same-shape network —
  /// the policy-snapshot step of parallel rollout collection.
  void copy_parameters_from(const Mlp& other);

  std::size_t parameter_count() const;
  const std::vector<std::size_t>& sizes() const { return sizes_; }

  /// Text-format parameter persistence (layer sizes must already match on
  /// load; gradients and caches are not serialized).
  void save(std::ostream& out) const;
  void load(std::istream& in);

  struct Layer {
    Matrix weights;       // (out x in)
    Vector bias;          // (out)
    Matrix grad_weights;
    Vector grad_bias;
  };
  std::vector<Layer>& layers() { return layers_; }
  const std::vector<Layer>& layers() const { return layers_; }

 private:
  std::vector<std::size_t> sizes_;
  std::vector<Layer> layers_;
  // Batch-of-one workspace backing the per-sample forward()/backward() API.
  MlpWorkspace ws1_;
  Vector out1_, in_grad1_;  // per-sample return buffers (reused across calls)
  bool has_forward_ = false;
};

}  // namespace libra
