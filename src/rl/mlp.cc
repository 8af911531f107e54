#include "rl/mlp.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "rl/matrix_simd.h"
#include "rl/simd.h"

namespace libra {

namespace {

// Activation kernels, dispatched like the GEMM layer. The AVX2 tanh pads its
// remainder into a full vector, so each element's result is independent of
// position — batched and per-sample activations stay bitwise identical.
inline void tanh_inplace(double* x, std::size_t n) {
  if (simd::use_avx2()) {
    simd::tanh_inplace_avx2(x, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

inline void tanh_backprop(double* g, const double* act, std::size_t n) {
  if (simd::use_avx2()) {
    simd::tanh_backprop_avx2(g, act, n);  // bitwise identical to scalar
    return;
  }
  for (std::size_t j = 0; j < n; ++j) g[j] *= 1.0 - act[j] * act[j];
}

}  // namespace

void MlpWorkspace::configure(const Mlp& net, std::size_t max_batch) {
  const std::vector<std::size_t>& sizes = net.sizes();
  acts.resize(sizes.size());
  deltas.resize(sizes.size() - 1);
  for (std::size_t i = 0; i < sizes.size(); ++i) acts[i].resize(max_batch, sizes[i]);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
    deltas[i].resize(max_batch, sizes[i + 1]);
  input_grad.resize(max_batch, sizes.front());
}

void MlpWorkspace::set_batch(std::size_t batch) {
  for (Matrix& m : acts) m.resize(batch, m.cols());
  for (Matrix& m : deltas) m.resize(batch, m.cols());
  input_grad.resize(batch, input_grad.cols());
}

Mlp::Mlp(const std::vector<std::size_t>& sizes, Rng& rng) : sizes_(sizes) {
  if (sizes.size() < 2) throw std::invalid_argument("Mlp: need at least in+out sizes");
  for (std::size_t s : sizes)
    if (s == 0) throw std::invalid_argument("Mlp: zero-width layer");
  layers_.reserve(sizes.size() - 1);
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    Layer layer;
    layer.weights = Matrix(sizes[i + 1], sizes[i]);
    layer.bias = Vector(sizes[i + 1], 0.0);
    layer.grad_weights = Matrix(sizes[i + 1], sizes[i]);
    layer.grad_bias = Vector(sizes[i + 1], 0.0);
    double bound = std::sqrt(6.0 / static_cast<double>(sizes[i] + sizes[i + 1]));
    for (double& w : layer.weights.data()) w = rng.uniform(-bound, bound);
    layers_.push_back(std::move(layer));
  }
  ws1_.configure(*this, 1);
}

void Mlp::forward_batch(MlpWorkspace& ws) const {
  const std::size_t batch = ws.acts.front().rows();
  if (ws.acts.front().cols() != sizes_.front())
    throw std::invalid_argument("Mlp::forward_batch: bad input width");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Matrix& z = ws.acts[i + 1];
    z.resize(batch, sizes_[i + 1]);
    // z = acts_i * W^T + b, row-broadcast.
    gemm_transB(ws.acts[i], layers_[i].weights, z);
    add_row_broadcast(z, layers_[i].bias);
    if (i + 1 < layers_.size()) {
      tanh_inplace(z.data().data(), z.data().size());
    }
  }
}

void Mlp::backward_batch(MlpWorkspace& ws, bool want_input_grad) {
  const std::size_t batch = ws.acts.front().rows();
  if (ws.deltas.back().rows() != batch ||
      ws.deltas.back().cols() != sizes_.back())
    throw std::logic_error("Mlp::backward_batch: output_grad shape mismatch");
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Matrix& dz = ws.deltas[i];
    // For hidden layers the cached activation is tanh(z); d tanh = 1 - a^2.
    if (i + 1 < layers_.size()) {
      const Vector& act = ws.acts[i + 1].data();
      Vector& g = dz.data();
      tanh_backprop(g.data(), act.data(), g.size());
    }
    // grad_W += dZ^T * acts_i ; grad_b += column sums of dZ.
    gemm_transA(dz, ws.acts[i], layers_[i].grad_weights, /*accumulate=*/true);
    add_col_sums(dz, layers_[i].grad_bias);
    if (i > 0) {
      // dA_i = dZ_i * W_i, feeding the next (lower) layer's tanh' pass.
      gemm(dz, layers_[i].weights, ws.deltas[i - 1]);
    } else if (want_input_grad) {
      ws.input_grad.resize(batch, sizes_.front());
      gemm(dz, layers_[i].weights, ws.input_grad);
    }
  }
}

Vector Mlp::forward(const Vector& input) {
  if (input.size() != sizes_.front()) throw std::invalid_argument("Mlp: bad input size");
  // Batch of one through the member workspace: after construction no
  // forward() allocates (out1_ grows once).
  ws1_.set_batch(1);
  std::copy(input.begin(), input.end(), ws1_.input().data().begin());
  forward_batch(ws1_);
  has_forward_ = true;
  out1_ = ws1_.output().data();
  return out1_;
}

void Mlp::evaluate_into(const Vector& input, Vector& out) const {
  if (input.size() != sizes_.front()) throw std::invalid_argument("Mlp: bad input size");
  // Per-thread ping-pong scratch: concurrent evaluation of one shared frozen
  // model from the parallel experiment engine must not share buffers.
  thread_local Vector ping, pong;
  const Vector* x = &input;
  bool use_ping = true;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    Vector& z = last ? out : (use_ping ? ping : pong);
    layers_[i].weights.multiply_into(*x, z);
    axpy(z, layers_[i].bias, 1.0);
    if (!last) {
      tanh_inplace(z.data(), z.size());
    }
    x = &z;
    use_ping = !use_ping;
  }
}

double Mlp::evaluate1(const Vector& input) const {
  thread_local Vector out;
  evaluate_into(input, out);
  return out[0];
}

Vector Mlp::evaluate(const Vector& input) const {
  Vector out;
  evaluate_into(input, out);
  return out;
}

Vector Mlp::backward(const Vector& grad_output) {
  if (!has_forward_)
    throw std::logic_error("Mlp::backward without a cached forward pass");
  if (grad_output.size() != sizes_.back())
    throw std::invalid_argument("Mlp::backward: bad grad_output size");
  std::copy(grad_output.begin(), grad_output.end(),
            ws1_.output_grad().data().begin());
  backward_batch(ws1_, /*want_input_grad=*/true);
  in_grad1_ = ws1_.input_grad.data();
  return in_grad1_;
}

void Mlp::zero_gradients() {
  for (Layer& l : layers_) {
    l.grad_weights.fill(0.0);
    std::fill(l.grad_bias.begin(), l.grad_bias.end(), 0.0);
  }
}

void Mlp::copy_parameters_from(const Mlp& other) {
  if (other.sizes_ != sizes_)
    throw std::invalid_argument("Mlp::copy_parameters_from: shape mismatch");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].weights.data() = other.layers_[i].weights.data();
    layers_[i].bias = other.layers_[i].bias;
  }
}

void Mlp::save(std::ostream& out) const {
  out << sizes_.size();
  for (std::size_t s : sizes_) out << ' ' << s;
  out << '\n';
  out.precision(17);
  for (const Layer& l : layers_) {
    for (double w : l.weights.data()) out << w << ' ';
    for (double b : l.bias) out << b << ' ';
    out << '\n';
  }
}

void Mlp::load(std::istream& in) {
  std::size_t n = 0;
  in >> n;
  if (n != sizes_.size()) throw std::runtime_error("Mlp::load: layer-count mismatch");
  for (std::size_t expected : sizes_) {
    std::size_t got = 0;
    in >> got;
    if (got != expected) throw std::runtime_error("Mlp::load: layer-size mismatch");
  }
  for (Layer& l : layers_) {
    for (double& w : l.weights.data()) in >> w;
    for (double& b : l.bias) in >> b;
  }
  if (!in) throw std::runtime_error("Mlp::load: truncated parameter stream");
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const Layer& l : layers_) n += l.weights.size() + l.bias.size();
  return n;
}

}  // namespace libra
