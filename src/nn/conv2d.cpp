#include "nn/conv2d.h"

#include <algorithm>
#include <stdexcept>

#include "tensor/init.h"
#include "tensor/kernels.h"

namespace cmfl::nn {

Conv2d::Conv2d(const Conv2dSpec& spec) : spec_(spec) {
  if (spec.in_channels == 0 || spec.out_channels == 0 || spec.kernel == 0 ||
      spec.in_height == 0 || spec.in_width == 0) {
    throw std::invalid_argument("Conv2d: dimensions must be positive");
  }
  if (spec.in_height + 2 * spec.padding < spec.kernel ||
      spec.in_width + 2 * spec.padding < spec.kernel) {
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  }
  out_h_ = spec.in_height + 2 * spec.padding - spec.kernel + 1;
  out_w_ = spec.in_width + 2 * spec.padding - spec.kernel + 1;
  const std::size_t wsize =
      spec.out_channels * spec.in_channels * spec.kernel * spec.kernel;
  w_.assign(wsize, 0.0f);
  gw_.assign(wsize, 0.0f);
  b_.assign(spec.out_channels, 0.0f);
  gb_.assign(spec.out_channels, 0.0f);
}

std::size_t Conv2d::in_dim() const noexcept {
  return spec_.in_channels * spec_.in_height * spec_.in_width;
}

std::size_t Conv2d::out_dim() const noexcept {
  return spec_.out_channels * out_h_ * out_w_;
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(spec_.in_channels) + "x" +
         std::to_string(spec_.in_height) + "x" + std::to_string(spec_.in_width) +
         " -> " + std::to_string(spec_.out_channels) + "x" +
         std::to_string(out_h_) + "x" + std::to_string(out_w_) + ", k=" +
         std::to_string(spec_.kernel) + ")";
}

float& Conv2d::weight(std::size_t oc, std::size_t ic, std::size_t kh,
                      std::size_t kw) noexcept {
  return w_[((oc * spec_.in_channels + ic) * spec_.kernel + kh) * spec_.kernel +
            kw];
}

void Conv2d::im2col_row(std::span<const float> x, float* col) const {
  const auto ih = spec_.in_height, iw = spec_.in_width, k = spec_.kernel,
             pad = spec_.padding;
  const std::size_t pixels = out_h_ * out_w_;
  // Patch row kidx = (ic·k + kh)·k + kw holds input tap (ic, kh, kw) for
  // every output pixel — the same (ic, kh, kw)-increasing order the naive
  // accumulation walks, so the forward GEMM's k order matches it exactly.
  std::size_t kidx = 0;
  for (std::size_t ic = 0; ic < spec_.in_channels; ++ic) {
    const float* xp = x.data() + ic * ih * iw;
    for (std::size_t khi = 0; khi < k; ++khi) {
      for (std::size_t kwi = 0; kwi < k; ++kwi, ++kidx) {
        float* cr = col + kidx * pixels;
        for (std::size_t oh = 0; oh < out_h_; ++oh) {
          float* crow = cr + oh * out_w_;
          const std::size_t r = oh + khi;
          if (r < pad || r >= ih + pad) {
            std::fill(crow, crow + out_w_, 0.0f);
            continue;
          }
          const float* xrow = xp + (r - pad) * iw;
          for (std::size_t ow = 0; ow < out_w_; ++ow) {
            const std::size_t c = ow + kwi;
            crow[ow] = (c < pad || c >= iw + pad) ? 0.0f : xrow[c - pad];
          }
        }
      }
    }
  }
}

void Conv2d::scatter_grads_row(std::span<const float> x,
                               std::span<const float> gy,
                               std::span<float> gx) {
  const auto ih = spec_.in_height, iw = spec_.in_width, k = spec_.kernel,
             pad = spec_.padding;
  // Same tap visit order (and therefore the same per-element float
  // accumulation order) as backward_ref — (oc, oh, ow) outer with the
  // g == 0 skip, (ic, khi, kwi) taps inner — but with the per-tap padding
  // bounds checks hoisted into khi/kwi ranges so the innermost loop runs
  // branch-free over three contiguous rows (gw/x and gx/w pairs).  The
  // hoisted ranges skip exactly the taps the naive checks skip.  The
  // g == 0 skip is the whole point of staying scalar here: the gradient
  // reaching a conv layer in this codebase has been masked by ReLU backward
  // and scattered by MaxPool backward, so most entries are exact zeros whose
  // taps a dense col2im/GEMM formulation would still pay for.
  for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
    const float* gp = gy.data() + oc * out_h_ * out_w_;
    for (std::size_t oh = 0; oh < out_h_; ++oh) {
      const std::size_t khi_lo = pad > oh ? pad - oh : 0;
      const std::size_t khi_hi = std::min(k, ih + pad - oh);  // exclusive
      for (std::size_t ow = 0; ow < out_w_; ++ow) {
        const float g = gp[oh * out_w_ + ow];
        if (g == 0.0f) continue;
        const std::size_t kwi_lo = pad > ow ? pad - ow : 0;
        const std::size_t kwi_hi = std::min(k, iw + pad - ow);
        const std::size_t len = kwi_hi - kwi_lo;
        const std::size_t xc0 = ow + kwi_lo - pad;
        for (std::size_t ic = 0; ic < spec_.in_channels; ++ic) {
          const float* xp = x.data() + ic * ih * iw;
          float* gxp = gx.data() + ic * ih * iw;
          const std::size_t base = (oc * spec_.in_channels + ic) * k * k;
          for (std::size_t khi = khi_lo; khi < khi_hi; ++khi) {
            const std::size_t xr = oh + khi - pad;
            const float* xrow = xp + xr * iw + xc0;
            float* gxrow = gxp + xr * iw + xc0;
            float* gwrow = gw_.data() + base + khi * k + kwi_lo;
            const float* wrow = w_.data() + base + khi * k + kwi_lo;
            for (std::size_t j = 0; j < len; ++j) {
              gwrow[j] += g * xrow[j];
              gxrow[j] += g * wrow[j];
            }
          }
        }
      }
    }
  }
}

void Conv2d::forward(const tensor::Matrix& in, tensor::Matrix& out,
                     bool /*training*/) {
  if (in.cols() != in_dim()) {
    throw std::invalid_argument("Conv2d::forward: input width mismatch");
  }
  if (ref_mode_) {
    forward_ref(in, out);
    return;
  }
  const std::size_t batch = in.rows();
  cached_batch_ = batch;
  in_ptr_ = &in;  // caller-owned; must outlive backward (layer contract)
  out.resize(batch, out_dim());
  const std::size_t patch = spec_.in_channels * spec_.kernel * spec_.kernel;
  const std::size_t pixels = out_h_ * out_w_;
  col_.resize(batch, patch * pixels);
  // Each batch row writes a disjoint output (and col_) row, so the forward
  // pass shards across the kernel pool when large enough (backward stays
  // serial: it accumulates into shared gw_/gb_).
  const std::size_t macs_per_row =
      spec_.out_channels * out_h_ * out_w_ * spec_.in_channels * spec_.kernel *
      spec_.kernel;
  tensor::kernels::parallel_rows(
      batch, batch * macs_per_row, [&](std::size_t n0, std::size_t n1) {
        for (std::size_t n = n0; n < n1; ++n) {
          float* col = col_.row(n).data();
          im2col_row(in.row(n), col);
          auto y = out.row(n);
          // Preload each output row with the bias, then accumulate the patch
          // taps on top: per element this is bias first, then taps with
          // (ic, kh, kw) strictly increasing — the naive loop's exact
          // floating-point sequence.
          for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
            float* yr = y.data() + oc * pixels;
            std::fill(yr, yr + pixels, b_[oc]);
          }
          // The per-sample GEMM itself tiles its out_channels row range over
          // the pool: when the batch loop above ran serial (small batch,
          // e.g. single-image inference on a large plane) this is where the
          // threads come from, and when the batch loop is already sharded
          // the per-sample MAC count sits below the threshold so this stays
          // a single direct call.  Row ranges compose bitwise (kernels.h),
          // so the nesting never changes results.
          tensor::kernels::parallel_rows(
              spec_.out_channels, macs_per_row,
              [&](std::size_t oc0, std::size_t oc1) {
                tensor::kernels::gemm_nn_acc(w_.data(), col, y.data(),
                                             spec_.out_channels, patch, pixels,
                                             oc0, oc1);
              });
        }
      });
}

void Conv2d::backward(const tensor::Matrix& grad_out,
                      tensor::Matrix& grad_in) {
  if (ref_mode_) {
    backward_ref(grad_out, grad_in);
    return;
  }
  if (grad_out.cols() != out_dim() || grad_out.rows() != cached_batch_ ||
      in_ptr_ == nullptr) {
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  }
  const std::size_t batch = grad_out.rows();
  grad_in.resize(batch, in_dim());
  // resize() leaves values unspecified; the scatter accumulates, so zero
  // the whole gradient buffer up front (backward_ref gets this from its
  // freshly constructed Matrix).
  std::fill(grad_in.flat().begin(), grad_in.flat().end(), 0.0f);
  const std::size_t pixels = out_h_ * out_w_;
  for (std::size_t n = 0; n < batch; ++n) {
    auto gy = grad_out.row(n);
    // gb[oc] += Σ_p gy(oc, p), p strictly increasing per channel — the naive
    // interleaved order, since gb_[oc] only ever receives channel-oc terms
    // and the extra zero-gradient terms are ±0-safe no-op additions.
    tensor::kernels::add_col_sums(gy.data(), pixels, spec_.out_channels, 1,
                                  pixels, gb_);
    scatter_grads_row(in_ptr_->row(n), gy, grad_in.row(n));
  }
}

// ---------------------------------------------------------------------------
// Reference implementation: the original naive loops, kept verbatim for
// equivalence tests and the pre-PR benchmark baseline.
// ---------------------------------------------------------------------------

void Conv2d::forward_ref(const tensor::Matrix& in, tensor::Matrix& out) {
  cached_in_ = in;
  cached_batch_ = in.rows();
  const std::size_t batch = in.rows();
  out = tensor::Matrix(batch, out_dim());
  const auto ih = spec_.in_height, iw = spec_.in_width, k = spec_.kernel,
             pad = spec_.padding;
  const std::size_t macs_per_row =
      spec_.out_channels * out_h_ * out_w_ * spec_.in_channels * k * k;
  tensor::kernels::parallel_rows(
      batch, batch * macs_per_row, [&](std::size_t n0, std::size_t n1) {
        for (std::size_t n = n0; n < n1; ++n) {
          auto x = in.row(n);
          auto y = out.row(n);
          for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
            for (std::size_t oh = 0; oh < out_h_; ++oh) {
              for (std::size_t ow = 0; ow < out_w_; ++ow) {
                float acc = b_[oc];
                for (std::size_t ic = 0; ic < spec_.in_channels; ++ic) {
                  const float* xp = x.data() + ic * ih * iw;
                  for (std::size_t khi = 0; khi < k; ++khi) {
                    // padded row index = oh + khi - pad; skip out-of-bounds
                    // rows.
                    const std::size_t r = oh + khi;
                    if (r < pad || r >= ih + pad) continue;
                    const std::size_t xr = r - pad;
                    for (std::size_t kwi = 0; kwi < k; ++kwi) {
                      const std::size_t c = ow + kwi;
                      if (c < pad || c >= iw + pad) continue;
                      acc += weight(oc, ic, khi, kwi) * xp[xr * iw + (c - pad)];
                    }
                  }
                }
                y[(oc * out_h_ + oh) * out_w_ + ow] = acc;
              }
            }
          }
        }
      });
}

void Conv2d::backward_ref(const tensor::Matrix& grad_out,
                          tensor::Matrix& grad_in) {
  if (grad_out.cols() != out_dim() ||
      grad_out.rows() != cached_in_.rows()) {
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  }
  const std::size_t batch = grad_out.rows();
  grad_in = tensor::Matrix(batch, in_dim());
  const auto ih = spec_.in_height, iw = spec_.in_width, k = spec_.kernel,
             pad = spec_.padding;
  for (std::size_t n = 0; n < batch; ++n) {
    auto x = cached_in_.row(n);
    auto gy = grad_out.row(n);
    auto gx = grad_in.row(n);
    for (std::size_t oc = 0; oc < spec_.out_channels; ++oc) {
      for (std::size_t oh = 0; oh < out_h_; ++oh) {
        for (std::size_t ow = 0; ow < out_w_; ++ow) {
          const float g = gy[(oc * out_h_ + oh) * out_w_ + ow];
          if (g == 0.0f) continue;
          gb_[oc] += g;
          for (std::size_t ic = 0; ic < spec_.in_channels; ++ic) {
            const float* xp = x.data() + ic * ih * iw;
            float* gxp = gx.data() + ic * ih * iw;
            for (std::size_t khi = 0; khi < k; ++khi) {
              const std::size_t r = oh + khi;
              if (r < pad || r >= ih + pad) continue;
              const std::size_t xr = r - pad;
              for (std::size_t kwi = 0; kwi < k; ++kwi) {
                const std::size_t c = ow + kwi;
                if (c < pad || c >= iw + pad) continue;
                const std::size_t xi = xr * iw + (c - pad);
                gw_[((oc * spec_.in_channels + ic) * k + khi) * k + kwi] +=
                    g * xp[xi];
                gxp[xi] += g * weight(oc, ic, khi, kwi);
              }
            }
          }
        }
      }
    }
  }
}

void Conv2d::init_params(util::Rng& rng) {
  const std::size_t fan_in =
      spec_.in_channels * spec_.kernel * spec_.kernel;
  tensor::he_normal(w_, fan_in, rng);
  std::fill(b_.begin(), b_.end(), 0.0f);
}

void Conv2d::collect_params(std::vector<std::span<float>>& out) {
  out.push_back(w_);
  out.push_back(b_);
}

void Conv2d::collect_grads(std::vector<std::span<float>>& out) {
  out.push_back(gw_);
  out.push_back(gb_);
}

void Conv2d::zero_grads() {
  std::fill(gw_.begin(), gw_.end(), 0.0f);
  std::fill(gb_.begin(), gb_.end(), 0.0f);
}

}  // namespace cmfl::nn
