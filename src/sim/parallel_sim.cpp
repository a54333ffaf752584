#include "sim/parallel_sim.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <numeric>

#include "netlist/traversal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace opiso {

// Lane-plane invariant: every stored plane word is masked to the
// active-lane mask block, so inactive-lane bits are always 0 and
// popcount-based statistics never see them. Bitwise NOT must therefore
// re-apply the mask.

namespace {
/// Population count of one plane word. On x86-64 without the popcnt
/// extension (the portable baseline) std::popcount is a libgcc call,
/// and the statistics pass counts every net bit's words every cycle,
/// so that target gets the inline SWAR form instead.
inline std::uint64_t popcount64(std::uint64_t x) {
#if defined(__x86_64__) && !defined(__POPCNT__)
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return (x * 0x0101010101010101ull) >> 56;
#else
  return static_cast<std::uint64_t>(std::popcount(x));
#endif
}

/// Bit `lane` of the `width` consecutive `words`-word plane blocks at
/// `p`, packed LSB-first: one lane's value of a net.
std::uint64_t gather_lane(const std::uint64_t* p, unsigned width, unsigned words, unsigned lane) {
  const unsigned word = lane / 64;
  const unsigned bit = lane % 64;
  std::uint64_t v = 0;
  for (unsigned b = 0; b < width; ++b) v |= ((p[b * words + word] >> bit) & 1) << b;
  return v;
}
}  // namespace

ParallelSimulator::ParallelSimulator(const Netlist& nl, unsigned lanes, const ExprPool* pool,
                                     const NetVarMap* vars)
    : nl_(nl), pool_(pool), vars_(vars), lanes_(lanes), words_(lanes <= 64 ? 1 : kPlaneWords) {
  OPISO_REQUIRE(lanes >= 1 && lanes <= kMaxLanes,
                "ParallelSimulator: lanes must be in [1," + std::to_string(kMaxLanes) + "]");
  nl_.validate();
  for (unsigned k = 0; k < kPlaneWords; ++k) {
    const unsigned lo = 64 * k;
    if (lanes_ >= lo + 64) {
      lane_mask_[k] = ~std::uint64_t{0};
    } else if (lanes_ > lo) {
      lane_mask_[k] = (std::uint64_t{1} << (lanes_ - lo)) - 1;
    } else {
      lane_mask_[k] = 0;
    }
  }
  order_ = topological_order(nl_);

  plane_off_.resize(nl_.num_nets());
  net_width_.resize(nl_.num_nets());
  std::size_t planes = 0;
  for (NetId id : nl_.net_ids()) {
    plane_off_[id.value()] = planes;
    net_width_[id.value()] = nl_.net(id).width;
    planes += nl_.net(id).width;
  }
  planes_.assign(planes * words_, 0);
  prev_.assign(planes * words_, 0);

  state_off_.resize(nl_.num_cells());
  std::size_t state_planes = 0;
  for (CellId id : nl_.cell_ids()) {
    const Cell& c = nl_.cell(id);
    state_off_[id.value()] = state_planes;
    if (c.kind == CellKind::Reg || cell_kind_is_latch(c.kind)) state_planes += c.width;
  }
  state_.assign(state_planes * words_, 0);

  program_ = build_plane_program(nl_, order_, plane_off_, state_off_, words_);

  stats_.toggles.assign(nl_.num_nets(), 0);
  frame_toggles_.assign(nl_.num_nets(), 0);
}

std::size_t ParallelSimulator::add_probe(ExprRef expr) {
  OPISO_REQUIRE(pool_ != nullptr && vars_ != nullptr,
                "ParallelSimulator: probes require an ExprPool and NetVarMap");
  // A probe added mid-run would take its first previous value from
  // prev_: a real one when its root shares a net's or an earlier
  // probe's plane, 0 when the plane is new. Probes come first, so toggle
  // counts never depend on sharing.
  OPISO_REQUIRE(cycle_ == 0, "ParallelSimulator: add probes before the first simulated cycle");
  for (BoolVar v : pool_->support(expr)) {
    NetId net = vars_->net_of(v);
    OPISO_REQUIRE(net.value() < nl_.num_nets(), "probe variable bound to foreign net");
  }
  expr_plane_.resize(pool_->num_nodes(), kUncompiled);
  probe_plane_.push_back(compile_expr(expr));
  stats_.probe_true.push_back(0);
  stats_.probe_toggles.push_back(0);
  frame_probe_true_.push_back(0);
  return probe_plane_.size() - 1;
}

std::size_t ParallelSimulator::compile_expr(ExprRef r) {
  if (expr_plane_[r.value()] != kUncompiled) return expr_plane_[r.value()];
  const ExprNode& n = pool_->node(r);
  PlaneOp op;
  op.w = 1;
  const auto operand = [&](ExprRef child) {
    return static_cast<std::uint32_t>(compile_expr(child) * words_);
  };
  switch (n.op) {
    case ExprOp::Var:  // no gate: bit 0 of the net's planes
      return expr_plane_[r.value()] = plane_off_[vars_->net_of(n.var).value()];
    case ExprOp::Const0:
    case ExprOp::Const1:
      op.kind = CellKind::Constant;
      op.param = n.op == ExprOp::Const1 ? 1 : 0;
      break;
    case ExprOp::Not:
      op.kind = CellKind::Not;
      op.a = operand(n.a);
      op.wa = 1;
      break;
    case ExprOp::And:
    case ExprOp::Or:
      op.kind = n.op == ExprOp::And ? CellKind::And : CellKind::Or;
      op.a = operand(n.a);
      op.b = operand(n.b);
      op.wa = op.wb = 1;
      break;
  }
  const std::size_t plane = planes_.size() / words_;
  planes_.resize(planes_.size() + words_, 0);
  prev_.resize(planes_.size(), 0);
  op.out = static_cast<std::uint32_t>(plane * words_);
  program_.ops.push_back(op);
  return expr_plane_[r.value()] = plane;
}

void ParallelSimulator::set_stimulus(const LaneStimulusFactory& make) {
  OPISO_REQUIRE(make != nullptr, "ParallelSimulator: null stimulus factory");
  lane_stims_.clear();
  lane_stims_.reserve(lanes_);
  for (unsigned l = 0; l < lanes_; ++l) {
    lane_stims_.push_back(make(l));
    OPISO_REQUIRE(lane_stims_.back() != nullptr,
                  "ParallelSimulator: stimulus factory returned null");
  }
  // SoA fast path: when every lane is a plain uniform generator, gather
  // the per-lane xoshiro states into four parallel arrays so one loop
  // advances all lanes (identical sequences, computed blockwise).
  uniform_fast_ = true;
  for (const auto& s : lane_stims_) {
    if (s->uniform_rng() == nullptr) {
      uniform_fast_ = false;
      break;
    }
  }
  if (uniform_fast_) {
    // The draw buffer is padded to whole 8-lane transposition groups;
    // padding lanes never draw, so their words stay zero and never
    // contaminate real lanes' planes.
    lanes_padded_ = (lanes_ + 7) & ~std::size_t{7};
    rng_soa_.assign(4 * lanes_padded_, 0);
    for (unsigned l = 0; l < lanes_; ++l) {
      const std::array<std::uint64_t, 4> st = lane_stims_[l]->uniform_rng()->state();
      for (unsigned i = 0; i < 4; ++i) rng_soa_[i * lanes_padded_ + l] = st[i];
    }
    pi_masks_.clear();
    for (CellId pi : nl_.primary_inputs()) {
      pi_masks_.push_back(width_mask(nl_.cell(pi).width));
    }
    uniform_buf_.assign(pi_masks_.size() * lanes_padded_, 0);
  } else {
    rng_soa_.clear();
    pi_masks_.clear();
    uniform_buf_.clear();
  }
}

void ParallelSimulator::enable_batch_stats(std::uint32_t batch_frames) {
  batch_.emplace(stats_, nl_.num_nets(), batch_frames);
}

namespace {

/// Transpose an 8x8 bit matrix packed row-major into a word (element
/// (i,j) = bit 8i+j) with three delta-swap rounds (Hacker's Delight).
inline std::uint64_t transpose8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x = x ^ t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x = x ^ t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x = x ^ t ^ (t << 28);
  return x;
}

inline std::uint64_t rotl64(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// N consecutive xoshiro256** draws per lane, all lanes in one pass:
/// draw p of lane l lands in out[p * stride + l], masked to masks[p].
/// N is a template parameter so the draw loop fully unrolls and the
/// lane loop body is straight-line — the compiler then vectorizes over
/// lanes with the four state words held in registers across all N
/// draws, instead of spilling them between draws. The multiplies by 5
/// and 9 are written as shift-adds so the loop vectorizes on ISAs
/// without a 64-bit vector multiply.
template <unsigned N>
void uniform_draws(std::uint64_t* __restrict s0, std::uint64_t* __restrict s1,
                   std::uint64_t* __restrict s2, std::uint64_t* __restrict s3, std::size_t n,
                   const std::uint64_t* __restrict masks, std::uint64_t* __restrict out,
                   std::size_t stride) {
  for (std::size_t l = 0; l < n; ++l) {
    std::uint64_t a = s0[l];
    std::uint64_t b = s1[l];
    std::uint64_t c = s2[l];
    std::uint64_t d = s3[l];
    for (unsigned p = 0; p < N; ++p) {
      const std::uint64_t b5 = (b << 2) + b;
      const std::uint64_t r7 = rotl64(b5, 7);
      out[p * stride + l] = ((r7 << 3) + r7) & masks[p];
      const std::uint64_t t = b << 17;
      c ^= a;
      d ^= b;
      b ^= c;
      a ^= d;
      c ^= t;
      d = rotl64(d, 45);
    }
    s0[l] = a;
    s1[l] = b;
    s2[l] = c;
    s3[l] = d;
  }
}

}  // namespace

template <unsigned W>
void ParallelSimulator::drive_inputs() {
  // Per lane, each stimulus sees the (PI, cycle) call sequence of a
  // plain cycle-by-cycle simulation — the transposition into planes is
  // pure bookkeeping, so lane l replays the run of stream l exactly.
  // The words are gathered first and transposed in 8x8 bit blocks: the
  // blocked form runs in O(width) per 8 lanes instead of O(width) per
  // lane, and drive_inputs is the one per-lane (non-amortized) stage of
  // the macro-cycle, so it is the engine's throughput ceiling.
  std::uint64_t tmp[kMaxLanes];
  const unsigned groups = (lanes_ + 7) / 8;
  if (uniform_fast_) {
    // All this cycle's draws for all PIs in one pass over the SoA
    // state arrays, in chunks of up to 8 draws per pass — within a
    // chunk the lane states live in registers, so the per-draw cost is
    // the xoshiro arithmetic plus one store. Per lane, draw order is
    // PI insertion order, the same call sequence as above.
    std::uint64_t* const s0 = rng_soa_.data();
    std::uint64_t* const s1 = s0 + lanes_padded_;
    std::uint64_t* const s2 = s1 + lanes_padded_;
    std::uint64_t* const s3 = s2 + lanes_padded_;
    // Only the active lanes draw; padding entries of the buffer stay 0.
    const std::size_t n = lanes_;
    const std::size_t stride = lanes_padded_;
    std::size_t p = 0;
    while (p < pi_masks_.size()) {
      const std::uint64_t* const masks = pi_masks_.data() + p;
      std::uint64_t* const out = uniform_buf_.data() + p * stride;
      // Chunks are capped at 4 draws: larger unrolled bodies exceed the
      // vector register budget and the compiler spills the lane states,
      // costing more than the chunking saves.
      switch (std::min<std::size_t>(pi_masks_.size() - p, 4)) {
        case 4: uniform_draws<4>(s0, s1, s2, s3, n, masks, out, stride); p += 4; break;
        case 3: uniform_draws<3>(s0, s1, s2, s3, n, masks, out, stride); p += 3; break;
        case 2: uniform_draws<2>(s0, s1, s2, s3, n, masks, out, stride); p += 2; break;
        default: uniform_draws<1>(s0, s1, s2, s3, n, masks, out, stride); p += 1; break;
      }
    }
  }
  std::size_t pi_index = 0;
  for (CellId pi : nl_.primary_inputs()) {
    const Cell& c = nl_.cell(pi);
    const unsigned width = c.width;
    const std::size_t off = plane_off_[c.out.value()] * W;
    const std::uint64_t* lane_words;
    if (uniform_fast_) {
      lane_words = uniform_buf_.data() + pi_index * lanes_padded_;
    } else {
      const std::uint64_t wmask = width_mask(width);
      for (unsigned l = 0; l < lanes_; ++l) {
        tmp[l] = lane_stims_[l]->next(nl_, pi, cycle_) & wmask;
      }
      for (unsigned l = lanes_; l < 8 * groups; ++l) tmp[l] = 0;
      lane_words = tmp;
    }
    ++pi_index;
    for (unsigned b = 0; b < width * W; ++b) planes_[off + b] = 0;
    // The transposition is phrased as three flat loops — truncating
    // byte pack, delta-swap rounds over all groups, byte scatter — so
    // each vectorizes over the group dimension instead of handling one
    // 8-lane group at a time. Group g's word lands in byte g of the
    // destination plane's word array; that byte view of a little-endian
    // word array IS the lane order (group g = word g/8, byte g%8), so
    // the scatter is contiguous byte stores. Big-endian hosts take the
    // shift-or scatter instead.
    std::uint64_t xg[kMaxLanes / 8];
    for (unsigned cb = 0; cb * 8 < width; ++cb) {  // byte column cb: bits 8cb..8cb+7
      std::uint8_t* const pb = reinterpret_cast<std::uint8_t*>(xg);
      for (unsigned l = 0; l < 8 * groups; ++l) {
        pb[l] = static_cast<std::uint8_t>(lane_words[l] >> (8 * cb));
      }
      // byte j of xg[g] now holds bit 8cb+j of lanes 8g..8g+7
      for (unsigned g = 0; g < groups; ++g) xg[g] = transpose8x8(xg[g]);
      const unsigned bits = std::min(8u, width - 8 * cb);
      for (unsigned j = 0; j < bits; ++j) {
        std::uint64_t* const dst = &planes_[off + (8 * cb + j) * W];
        if constexpr (std::endian::native == std::endian::little) {
          std::uint8_t* const out = reinterpret_cast<std::uint8_t*>(dst);
          for (unsigned g = 0; g < groups; ++g) {
            out[g] = static_cast<std::uint8_t>(xg[g] >> (8 * j));
          }
        } else {
          for (unsigned g = 0; g < groups; ++g) {
            dst[g / 8] |= ((xg[g] >> (8 * j)) & 0xFF) << (8 * (g % 8));
          }
        }
      }
    }
  }
}

void ParallelSimulator::set_cycle_sink(CycleSink* sink) {
  sink_ = sink;
  frame_values_.assign(sink_ && sink_->wants_values() ? nl_.num_nets() : 0, 0);
}

template <unsigned W>
void ParallelSimulator::record_stats() {
  const bool framed = batch_ || sink_ != nullptr;
  // The first cycle has no previous one: no net toggles, and the frame
  // keeps its zeros.
  if (has_prev_) {
    for (std::size_t n = 0; n < net_width_.size(); ++n) {
      const std::size_t off = plane_off_[n] * W;
      const std::size_t end = off + net_width_[n] * W;
      std::uint64_t total = 0;
      for (std::size_t i = off; i < end; ++i) total += popcount64(planes_[i] ^ prev_[i]);
      stats_.toggles[n] += total;
      if (framed) frame_toggles_[n] = static_cast<std::uint32_t>(total);
    }
  }
  for (std::size_t n = 0; n < frame_values_.size(); ++n) {
    frame_values_[n] = gather_lane(&planes_[plane_off_[n] * W], net_width_[n], W, 0);
  }
  for (std::size_t p = 0; p < probe_plane_.size(); ++p) {
    const std::size_t off = probe_plane_[p] * W;
    std::uint64_t pc_true = 0;
    std::uint64_t pc_tog = 0;
    for (unsigned k = 0; k < W; ++k) {
      pc_true += popcount64(planes_[off + k]);
      pc_tog += popcount64(planes_[off + k] ^ prev_[off + k]);
    }
    stats_.probe_true[p] += pc_true;
    if (has_prev_) stats_.probe_toggles[p] += pc_tog;
    if (framed) frame_probe_true_[p] = static_cast<std::uint32_t>(pc_true);
  }
  if (framed) {
    const CycleFrame frame{cycle_, lanes_, frame_toggles_, frame_probe_true_,
                           frame_values_.empty() ? nullptr : frame_values_.data()};
    if (batch_) batch_->on_cycle(nl_, frame);
    if (sink_) sink_->on_cycle(nl_, frame);
  }
  stats_.cycles += lanes_;
}

template <unsigned W>
void ParallelSimulator::advance(std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) {
    // Every plane is rewritten below (PO cells drive no net; each probe
    // gate writes its own slot), so last cycle's values are retired
    // into prev_ by pointer swap rather than a copy; planes_ keeps the
    // final values once run() returns.
    if (has_prev_) std::swap(prev_, planes_);
    drive_inputs<W>();
    eval_plane_program(program_, planes_.data(), state_.data(), lane_mask_.data());
    record_stats<W>();
    clock_plane_program(program_, planes_.data(), state_.data());
    has_prev_ = true;
    ++cycle_;
  }
}

void ParallelSimulator::run(std::uint64_t cycles) { simulate(cycles, nullptr); }

void ParallelSimulator::simulate(std::uint64_t cycles, const std::function<void()>& poll) {
  OPISO_REQUIRE(lane_stims_.size() == lanes_,
                "ParallelSimulator::run: set_stimulus() must be called first");
  OPISO_SPAN("sim.run");
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t toggles_start =
      std::accumulate(stats_.toggles.begin(), stats_.toggles.end(), std::uint64_t{0});
  for (std::uint64_t left = cycles; left > 0;) {
    const std::uint64_t chunk = poll ? std::min(left, kWarmupPollCycles) : left;
    if (words_ == 1) {
      advance<1>(chunk);
    } else {
      advance<kPlaneWords>(chunk);
    }
    left -= chunk;
    if (poll) poll();
  }
  // Coarse-boundary metrics flush (once per run(), never per cycle).
  const std::uint64_t run_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           wall_start)
          .count());
  const std::uint64_t lane_cycles = cycles * lanes_;
  const std::uint64_t toggles_end =
      std::accumulate(stats_.toggles.begin(), stats_.toggles.end(), std::uint64_t{0});
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("sim.runs").add(1);
  m.counter("sim.cycles").add(lane_cycles);
  m.counter("sim.toggles").add(toggles_end - toggles_start);
  m.counter("sim.run_ns").add(run_ns);
  if (run_ns > 0) {
    m.gauge("sim.cycles_per_sec")
        .set(static_cast<double>(lane_cycles) * 1e9 / static_cast<double>(run_ns));
  }
}

std::uint64_t ParallelSimulator::lane_value(NetId net, unsigned lane) const {
  OPISO_REQUIRE(net.valid() && net.value() < nl_.num_nets(), "lane_value: invalid net");
  OPISO_REQUIRE(lane < lanes_, "lane_value: lane out of range");
  return gather_lane(&planes_[plane_off_[net.value()] * words_], net_width_[net.value()], words_,
                     lane);
}

}  // namespace opiso
