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
  // Plane path: lane l is lane l of one uniform family.
  input_keys_.clear();
  const auto* lane0 = dynamic_cast<const UniformStimulus*>(lane_stims_[0].get());
  if (lane0 == nullptr) return;
  const std::uint64_t family = lane0->lane().family;
  for (unsigned l = 0; l < lanes_; ++l) {
    const auto* u = dynamic_cast<const UniformStimulus*>(lane_stims_[l].get());
    if (u == nullptr || u->lane() != UniformLane{family, l}) return;
  }
  // Only the words that carry a lane have a stream; the block's other
  // words stay zero.
  const unsigned lane_words = (lanes_ + 63) / 64;
  std::uint64_t input = 0;
  for (CellId pi : nl_.primary_inputs()) {
    for (unsigned b = 0; b < nl_.cell(pi).width; ++b) {
      for (unsigned k = 0; k < lane_words; ++k) {
        input_keys_.push_back(uniform_stream_key(family, input, b, k));
      }
    }
    ++input;
  }
}

template <unsigned W>
void ParallelSimulator::drive_inputs() {
  const std::uint64_t* key = input_keys_.data();
  const unsigned lane_words = (lanes_ + 63) / 64;
  // A local copy: the plane stores below could alias the member, which
  // would make the compiler recompute the stream offset per word.
  const std::uint64_t cycle = cycle_;
  for (CellId pi : nl_.primary_inputs()) {
    const Cell& c = nl_.cell(pi);
    std::uint64_t* const planes = &planes_[plane_off_[c.out.value()] * W];
    if (!input_keys_.empty()) {
      // Word k of bit b is word cycle_ of its stream: bit l of it is
      // lane 64k + l's bit, as UniformStimulus::next() defines it. The
      // words past the last lane are never written: the lane mask keeps
      // them zero in planes_ and prev_ alike.
      for (unsigned b = 0; b < c.width; ++b, key += lane_words) {
        for (unsigned k = 0; k < lane_words; ++k) {
          planes[b * W + k] = uniform_word(key[k], cycle) & lane_mask_[k];
        }
      }
      continue;
    }
    // Per lane, each stimulus sees the (PI, cycle) call sequence of a
    // plain cycle-by-cycle simulation.
    const unsigned words = c.width * W;
    std::fill(planes, planes + words, 0);
    for (unsigned l = 0; l < lanes_; ++l) {
      const std::uint64_t v = lane_stims_[l]->next(nl_, pi, cycle);
      for (unsigned b = 0; b < c.width; ++b) planes[b * W + l / 64] |= ((v >> b) & 1) << (l % 64);
    }
  }
}

void ParallelSimulator::set_cycle_sink(CycleSink* sink) {
  sink_ = sink;
  frame_values_.assign(sink_ && sink_->wants_values() ? nl_.num_nets() : 0, 0);
}

template <unsigned W>
void ParallelSimulator::record_stats() {
  const bool framed = stats_.windows.enabled() || sink_ != nullptr;
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
    stats_.windows.add_frame(frame_toggles_, frame_probe_true_);
    if (sink_) {
      sink_->on_cycle(nl_, CycleFrame{cycle_, lanes_, frame_toggles_, frame_probe_true_,
                                      frame_values_.empty() ? nullptr : frame_values_.data()});
    }
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

void ParallelSimulator::run(std::uint64_t cycles, const std::function<void()>& poll) {
  OPISO_REQUIRE(lane_stims_.size() == lanes_,
                "ParallelSimulator::run: set_stimulus() must be called first");
  OPISO_SPAN("sim.run");
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t toggles_start =
      std::accumulate(stats_.toggles.begin(), stats_.toggles.end(), std::uint64_t{0});
  for (std::uint64_t left = cycles; left > 0;) {
    const std::uint64_t chunk = poll ? std::min(left, kPollCycles) : left;
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
  // One word per lane-carrying input plane word on the plane path, one
  // per next() call on the per-lane path.
  const std::uint64_t stimulus_words =
      cycles * (input_keys_.empty() ? std::uint64_t{lanes_} * nl_.primary_inputs().size()
                                    : input_keys_.size());
  const std::uint64_t toggles_end =
      std::accumulate(stats_.toggles.begin(), stats_.toggles.end(), std::uint64_t{0});
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("sim.runs").add(1);
  m.counter("sim.cycles").add(lane_cycles);
  m.counter("sim.stimulus_words").add(stimulus_words);
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
