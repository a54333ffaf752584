#include "reference_simulator.hpp"

#include <algorithm>
#include <bit>

#include "netlist/traversal.hpp"
#include "sim/cycle_trace.hpp"
#include "util/error.hpp"

namespace opiso {

namespace {
std::uint64_t net_mask(unsigned width) {
  return width >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << width) - 1);
}

/// Evaluate one cell on the settled `value` array. `state` is the
/// cell's held word — read for Reg outputs, updated level-sensitively
/// for Latch/IsoLatch. Returns the unmasked output word.
std::uint64_t eval_cell(const Cell& c, const std::uint64_t* value, std::uint64_t& state) {
  auto in = [&](int p) { return value[c.ins[static_cast<std::size_t>(p)].value()]; };
  switch (c.kind) {
    case CellKind::PrimaryInput:  // driven by stimulus; skipped by the caller
    case CellKind::PrimaryOutput:
      return 0;
    case CellKind::Constant:
      return c.param;
    case CellKind::Reg:
      return state;
    case CellKind::Add:
      return in(0) + in(1);
    case CellKind::Sub:
      return in(0) - in(1);
    case CellKind::Mul:
      return in(0) * in(1);
    case CellKind::Eq:
      return in(0) == in(1) ? 1 : 0;
    case CellKind::Lt:
      return in(0) < in(1) ? 1 : 0;
    case CellKind::Shl:
      return c.param >= 64 ? 0 : in(0) << c.param;
    case CellKind::Shr:
      return c.param >= 64 ? 0 : in(0) >> c.param;
    case CellKind::Not:
      return ~in(0);
    case CellKind::Buf:
      return in(0);
    case CellKind::And:
      return in(0) & in(1);
    case CellKind::Or:
      return in(0) | in(1);
    case CellKind::Xor:
      return in(0) ^ in(1);
    case CellKind::Nand:
      return ~(in(0) & in(1));
    case CellKind::Nor:
      return ~(in(0) | in(1));
    case CellKind::Xnor:
      return ~(in(0) ^ in(1));
    case CellKind::Mux2:
      return (in(0) & 1) ? in(2) : in(1);
    case CellKind::Latch:
      // Transparent while EN = 1; holds otherwise (level-sensitive).
      if (in(1) & 1) state = in(0);
      return state;
    case CellKind::IsoAnd:
      return (in(1) & 1) ? in(0) : 0;
    case CellKind::IsoOr:
      return (in(1) & 1) ? in(0) : ~std::uint64_t{0};
    case CellKind::IsoLatch:
      if (in(1) & 1) state = in(0);
      return state;
  }
  return 0;
}
}  // namespace

Simulator::Simulator(const Netlist& nl, const ExprPool* pool, const NetVarMap* vars)
    : nl_(nl), pool_(pool), vars_(vars) {
  nl_.validate();
  order_ = topological_order(nl_);
  value_.assign(nl_.num_nets(), 0);
  prev_.assign(nl_.num_nets(), 0);
  state_.assign(nl_.num_cells(), 0);
  mask_.resize(nl_.num_nets());
  for (NetId id : nl_.net_ids()) mask_[id.value()] = net_mask(nl_.net(id).width);
  stats_.toggles.assign(nl_.num_nets(), 0);
  frame_toggles_.assign(nl_.num_nets(), 0);
}

std::size_t Simulator::add_probe(ExprRef expr) {
  OPISO_REQUIRE(pool_ != nullptr && vars_ != nullptr,
                "Simulator: probes require an ExprPool and NetVarMap");
  // Every variable in the probe must be bound to a net of this netlist.
  for (BoolVar v : pool_->support(expr)) {
    NetId net = vars_->net_of(v);
    OPISO_REQUIRE(net.value() < nl_.num_nets(), "probe variable bound to foreign net");
  }
  probes_.push_back(expr);
  prev_probe_.push_back(false);
  stats_.probe_true.push_back(0);
  stats_.probe_toggles.push_back(0);
  frame_probe_true_.push_back(0);
  return probes_.size() - 1;
}

void Simulator::settle_combinational() {
  for (CellId id : order_) {
    const Cell& c = nl_.cell(id);
    if (c.kind == CellKind::PrimaryInput || c.kind == CellKind::PrimaryOutput) continue;
    value_[c.out.value()] = eval_cell(c, value_.data(), state_[id.value()]) & mask_[c.out.value()];
  }
}

void Simulator::clock_registers() {
  // All registers sample concurrently on the edge: reads of D happen on
  // the settled values, so a simple second pass is race-free.
  for (CellId id : order_) {
    const Cell& c = nl_.cell(id);
    if (c.kind != CellKind::Reg) continue;
    if (value_[c.ins[1].value()] & 1) state_[id.value()] = value_[c.ins[0].value()];
  }
}

void Simulator::set_cycle_sink(CycleSink* sink) { sink_ = sink; }

void Simulator::record_stats() {
  if (has_prev_) {
    for (std::size_t n = 0; n < value_.size(); ++n) {
      const auto pc = static_cast<std::uint32_t>(std::popcount(value_[n] ^ prev_[n]));
      stats_.toggles[n] += pc;
      frame_toggles_[n] = pc;
    }
  }
  for (std::size_t p = 0; p < probes_.size(); ++p) {
    const bool hold = pool_->eval(probes_[p], [&](BoolVar v) {
      return (value_[vars_->net_of(v).value()] & 1) != 0;
    });
    if (hold) ++stats_.probe_true[p];
    if (has_prev_ && hold != prev_probe_[p]) ++stats_.probe_toggles[p];
    prev_probe_[p] = hold;
    frame_probe_true_[p] = hold ? 1 : 0;
  }
  stats_.windows.add_frame(frame_toggles_, frame_probe_true_);
  if (sink_) {
    sink_->on_cycle(nl_, CycleFrame{cycle_, 1, frame_toggles_, frame_probe_true_, value_.data()});
  }
  ++stats_.cycles;
}

void Simulator::run(Stimulus& stim, std::uint64_t cycles) {
  for (std::uint64_t i = 0; i < cycles; ++i) {
    for (CellId pi : nl_.primary_inputs()) {
      const Cell& c = nl_.cell(pi);
      value_[c.out.value()] = stim.next(nl_, pi, cycle_) & mask_[c.out.value()];
    }
    settle_combinational();
    record_stats();
    clock_registers();
    prev_ = value_;
    has_prev_ = true;
    ++cycle_;
  }
}

void Simulator::reset_stats() { stats_.reset(); }

std::uint64_t Simulator::net_value(NetId net) const {
  OPISO_REQUIRE(net.valid() && net.value() < value_.size(), "net_value: invalid net");
  return value_[net.value()];
}

}  // namespace opiso
