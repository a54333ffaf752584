// Re-used core example: the paper's second motivating scenario —
// "re-used designs of which only part of the functionality is being
// used". A small ALU core supports add/sub/mul/compare behind an
// opcode-driven mux tree; the integrating design pins the opcode so the
// multiplier path is selected only rarely. Operand isolation recovers
// the power the unused modes burn.

#include <algorithm>
#include <cstdio>

#include "isolation/algorithm.hpp"
#include "netlist/netlist.hpp"

namespace {

using namespace opiso;

/// A reusable 4-function ALU: op[1:0] selects among A+B, A-B, A*B
/// (truncated) and (A<B). All functions compute every cycle; the mux
/// tree discards all but one result — the textbook isolation target.
Netlist make_alu_core(unsigned width) {
  Netlist nl("reused_alu");
  const NetId a = nl.add_input("a", width);
  const NetId b = nl.add_input("b", width);
  const NetId op0 = nl.add_input("op0", 1);
  const NetId op1 = nl.add_input("op1", 1);
  const NetId en = nl.add_input("en", 1);

  const NetId sum = nl.add_binop(CellKind::Add, "sum", a, b);
  const NetId dif = nl.add_binop(CellKind::Sub, "dif", a, b);
  const NetId prd_full = nl.add_binop(CellKind::Mul, "prd_full", a, b);
  const NetId prd = nl.add_shift(CellKind::Shr, "prd", prd_full, width);  // high half
  // Comparator widened to the datapath width through a mux against 0/1.
  const NetId cmp = nl.add_binop(CellKind::Lt, "cmp", a, b);
  const NetId zero = nl.add_const("zero", 0, width);
  const NetId one = nl.add_const("one", 1, width);
  const NetId cmp_w = nl.add_mux2("cmp_w", cmp, zero, one);

  // Two result channels, each with its own opcode bit:
  //   out_lo: op0 selects A+B or A-B;
  //   out_hi: op1 selects the multiplier's high half or the comparison.
  const NetId lo = nl.add_mux2("lo", op0, sum, dif);
  const NetId hi = nl.add_mux2("hi", op1, cmp_w, prd);  // op1 = 1 selects the multiplier
  const NetId r_lo = nl.add_reg("r_lo", lo, en);
  const NetId r_hi = nl.add_reg("r_hi", hi, en);
  nl.add_output("out_lo", r_lo);
  nl.add_output("out_hi", r_hi);
  nl.validate();
  return nl;
}

}  // namespace

int main() {
  const Netlist core = make_alu_core(8);
  std::printf("re-used ALU core: %zu cells\n\n", core.num_cells());

  // The integrating design uses the core almost exclusively in ADD mode
  // (op = 00) and enables the result registers half of the time.
  auto make_stimuli = [](double mul_mode_prob) {
    return [mul_mode_prob]() -> std::unique_ptr<Stimulus> {
      auto comp = std::make_unique<CompositeStimulus>(std::make_unique<UniformStimulus>(11));
      comp->route("op0", std::make_unique<ControlledBitStimulus>(0.05, 0.05, 12));
      // A stationary bit stream toggles at most 2*min(p, 1-p) per cycle,
      // so the rarest mode keeps its op1 bit steadier.
      const double op1_toggle = std::min(0.05, 2.0 * std::min(mul_mode_prob, 1.0 - mul_mode_prob));
      comp->route("op1",
                  std::make_unique<ControlledBitStimulus>(mul_mode_prob, op1_toggle, 13));
      comp->route("en", std::make_unique<ControlledBitStimulus>(0.5, 0.4, 14));
      return comp;
    };
  };

  std::printf("%-28s %10s %10s %9s\n", "integration scenario", "before", "after", "saved");
  for (double mul_prob : {0.02, 0.25, 0.75}) {
    IsolationOptions opt;
    opt.sim_cycles = 8192;
    const IsolationResult res =
        run_operand_isolation(core, make_stimuli(mul_prob), opt);
    char label[64];
    std::snprintf(label, sizeof label, "Pr[mul path selected]=%.2f", mul_prob);
    std::printf("%-28s %7.3f mW %7.3f mW %8.2f%%\n", label, res.power_before_mw,
                res.power_after_mw, res.power_reduction_pct());
  }
  std::printf("\nThe rarer the multiplier mode, the more of the re-used core's\n"
              "power the isolation banks recover.\n");
  return 0;
}
