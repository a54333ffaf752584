"""Seeded generators for the benchmark's input designs (RTL text).

Every generator is a pure function of (seed, shape): the same seed gives
byte-identical text. The seed varies structure that the flows are
sensitive to (operator kinds, operand and cross-link choices, enable and
select sharing, coefficients) while the shape (cell counts, widths,
inputs) stays fixed, so the amount of work per input is nearly the same
for every seed.
"""

import random


def _rng(seed, tag):
    # String seeds are hashed with SHA-512 by random.Random, which is
    # stable across Python versions and platforms.
    return random.Random(f"opiso-perfbench:{seed}:{tag}")


def ladder_rung(seed, tag, slices, lanes, stages, width, enables, selects):
    """A rung of the scale ladder: `slices` datapath slices side by side.

    Each slice takes `lanes` data inputs through `stages` register
    stages. In every stage each lane applies an add/sub (the seed picks
    the operator and whether the second operand is cross-linked from the
    neighbouring slice's registers); odd lanes chain on the even lane
    before them and pass through a select mux, and every register loads
    under an enable drawn from a shared pool. A last add/sub combines
    two lanes per slice. Every operand of a later stage is a register, so
    each stage's blocks stay small and Algorithm 1 takes the same number
    of rounds for every seed. There are no multipliers: their BDDs would
    make the per-run equivalence proof of the isolated rung too slow.
    """
    r = _rng(seed, tag)
    out = [f"# generated: {tag} seed {seed}", f"design {tag}"]
    for e in range(enables):
        out.append(f"input en{e}")
    for s in range(selects):
        out.append(f"input sel{s}")
    prev = []
    for i in range(slices):
        lane_nets = []
        for lane in range(lanes):
            name = f"x{i}_{lane}"
            out.append(f"input {name}:{width}")
            lane_nets.append(name)
        prev.append(lane_nets)
    for st in range(1, stages + 1):
        cur = []
        for i in range(slices):
            regs = []
            for lane in range(lanes):
                if lane % 2 == 1:
                    a = f"a{st}_{i}_{lane - 1}"
                else:
                    a = prev[i][lane]
                if r.random() < 0.5:
                    b = prev[(i + 1) % slices][r.randrange(lanes)]
                else:
                    b = prev[i][(lane + 1 + r.randrange(lanes - 1)) % lanes]
                op = r.choice("+-")
                w = f"a{st}_{i}_{lane}"
                out.append(f"wire {w} = {a} {op} {b}")
                if lane % 2 == 1:
                    m = f"m{st}_{i}_{lane}"
                    out.append(f"wire {m} = sel{r.randrange(selects)} ? {w} : {prev[i][lane]}")
                    w = m
                q = f"r{st}_{i}_{lane}"
                out.append(f"reg {q}:{width} = {w} when en{r.randrange(enables)}")
                regs.append(q)
            cur.append(regs)
        prev = cur
    for i in range(slices):
        a, b = r.sample(range(lanes), 2)
        out.append(f"wire p_{i} = {prev[i][a]} {r.choice('+-')} {prev[i][b]}")
        out.append(f"reg q_{i}:{width} = p_{i} when en{r.randrange(enables)}")
        out.append(f"output o_{i} = q_{i}")
        for lane in range(lanes):
            if lane not in (a, b):
                out.append(f"output o_{i}_{lane} = {prev[i][lane]}")
    return "\n".join(out) + "\n"


def fir(seed, tag, width, coef_pools, accumulate=False, shuffle=True):
    """A FIR over one `width`-bit input with a power-down enable on the
    output register: one tap per entry of `coef_pools`, whose coefficient
    the seed draws from that pool (with `shuffle`, the drawn coefficients
    are then shuffled across the taps). With `accumulate` the output
    register is a MAC accumulator (acc + y), which deepens the sequential
    state."""
    r = _rng(seed, tag)
    taps = len(coef_pools)
    coefs = [r.choice(pool) for pool in coef_pools]
    if shuffle:
        r.shuffle(coefs)
    out = [f"# generated: {tag} seed {seed}", f"design {tag}",
           f"input x:{width}", "input enable", "const one:1 = 1"]
    for k, c in enumerate(coefs):
        out.append(f"const c{k}:{width} = {c}")
    taps_nets = ["x"]
    for k in range(1, taps):
        out.append(f"reg d{k}:{width} = {taps_nets[-1]} when one")
        taps_nets.append(f"d{k}")
    terms = []
    for k in range(taps):
        out.append(f"wire p{k} = {taps_nets[k]} * c{k}")
        terms.append(f"p{k}")
    level = 0
    while len(terms) > 1:
        nxt = []
        for j in range(0, len(terms) - 1, 2):
            name = f"s{level}_{j // 2}" if len(terms) > 2 else "y"
            out.append(f"wire {name} = {terms[j]} + {terms[j + 1]}")
            nxt.append(name)
        if len(terms) % 2:
            nxt.append(terms[-1])
        terms = nxt
        level += 1
    y = terms[0]
    acc_w = 2 * width
    if accumulate:
        out.append(f"wire acc_next = acc + {y}")
        out.append(f"reg acc:{acc_w} = acc_next when enable")
    else:
        out.append(f"reg acc:{acc_w} = {y} when enable")
    out.append("output out = acc")
    return "\n".join(out) + "\n"
