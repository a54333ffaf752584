#!/usr/bin/env python3
"""Flag fuzz of the opiso CLI over every (command, flag, value) triple.

Reads each command's operands and flags from the usage text that `opiso`
prints without arguments, then runs every flag a command lists with each
hostile value below on a small base invocation of that command (builtin
fig1, a real run report of fig1 for a <*.json> operand, --cycles 256,
--seeds 1, plus the switch a flag listed after "with SWITCH:" needs)
under a timeout, each case in its own scratch directory. A case fails
when it hangs, dies on a signal, exits with anything but 0, 1, 2 or 3,
reports error[internal], or prints a sanitizer report (in a sanitizer
build, which exits 1 on a finding).

For every command it also checks that a flag the command does not list,
a flag listed after "with SWITCH:" given without that switch, and, where
the operand count is fixed, an extra operand are usage errors naming the
offender (exit 2), and `explain` of the document `{}` exits 1 with a
diagnostic that is not error[internal].

usage: flag_fuzz.py path/to/opiso
"""

import concurrent.futures
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

VALUES = ["0", "-1", "18446744073709551616", "nan", "abc", ""]
TIMEOUT_S = 10
JOBS = 4


def parse_usage(text):
    """Returns (commands, flags, common): commands maps a name to
    (operands, {flag it lists: the switch the flag needs, or None});
    flags maps every flag to whether it takes a value; common lists the
    flags every command takes."""
    commands, flags, common = {}, {}, []
    section, current, switch = None, None, None
    for line in text.splitlines():
        if line.startswith("commands"):
            section = "commands"
        elif line.startswith("flags:"):
            section = "flags"
        elif line.startswith("common flags"):
            section = "common"
        elif section == "commands" and (m := re.match(r"^ {6}(?:with (\S+): )?(-.*)", line)):
            switch = m.group(1) or switch  # a wrapped line keeps its switch
            commands[current][1].update(dict.fromkeys(m.group(2).split(), switch))
        elif section == "commands" and (m := re.match(r"^  (\S+) (.+?)  ", line)):
            current, switch = m.group(1), None
            commands[current] = (m.group(2).split(), {})
        elif section in ("flags", "common") and (m := re.match(r"^  (-\S+)( \S+)?  ", line)):
            flags[m.group(1)] = m.group(2) is not None
            if section == "common":
                common.append(m.group(1))
    return commands, flags, common


def run_case(opiso, argv, cwd):
    """(exit code or None on timeout, stderr) of one invocation."""
    try:
        p = subprocess.run([opiso] + argv, cwd=cwd, stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, timeout=TIMEOUT_S)
        return p.returncode, p.stderr.decode(errors="replace")
    except subprocess.TimeoutExpired:
        return None, ""


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    opiso = os.path.abspath(sys.argv[1])

    usage = subprocess.run([opiso], stderr=subprocess.PIPE).stderr.decode()
    commands, flags, common = parse_usage(usage)
    if not commands or not flags:
        sys.exit("flag_fuzz: could not read the commands and flags from the usage text")

    work = tempfile.mkdtemp(prefix="opiso_flag_fuzz_")
    report = os.path.join(work, "report.json")
    rc, err = run_case(opiso, ["isolate", "fig1", "--cycles", "256", "--metrics", report], work)
    if rc != 0:
        sys.exit(f"flag_fuzz: could not write the base run report: exit {rc}: {err[-300:]}")
    empty = os.path.join(work, "empty.json")
    with open(empty, "w") as f:
        f.write("{}\n")
    vcd = os.path.join(work, "wave.vcd")
    rc, err = run_case(opiso, ["wave", "fig1", "--cycles", "256", "--vcd", vcd], work)
    if rc != 0:
        sys.exit(f"flag_fuzz: could not write the base VCD: exit {rc}: {err[-300:]}")

    def operand(token):
        if not token.startswith("<"):
            return token  # a literal word, such as report's "diff"
        return report if ".json" in token else vcd if ".vcd" in token else "fig1"

    # (argv, expected exit codes or None for "0-3", text stderr must name)
    cases = [(["explain", empty], {1}, None)]
    for name, (operands, listed) in commands.items():
        base = [name] + [operand(t) for t in operands]
        if "--cycles" in listed:
            base += ["--cycles", "256"]
        if "--seeds" in listed:
            base += ["--seeds", "1"]
        # A switch takes no value, so there the value lands as an operand.
        cases += [(base + ([switch] if switch else []) + [flag, value], None, None)
                  for flag, switch in list(listed.items()) + [(f, None) for f in common]
                  for value in VALUES]
        unlisted = next(f for f in flags if f not in listed and f not in common)
        cases.append((base + [unlisted] + (["1"] if flags[unlisted] else []), {2}, unlisted))
        # A gated flag that takes no value: a value could fail to parse
        # before the switch check runs.
        if gated := next((f for f, s in listed.items() if s and not flags[f]), None):
            cases.append((base + [gated], {2}, f"{gated} only with {listed[gated]}"))
        if not operands[-1].endswith("..."):
            cases.append((base + [operand(operands[-1])], {2}, "unexpected operand"))

    def check(i_case):
        i, (argv, want, named) = i_case
        cwd = os.path.join(work, f"case{i}")
        os.mkdir(cwd)
        rc, err = run_case(opiso, argv, cwd)
        shown = "opiso " + " ".join(repr(a) if not a or " " in a else a for a in argv)
        if rc is None:
            return f"{shown}: no exit within {TIMEOUT_S} s"
        if rc not in (want or {0, 1, 2, 3}):
            return f"{shown}: exit {rc}: {err.strip()[-300:]}"
        if "internal" in err:
            return f"{shown}: reached error[internal]: {err.strip()[-300:]}"
        if "Sanitizer" in err or "runtime error:" in err:
            return f"{shown}: sanitizer report: {err.strip()[:600]}"
        if named and named not in (err.strip().splitlines() or [""])[-1]:
            return f"{shown}: the usage error does not name {named}"
        return None

    start = time.monotonic()
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        failures = [f for f in pool.map(check, enumerate(cases)) if f]
    for f in failures:
        print("FAIL", f)
    print(f"flag_fuzz: {len(cases)} cases over {len(commands)} commands and {len(flags)} flags, "
          f"{len(failures)} failed, {time.monotonic() - start:.1f} s ({JOBS} jobs)")
    if failures:
        sys.exit(f"flag_fuzz: the failed cases' directories are under {work}")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
