"""gentlegp benchmark: drives the CLI entry point over seeded workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Run from the root of a checkout.  Each command runs in a fresh fork of a
parent that has imported gentlegp and never runs a command itself.  A run
makes round(``--seconds`` / 10) whole passes over the workload's commands
and checks every output.  With ``--trace 0`` the last line is
a JSON object with the end-to-end metrics, with ``--trace 1`` with the
per-layer metrics of a traced run.  ``--workload all`` (the default) runs
every workload and prints a table instead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

RUN_LIMIT_S = 150      # no command starts or keeps running past this
PASS_SECONDS = 10      # one pass takes 7-9 s on the development host
REF_INTERVAL_S = 0.4   # a reference child after this much command time
REF_NOMINAL_S = 0.030  # wall time of a reference child on that host
SETUP_SAMPLES = 15

END_TO_END = {  # name: (unit, better)
    "setup_s": ("s", "lower"),
    "cmds_per_s": ("1/s", "higher"),
    "cmds_per_s.q": ("1/s", "higher"),
    "cmds_per_s.f101": ("1/s", "higher"),
    "cmd_p50_ms": ("ms", "lower"),
    "cmd_tail_ms": ("ms", "lower"),
    "scaling_exp": ("exponent", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# printed, not gated: modules_per_s exists on oracle-sweep only, and
# fail_ratio is 0 whenever nothing fails
REPORTED = {
    "modules_per_s": ("1/s", "higher"),
    "fail_ratio": ("ratio", "lower"),
}
# families whose sizes form the ladder of the scaling fit
LADDERS = {"oracle-sweep": ("lambda_n",),
           "resolve-ladder": ("A_n", "lambda_n"),
           "combinatorial-ladder": ("A_n", "lambda_n", "I_n", "polygon")}

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gentlegp, gentlegp.cli
gentlegp.cli.build_parser()
print(time.perf_counter() - t0)
"""


def use_checkout_sources():
    """Import gentlegp from this checkout's src/, and nothing else."""
    if not (SRC / "gentlegp" / "__init__.py").is_file():
        raise RuntimeError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import gentlegp

    if Path(gentlegp.__file__).resolve().parent != SRC / "gentlegp":
        raise RuntimeError(f"imported gentlegp from {gentlegp.__file__}")


def setup_sample():
    """Seconds a fresh interpreter takes to import gentlegp and build the
    CLI parser."""
    done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout)


def reference_work():
    """Fixed pure-Python work of the kinds the program's hot paths do:
    fraction arithmetic, dense elimination over list-of-list rows, and
    tuple-keyed dicts.  Its wall time in a forked child measures how fast
    the host runs right now; it never changes, so a change to the program
    cannot move it."""
    acc = Fraction(0)
    for i in range(1, 2000):
        acc += Fraction(i % 7, i % 11 + 1)
        if acc.denominator > 1000:
            acc = Fraction(acc.numerator % 97, acc.denominator % 89 + 1)
    n = 28
    rows = [[Fraction((i * 7 + j * 3) % 5 - 2) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [inv * x for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    seen = {}
    for i in range(8000):
        seen[(i % 997, i, str(i % 31))] = [i, i + 1]
    return sum(v[0] + k[0] for k, v in seen.items()) and 0


class Run:
    """Outcomes of whole passes over one workload's commands."""

    def __init__(self, cmds, seed):
        self.cmds = cmds
        self.rng = random.Random(seed)
        self.passes = []       # per pass: list of Outcome, in cmds order
        self.failures = []     # (command label, reason)
        self.refs = []         # wall time of each reference child
        self.setup = []        # set-up samples
        self.t0 = time.perf_counter()

    def one_pass(self, totals=None, setup_samples=0):
        """Run every command once, in an order shuffled from the seed.
        With ``totals`` every command is traced into it; untraced passes
        interleave reference children and ``setup_samples`` evenly spaced
        set-up samples."""
        from forking import Outcome, run_cli, run_forked
        from tracing import Tracer
        from workloads import check

        n = len(self.cmds)
        order = list(range(n))
        self.rng.shuffle(order)
        setup_at = {round(j * n / setup_samples) for j in range(setup_samples)}
        outcomes = [None] * n
        since_ref = REF_INTERVAL_S
        for k, i in enumerate(order):
            if totals is None and since_ref >= REF_INTERVAL_S:
                self.refs.append(run_forked(reference_work).wall_s)
                since_ref = 0.0
            if k in setup_at:
                self.setup.append(setup_sample())
            cmd = self.cmds[i]
            left = self.t0 + RUN_LIMIT_S - time.perf_counter()
            if left <= 0:
                out = Outcome(None, "", "not run: run time limit", 0.0, 0.0)
            else:
                out = run_cli(cmd.argv, totals and Tracer(), timeout_s=left)
            if out.trace is not None:
                totals.add(out.trace)
                out.trace = None
            outcomes[i] = out
            since_ref += out.wall_s
            reason = self.verdict(cmd, out, check)
            if reason is not None:
                self.failures.append((cmd.label, reason))
        self.passes.append(outcomes)

    @staticmethod
    def verdict(cmd, out, check):
        if out.code is None:
            return out.error or "no result"
        if out.code != 0:
            return f"exit {out.code}: {out.stdout.strip()[:200]}"
        try:
            payload = json.loads(out.stdout)
        except ValueError:
            return "stdout is not JSON"
        return check(cmd, payload)

    @property
    def attempted(self):
        return sum(len(p) for p in self.passes)

    def ran(self):
        """(command, outcome) for every command that ran to completion."""
        return [(c, o) for p in self.passes for c, o in zip(self.cmds, p)
                if o.code is not None]

    def median_walls(self):
        """Per command, the median wall time over passes (commands that
        never completed are left out)."""
        out = {}
        for i, cmd in enumerate(self.cmds):
            walls = [p[i].wall_s for p in self.passes if p[i].code is not None]
            if walls:
                out[cmd] = statistics.median(walls)
        return out


def end_to_end(run, workload):
    """Metrics as {name: raw value} and notes.  Times are raw here; the
    caller scales them by the host speed."""
    from metrics import largest_slope, tail

    ran = run.ran()
    metrics = {"setup_s": statistics.median(run.setup)}
    walls = sum(o.wall_s for _, o in ran)
    metrics["cmds_per_s"] = len(ran) / walls
    for fld in ("q", "f101"):
        sub = [o.wall_s for c, o in ran if c.field == fld]
        metrics[f"cmds_per_s.{fld}"] = len(sub) / sum(sub)
    ms = [o.wall_s * 1e3 for _, o in ran]
    metrics["cmd_p50_ms"] = statistics.median(ms)
    metrics["cmd_tail_ms"], pct, n = tail(ms)
    points = {}
    for cmd, wall in run.median_walls().items():
        if cmd.family in LADDERS[workload]:
            points.setdefault((cmd.kind, cmd.family, cmd.field), []).append(
                (cmd.size, wall))
    metrics["scaling_exp"] = largest_slope(points)
    metrics["peak_rss_mb"] = max(o.maxrss_mb for _, o in ran)
    notes = {"setup_s": f"median of {len(run.setup)}",
             "cmd_tail_ms": f"p{pct:.1f} of {n} command runs"}
    oracle = [o for c, o in ran if c.kind == "oracle"]
    if oracle:
        modules = sum(_certificates(o) for o in oracle)
        metrics["modules_per_s"] = modules / sum(o.wall_s for o in oracle)
        notes["modules_per_s"] = f"{modules} certificates"
    metrics["fail_ratio"] = len(run.failures) / run.attempted
    notes["fail_ratio"] = f"{len(run.failures)} of {run.attempted} commands"
    return metrics, notes


def _certificates(out):
    try:
        return len(json.loads(out.stdout)["certificates"])
    except (ValueError, KeyError, TypeError):
        return 0


def host_scaled(values, notes, refs):
    """Scale every time to the development host's speed: multiply by
    REF_NOMINAL_S over the median reference child of this run.  The host
    this runs on changes speed by up to 1.7x over tens of seconds; the
    reference children sample that speed between the commands."""
    ref = statistics.median(refs)
    speed = REF_NOMINAL_S / ref
    units = {**END_TO_END, **REPORTED}
    out = {}
    for name, value in values.items():
        unit = units[name][0]
        if unit in ("s", "ms"):
            scaled = value * speed
        elif unit == "1/s":
            scaled = value / speed
        else:
            out[name] = (value, unit)
            continue
        out[name] = (scaled, unit)
        raw = f"unscaled {value:.6g} {unit}"
        notes[name] = f"{notes[name]}; {raw}" if name in notes else raw
    notes["host_speed"] = (f"median reference child {ref * 1e3:.2f} ms of "
                           f"{len(refs)}, nominal {REF_NOMINAL_S * 1e3:.0f} ms")
    out["host_speed"] = (speed, "ratio")
    return out


def measure(workload, seed, seconds, trace):
    """Build the inputs, run the passes and return
    (metrics {name: (value, unit)}, notes, run)."""
    import workloads
    from tracing import Totals

    workdir = WORK / f"{workload}-{seed}-{int(time.time() * 1e6)}"
    try:
        cmds = workloads.build(workload, seed, workdir)
        run = Run(cmds, seed)
        if trace:
            totals = Totals()
            run.one_pass()
            run.one_pass(totals)
            base, traced = (sum(o.wall_s for o in p) for p in run.passes)
            found = totals.metrics()
            found["trace.overhead"] = (traced / base, "ratio")
            return found, {}, run
        passes = max(1, round(seconds / PASS_SECONDS))
        per_pass = -(-SETUP_SAMPLES // passes)
        for done in range(passes):
            spent = time.perf_counter() - run.t0
            if done and spent + spent / done > RUN_LIMIT_S:
                break
            run.one_pass(setup_samples=per_pass)
        values, notes = end_to_end(run, workload)
        return host_scaled(values, notes, run.refs), notes, run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(workload, metrics, notes, run):
    print(f"== {workload}: {len(run.cmds)} commands per pass, "
          f"{len(run.passes)} passes")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload:22s} {name:28s} {value:14.6g} {unit}{note}")
    for label, reason in run.failures[:20]:
        print(f"FAILED {label}: {reason.strip().splitlines()[-1]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
    except (RuntimeError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = []
    for name in names:
        print(f"== {name}: {workloads.WORKLOADS[name]}")
        metrics, notes, run = measure(name, args.seed, args.seconds,
                                      args.trace)
        report(name, metrics, notes, run)
        results.append((metrics, run))
    if len(names) == 1:
        metrics, run = results[0]
        gated = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                 if args.trace or k in END_TO_END}
        print(json.dumps({"correct": not run.failures,
                          "attempted": run.attempted,
                          "failed": len(run.failures),
                          "metrics": gated}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
