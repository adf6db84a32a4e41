"""Tests of the benchmark's own machinery: input generation, statistics,
self-time arithmetic, output checks and fork isolation."""

import json
import math
from pathlib import Path

import pytest

import metrics
import run
import tracing
import workloads
from forking import run_cli
from gentlegp import families

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = workloads.build(workload, 7, tmp_path / "a")
    again = workloads.build(workload, 7, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [c.label for c in first] == [c.label for c in again]
    other = workloads.build(workload, 8, tmp_path / "c")
    assert len(other) == len(first)
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(40, 0, -1)]
    value, pct, n = metrics.tail(values)
    assert n == 40
    assert sum(v > value for v in values) == metrics.TAIL_BEYOND
    assert pct == pytest.approx(75.0)
    assert metrics.tail(values[:11])[0] == min(values[:11])
    with pytest.raises(ValueError):
        metrics.tail(values[:10])


def test_scaling_fit_recovers_a_known_slope():
    xs = [10, 20, 40, 80, 160]
    assert metrics.slope(xs, [3 * x ** 2.5 for x in xs]) == pytest.approx(2.5)
    noisy = [0.002 * x ** 1.5 * (1.01 if i % 2 else 0.99)
             for i, x in enumerate(xs)]
    points = {"steep": list(zip(xs, [x ** 2.8 for x in xs])),
              "flat": list(zip(xs, noisy)),
              "short": [(1, 1.0), (2, 1000.0)]}
    assert metrics.largest_slope(points) == pytest.approx(2.8)
    assert math.isclose(metrics.slope(xs, noisy), 1.5, abs_tol=0.05)


def test_self_time_subtracts_child_spans():
    # root [0,100) > a [10,40) > b [20,30); root > c [50,60) > tracer [52,55)
    start = [0, 10, 20, 50, 52]
    end = [100, 40, 30, 60, 55]
    parent = [-1, 0, 1, 0, 3]
    assert tracing.self_times(start, end, parent) == [60, 20, 10, 7, 3]
    totals = tracing.Totals()
    totals.add({"names": ["<tracer>", "cli.run", "reps.hom_dim",
                          "linalg.Matrix.rank", "reps.hom_basis"],
                "fid": [1, 2, 3, 4, tracing.TRACER_FID],
                "start": start, "end": end, "parent": parent,
                "counters": {"elim.cells": 6, "elim.nnz": 3}})
    found = totals.metrics()
    assert found["cli.self_s"][0] == pytest.approx(60e-9)
    assert found["reps.hom.calls"][0] == 2
    assert found["reps.hom.self_s"][0] == pytest.approx(27e-9)
    assert found["linalg.elim.self_s"][0] == pytest.approx(10e-9)
    assert found["linalg.elim.nnz_share"][0] == 0.5


def test_counters_match_recorded_and_closed_forms():
    ev = families.eight_vertex_example()
    assert workloads.count_paths(ev) == 64
    assert workloads.count_strings(ev, 8) == 247
    assert workloads.critical_lengths(ev) == (3, 3)
    assert workloads.critical_lengths(workloads.two_cycles()) == (3, 3)
    for family, n in (("A_n", 30), ("lambda_n", 7), ("I_n", 5)):
        p, dim, lengths, _ = workloads.FAMILIES[family](n)
        assert workloads.count_paths(p) == dim
        assert workloads.critical_lengths(p) == lengths


def test_polygon_inner_triangles_are_counted_from_the_geometry():
    import random

    t, inner = workloads.polygon_triangulation(random.Random(3), 40)
    assert len(t.triangles) == 38 and len(t.internal_arcs) == 37
    assert inner == sum(all(s.startswith("x") for s in tri)
                        for tri in t.triangles)


def _cmd(tmp_path, workload, kind):
    cmds = workloads.build(workload, 1, tmp_path)
    return next(c for c in cmds if c.kind == kind)


def test_checks_reject_wrong_outputs(tmp_path):
    cmd = _cmd(tmp_path, "oracle-sweep", "oracle")
    out = run_cli(cmd.argv)
    payload = json.loads(out.stdout)
    assert workloads.check(cmd, payload) is None
    payload["certificates"][0]["verdict"] = "inconclusive-to-bound"
    assert "inconclusive" in workloads.check(cmd, payload)
    payload["certificates"].pop()
    assert "certificates" in workloads.check(cmd, payload)
    assert "malformed" in workloads.check(cmd, {"agreement": True})

    dim = _cmd(tmp_path / "r", "resolve-ladder", "dim")
    assert workloads.check(dim, {"dimension": dim.expect["dimension"],
                                 "injective_dimension": 5}) is not None


def test_fork_isolation_starts_every_command_with_empty_caches(tmp_path):
    from gentlegp import reps

    class CacheProbe:
        def install(self):
            self.before = reps.projective_rep.cache_info().currsize

        def collect(self):
            return self.before, reps.projective_rep.cache_info().currsize

    cmd = _cmd(tmp_path, "resolve-ladder", "dim")
    first = run_cli(cmd.argv, CacheProbe())
    second = run_cli(cmd.argv, CacheProbe())
    assert first.code == second.code == 0
    assert first.trace[0] == second.trace[0] == 0
    assert first.trace[1] > 0 and second.trace[1] > 0
    assert reps.projective_rep.cache_info().currsize == 0


class BindingProbe(tracing.Tracer):
    """A tracer that also reports whether imported copies were wrapped."""

    def collect(self):
        from gentlegp import cli, gentle, gp, linalg, reps, surface

        data = super().collect()
        copies = [(gp.projective_rep, reps.projective_rep),
                  (surface.singularity_descriptor, gp.singularity_descriptor),
                  (surface.validate_gentle, gentle.validate_gentle),
                  (cli.parse_field, linalg.parse_field)]
        data["copies_wrapped"] = all(
            copy is orig and hasattr(copy, "__wrapped__")
            for copy, orig in copies)
        return data


def test_tracer_wraps_imported_copies(tmp_path):
    cmd = _cmd(tmp_path, "oracle-sweep", "oracle")
    out = run_cli(cmd.argv, BindingProbe())
    assert out.code == 0
    assert out.trace["copies_wrapped"]
    totals = tracing.Totals()
    totals.add(out.trace)
    assert totals.calls["gentle.GentleAlgebra.__hash__"] > 0
    assert totals.calls["cli.run"] == totals.calls["cli.cmd_oracle"] == 1
    found = totals.metrics()
    assert found["gp.oracle.calls"][0] == cmd.expect["certificates"]
    assert found["linalg.elim.calls"][0] > 0
    assert 0 < found["reps.cache_hit_ratio"][0] < 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    layer = tracing.Totals().metrics()
    layer["trace.overhead"] = (0.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in layer.items()}
