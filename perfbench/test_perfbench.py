"""Tests of the benchmark's own machinery (not of curveflow)."""

import os
import re
import time
import types

import numpy as np
import pytest

import spans
import spec
from workloads import GAMMA_E_REF, GAMMA_RADII, WORKLOADS, make_input, physical_errors


def test_self_times_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping by 1) and
    # c [8, 12] (running past the root's end); a has child d [2, 3].
    tree = [
        [0, "root", 0.0, 10.0, -1],
        [0, "a", 1.0, 4.0, 0],
        [0, "b", 3.0, 6.0, 0],
        [0, "c", 8.0, 12.0, 0],
        [0, "d", 2.0, 3.0, 1],
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 2, 2, 3, 4, 1])
    agg = spans.totals(tree + [[1, "a", 20.0, 21.5, -1]])
    assert agg["a"] == pytest.approx({"calls": 2, "total": 4.5, "self": 3.5})


def test_tracer_wraps_restores_and_nests():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    orig_inner = mod.inner
    tracer = spans.Tracer()
    tracer.wrap(mod, "inner", "layer.inner")
    tracer.wrap(mod, "outer", "layer.outer")
    assert tracer.span("top", mod.outer, 3) == 8
    tracer.restore()
    assert mod.inner is orig_inner
    names = [(s[1], s[4]) for s in tracer.spans]
    assert names == [("top", -1), ("layer.outer", 0), ("layer.inner", 1)]
    assert all(s[2] <= s[3] for s in tracer.spans)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_seed_and_index(name):
    wl = WORKLOADS[name]
    pts, radius = make_input(wl, 7, 0)
    again, radius_again = make_input(wl, 7, 0)
    assert np.array_equal(pts, again) and radius == radius_again
    assert not np.array_equal(pts, make_input(wl, 8, 0)[0])
    assert not np.array_equal(pts, make_input(wl, 7, 1)[0])
    if wl.shape == "gamma":
        assert radius in GAMMA_RADII
        assert radius > np.sqrt(wl.eps / 2)
    else:
        assert radius is None


def test_every_gamma_radius_has_a_reference():
    assert set(GAMMA_E_REF) == set(GAMMA_RADII)
    # every untraced run gets the same mix of loop sizes
    assert WORKLOADS["gamma_loop"].timed_inputs % len(GAMMA_RADII) == 0


def test_physical_checks_flag_wrong_final_states():
    seg, gam = WORKLOADS["segment_fine"], WORKLOADS["gamma_loop"]
    assert physical_errors(seg, None, 1.0, 1.0 + 1e-7, 0) == []
    assert physical_errors(seg, None, 1.0, 1.01, 0)
    r = GAMMA_RADII[0]
    assert physical_errors(gam, r, GAMMA_E_REF[r], 0.0, 1) == []
    assert len(physical_errors(gam, r, GAMMA_E_REF[r] + 1e-3, 0.0, 2)) == 2


def test_metric_names_and_units_are_well_formed():
    metrics = spec.BENCH["end_to_end"] + spec.BENCH["per_layer"]
    names = [m["name"] for m in metrics + spec.BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    assert spec.END_TO_END["setup_s"]["unit"] == "s"
    assert spec.END_TO_END["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in spec.END_TO_END.values())


def test_benchmark_json_names_the_workloads():
    recorded = spec.BENCH["workloads"]
    assert [w["name"] for w in recorded] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in recorded)


def test_readme_maps_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(__file__), "README.md")) as fh:
        rows = re.findall(r"^\| `([^`]+)` \|", fh.read(), flags=re.M)
    mapped = [name for name in rows if name not in WORKLOADS]
    assert mapped == list(spec.PER_LAYER)


class FakeBench:
    """Stands in for worker.Bench: input i takes 1 + i seconds and i of its
    ten steps fail to converge."""

    def __init__(self, k):
        self.wl = types.SimpleNamespace(timed_inputs=k)
        self.calls = []

    def run(self, index):
        self.calls.append(index)
        time.sleep(0.002)
        return {"index": index, "wall": 1.0 + index, "steps": 10, "unconverged": index}

    def prune(self):
        pass

    def check(self):
        return 0.0


@pytest.mark.parametrize("seconds", [0.0, 0.05])
def test_untraced_counts_one_pass_and_weighs_inputs_equally(seconds):
    import worker  # imports curveflow: needs src/ on the path

    bench = FakeBench(3)
    metrics, first_pass, calls = worker.untraced(bench, seconds)
    assert [r["index"] for r in first_pass] == [0, 1, 2]
    assert bench.calls == [i % 3 for i in range(calls)]
    assert calls == 3 if seconds == 0.0 else calls > 3
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["steps_per_s"] == pytest.approx(30 / 6.0)
