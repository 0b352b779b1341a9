"""The module attributes the benchmark wraps to time each layer
(``LAYER_CALLS`` in perfbench/worker.py) must be the ones ``curveflow run``
calls. A name moved to another module would otherwise leave its per-layer
metric empty without any error."""

import importlib.util
from pathlib import Path

import curveflow.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def layer_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the worker's own imports
    spec = importlib.util.spec_from_file_location("perfbench_worker",
                                                  PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.LAYER_CALLS


def test_every_benchmark_layer_boundary_is_called(tmp_path, monkeypatch):
    counts = {}
    for module, attr, _ in layer_calls(monkeypatch):
        key = f"{module.__name__}.{attr}"

        def counted(*args, _call=getattr(module, attr), _key=key, **kwargs):
            counts[_key] += 1
            return _call(*args, **kwargs)

        counts[key] = 0
        monkeypatch.setattr(module, attr, counted)
    code = curveflow.cli.main([
        "run", "--scenario", "sinus", "--n", "15", "--steps", "3", "--svg",
        "--diagnostics", "--format", "csv", "--out", str(tmp_path),
    ])
    assert code == 0
    assert counts
    assert [key for key, n in counts.items() if n == 0] == []
