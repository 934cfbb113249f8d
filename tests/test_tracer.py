from __future__ import annotations

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs_and_counts_grid_sums(tmp_path):
    # the tracer wraps package methods by name, so a renamed method breaks it;
    # it patches classes in place, hence its own process
    commands = [
        ["mv-padic", "--p", "3", "--K", "2", "--sigma", "0,1", "--r", "4"],
        ["mv-real", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "3"],
        ["transfer-check", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
         "--vectors", "1"],
        # even r on few residues: per-offset sums by convolution
        ["transfer-check", "--k", "3", "--p", "3", "--K", "1", "--sigma", "0,0,1",
         "--r", "4", "--vectors", "1"],
        # several vectors per call: one grid, one view per vector
        ["restriction-estimate", "--p", "3", "--K", "1", "--sigma", "0,1", "--r", "4",
         "--side", "both", "--draws", "2"],
        ["corollary-ratio", "--p", "3", "--K-list", "1,2", "--sigma", "1", "--r", "4"],
    ]
    argvs = [cmd + ["--out", str(tmp_path / f"{i}.csv")]
             for i, cmd in enumerate(commands)]
    script = (
        "import json, sys\n"
        "import sparsemv.cli as cli\n"
        "from tracer import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(json.dumps(tracer.summary()))\n"
    )
    path = [str(ROOT / "src"), str(ROOT / "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        path + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=120)
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["cli.main.calls"] == len(commands)
    assert summary["meanvalue.grid_sum.calls"] > 0
    assert summary["exact.tree_sum.calls"] > 0  # the reduction entry point
    assert summary["quadrature.tensor_offsets.nodes"] > 0


def test_perfbench_counters_name_public_package_functions():
    # a deleted or renamed function is not an install error: its counter
    # would just read 0, so every counted layer.function must resolve
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = {span for *_, span in tracer.METHODS}
    names = [name for name in [*tracer.COUNTERS, *tracer.AFTER_COUNTERS]
             if name not in spans]
    assert names
    for name in names:
        layer, attr = name.split(".")
        assert layer in tracer.LAYERS, name
        module = importlib.import_module(f"sparsemv.{layer}")
        fn = getattr(module, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(fn) or hasattr(fn, "cache_info"), name
        assert fn.__module__ == module.__name__, name
