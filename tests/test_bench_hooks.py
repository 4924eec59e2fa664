"""The benchmark's call tracer (rwbench/tracer.py) rebinds ramwedge
functions by name; this fails when a rename would leave it counting
nothing."""

import importlib.util
from pathlib import Path

from ramwedge import cli

TRACER = Path(__file__).resolve().parents[1] / "rwbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("rwbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_scalars_and_spans_the_echelon(tmp_path):
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "all", "--n", "3", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    for name in ("scalars.mul.calls", "scalars.add.calls",
                 "scalars.truncated_inverse.calls"):
        assert tracer.counters[name] > 0, name
    assert "lattices.pi_adic_column_echelon" in {span[0] for span in tracer.spans}
