"""The simulated Figure 1, pinned.

``data/figure1_pin.json`` holds every bar of
:meth:`~repro.core.engine.SpmvEngine.simulate_ladder` for three
structurally different matrices (block-structured FEM-Cant, power-law
Webbase, wide LP) on all five machines, at scale 0.02 and seed 0,
without the OSKI baselines. The simulator is deterministic, so the
comparison is exact: any change to the tuner, the simulator, the
machine models or the matrix generators that moves a bar of the
paper's central figure fails here and must refresh the file on
purpose::

    PYTHONPATH=src python -c "import json; from repro import *; \\
    print(json.dumps({m: {n: {k: r.gflops for k, r in \\
    SpmvEngine(get_machine(m)).simulate_ladder(generate(n, scale=0.02, \\
    seed=0)).items()} for n in ['FEM-Cant', 'Webbase', 'LP']} \\
    for m in machine_names()}, indent=1))" > tests/data/figure1_pin.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import SpmvEngine
from repro.machines import get_machine, machine_names
from repro.matrices import generate

PIN = json.loads(
    (Path(__file__).parent / "data" / "figure1_pin.json").read_text()
)
SCALE = 0.02


def test_pin_covers_every_machine():
    assert list(PIN) == machine_names()


@pytest.mark.parametrize("machine_name", list(PIN))
def test_figure1_bars_match_pin(machine_name):
    engine = SpmvEngine(get_machine(machine_name))
    for matrix, pinned in PIN[machine_name].items():
        coo = generate(matrix, scale=SCALE, seed=0)
        bars = {label: res.gflops
                for label, res in engine.simulate_ladder(coo).items()}
        assert list(bars) == list(pinned), (machine_name, matrix)
        assert bars == pinned, (machine_name, matrix)
