import ast
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ifmsim
from ifmsim.evolution import (
    CycleConfig,
    closed_form_no_particle,
    closed_form_perfect_absorber,
    initial_state,
    kraus_operators,
    step_collapse,
)
from ifmsim.operators import absorption, rotator_power, switching_angle
from ifmsim.oracle import TrajectoryConfig, trajectory_keys
from ifmsim.sweep import sweep_absorption, sweep_cycles, sweep_grid

PUBLIC_NAMES = [
    "Basis",
    "CSV_HEADER",
    "CheckResult",
    "CycleConfig",
    "EigenDecomposition",
    "NOT_B",
    "OutcomeEstimate",
    "ParticleModel",
    "Probabilities",
    "SweepRecord",
    "TrajectoryConfig",
    "__version__",
    "absorption",
    "closed_form_no_particle",
    "closed_form_perfect_absorber",
    "compare",
    "estimate",
    "evolve",
    "format_real",
    "initial_state",
    "kraus_operators",
    "probabilities",
    "projector",
    "render_report",
    "rotator2",
    "rotator3",
    "rotator_eigen",
    "rotator_power",
    "run_checks",
    "run_single",
    "sample_trajectory",
    "step_coherent",
    "step_collapse",
    "sweep_absorption",
    "sweep_cycles",
    "sweep_grid",
    "switching_angle",
    "to_csv",
    "trajectory_key",
    "trajectory_keys",
    "write_csv",
]


def test_public_names_are_pinned():
    assert sorted(ifmsim.__all__) == PUBLIC_NAMES
    assert all(hasattr(ifmsim, name) for name in PUBLIC_NAMES)


_CYCLE = CycleConfig(model="coherent", a=0.5, n=3)

# (entry point taking the count, the message it reports for a bad count)
COUNT_SITES = {
    "CycleConfig.n": (
        lambda v: CycleConfig(model="coherent", a=0.5, n=v),
        "cycle count n must be a positive integer",
    ),
    "TrajectoryConfig.trajectories": (
        lambda v: TrajectoryConfig(cycle=_CYCLE, trajectories=v),
        "trajectories must be a positive integer",
    ),
    "trajectory_keys.count": (lambda v: trajectory_keys(0, v), "count must be >= 1"),
    "closed_form_no_particle.n": (
        lambda v: closed_form_no_particle(0.3, v),
        "n must be a non-negative integer",
    ),
    "closed_form_perfect_absorber.n": (
        lambda v: closed_form_perfect_absorber(0.3, v),
        "n must be a non-negative integer",
    ),
    "rotator_power.n": (lambda v: rotator_power(0.3, v), "n must be a non-negative integer"),
    "switching_angle.n": (lambda v: switching_angle(v), "cycle count must be a positive integer"),
    "sweep_cycles.n_max": (lambda v: sweep_cycles(0.5, v, "coherent"), "n_max must be >= 1"),
    "sweep_absorption.n": (
        lambda v: sweep_absorption(v, 3, "coherent"),
        "cycle count n must be a positive integer",
    ),
    "sweep_grid.n_max": (lambda v: sweep_grid(v, 3, "coherent"), "n_max must be >= 1"),
    "sweep_absorption.steps": (lambda v: sweep_absorption(3, v, "coherent"), "steps must be >= 2"),
    "sweep_grid.steps": (lambda v: sweep_grid(3, v, "coherent"), "steps must be >= 2"),
}


@pytest.mark.parametrize("value", [2.5, math.inf, math.nan], ids=["2.5", "inf", "nan"])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_non_integer_count_raises_value_error(site, value):
    call, message = COUNT_SITES[site]
    with pytest.raises(ValueError, match=re.escape(message)):
        call(value)


# The count sites whose count enters float arithmetic, and so has a largest value.
FLOAT_COUNT_SITES = [
    "closed_form_no_particle.n",
    "closed_form_perfect_absorber.n",
    "rotator_power.n",
    "switching_angle.n",
]


# The float count sites that also take an array of counts.
ARRAY_COUNT_SITES = ["rotator_power.n", "switching_angle.n"]


@pytest.mark.parametrize("site", FLOAT_COUNT_SITES)
def test_count_beyond_the_float_range_names_the_limit(site):
    call, message = COUNT_SITES[site]
    limit = f"{message} no larger than 1.7976931348623157e+308"
    with pytest.raises(ValueError, match="^" + re.escape(limit) + "$"):
        call(10**400)
    call(int(sys.float_info.max))  # the limit itself is accepted
    if site in ARRAY_COUNT_SITES:
        # a list, or numpy's object array of Python ints, names the same limit
        for counts in ([3, 10**400], np.array([3, 10**400]), [[10**400]]):
            with pytest.raises(ValueError, match="^" + re.escape(limit) + "$"):
                call(counts)
        call([3, int(sys.float_info.max)])


@pytest.mark.parametrize("site", ARRAY_COUNT_SITES)
def test_array_count_that_rounds_to_the_largest_float_names_the_limit(site):
    # ints above the largest float and below 2**1024 - 2**970 round down to
    # it when converted, so the array's element is compared as an int
    call, message = COUNT_SITES[site]
    limit = f"{message} no larger than 1.7976931348623157e+308"
    above = int(sys.float_info.max) + 1
    for count in (above, 2**1024 - 2**970 - 1):
        assert float(count) == sys.float_info.max
        for counts in ([3, count], np.array([3, count]), [[count]]):
            with pytest.raises(ValueError, match="^" + re.escape(limit) + "$"):
                call(counts)
    call(np.array([3, sys.float_info.max]))  # the limit itself, as a float


# (entry point taking the absorption probability a)
PROBABILITY_SITES = {
    "absorption": absorption,
    "CycleConfig.a": lambda v: CycleConfig(model="coherent", a=v, n=3),
    "step_collapse.a": lambda v: step_collapse(initial_state(), 0.3, v),
    "kraus_operators.a": lambda v: kraus_operators("collapse", 0.3, v),
    "kraus_operators.absent.a": lambda v: kraus_operators("absent", 0.3, v),
    "kraus_operators.array.a": lambda v: kraus_operators("coherent", 0.3, np.array([0.5, v, 2.0])),
    "sweep_cycles.a": lambda v: sweep_cycles(v, 3, "coherent"),
}


@pytest.mark.parametrize(
    "value", [-0.01, 1.01, math.nan, math.inf], ids=["-0.01", "1.01", "nan", "inf"]
)
@pytest.mark.parametrize("site", sorted(PROBABILITY_SITES))
def test_out_of_range_probability_raises_value_error(site, value):
    message = f"absorption probability must be in [0, 1], got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        PROBABILITY_SITES[site](value)


def test_every_private_top_level_name_has_a_caller():
    # top-level names, and the methods of top-level classes as Class.method
    trees = {p.name: ast.parse(p.read_text()) for p in Path(ifmsim.__file__).parent.glob("*.py")}
    defined, used = [], set()
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((file, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(file, t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (file, f"{node.name}.{m.name}")
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)

    def private(name):
        return name.startswith("_") and not name.startswith("__")

    names = [(f, n) for f, n in defined if private(n.rpartition(".")[2])]
    assert any("." in n for f, n in names)  # the scan sees methods
    assert [(f, n) for f, n in names if n.rpartition(".")[2] not in used] == []


# Modules that no import of the package or its CLI needs: each one loaded at
# start-up is paid by every command, `ifmsim run --cycles 3` included.
UNNEEDED_AT_STARTUP = ("numpy.random", "scipy", "mpmath", "hypothesis")


def test_import_loads_no_unneeded_module():
    code = (
        "import json, sys\n"
        "import ifmsim, ifmsim.cli\n"
        f"print(json.dumps([m for m in {UNNEEDED_AT_STARTUP!r} if m in sys.modules]))\n"
    )
    src = str(Path(ifmsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(result.stdout) == []


def test_run_checks_loads_no_numpy_random():
    # verify samples from the oracle's counter-based streams, so the whole
    # suite runs without numpy's random package
    code = "import sys\nimport ifmsim\nifmsim.run_checks()\nprint('numpy.random' in sys.modules)\n"
    src = str(Path(ifmsim.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "False\n"
