"""Every rqtlab name the benchmark harness in perfbench/ reaches still resolves.

perfbench/child.py wraps the functions its LAYERS table names, and the
harness scripts call the package as ``rq.<name>`` or import names from its
modules.  A name deleted from the library would otherwise break only a
traced benchmark run or the oracle script, which no other test runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import rqtlab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _resolve(dotted: str):
    """The object a dotted rqtlab name stands for, importing submodules on the way."""
    obj, path = rqtlab, "rqtlab"
    for part in dotted.split(".")[1:]:
        path += f".{part}"
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
    return obj


def _reached_names():
    """(file, dotted name) of each rqtlab name a perfbench script imports or reads."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {}  # a local name bound to rqtlab or one of its modules -> its dotted name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or "rqtlab", a.name if a.asname else "rqtlab")
                             for a in node.names if a.name.split(".")[0] == "rqtlab")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rqtlab":
                yield from ((path.name, f"{node.module}.{a.name}") for a in node.names)
        for node in ast.walk(tree):
            chain, root = [], node
            while isinstance(root, ast.Attribute):
                chain.append(root.attr)
                root = root.value
            if chain and isinstance(root, ast.Name) and root.id in bound:
                yield path.name, ".".join([bound[root.id], *reversed(chain)])


REACHED = sorted(set(_reached_names()))


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves():
    layers = _load_child().LAYERS
    assert len(layers) >= 20
    for _, _, module, attr in layers:
        assert callable(getattr(getattr(rqtlab, module), attr)), f"{module}.{attr}"


@pytest.mark.parametrize("where, dotted", REACHED)
def test_every_name_the_harness_reads_resolves(where, dotted):
    _resolve(dotted)


def test_the_scan_finds_the_names_the_harness_calls():
    found = {dotted for _, dotted in REACHED}
    assert {f"rqtlab.{name}" for name in (
        "m_to_fm", "trajectory_ode", "dual_params", "constant_allowed_position",
        "kg_closed_constant", "nodes_constant", "Scenario", "Species", "Potential",
        "MobiusParams")} <= found
    assert {"rqtlab.cli.main", "rqtlab.cli.DEFAULT_AB", "rqtlab.kg"} <= found


def test_a_missing_name_does_not_resolve():
    with pytest.raises((AttributeError, ImportError)):
        _resolve("rqtlab.fm_to_m")
