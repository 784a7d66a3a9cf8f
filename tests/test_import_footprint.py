"""Importing the alignment paths needs neither NumPy nor the static analyzer.

NumPy is needed only by the gap-affine baseline's score kernels (and the
experiment figures that call them), and the batch engines read only the
sanitizer's runtime flag.  Each check runs in a fresh interpreter whose
``import numpy`` fails, as on a host without it.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Prepended to each child's code: every ``import numpy`` raises.  A
#: meta-path finder, not ``sys.modules["numpy"] = None``: code that tests
#: ``"numpy" in sys.modules`` (hypothesis does) would then find ``None``.
BLOCK_NUMPY = """
import sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, BlockNumpy())
"""


def run_without_numpy(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, "-c", BLOCK_NUMPY + code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_alignment_paths_import_without_numpy_or_the_analyzer():
    child = run_without_numpy(
        """
import repro.cli, repro.resilience, repro.serve, repro.stream

loaded = [
    name for name in (
        "numpy",
        "repro.analysis.sanitizer.reachability",
    )
    if name in sys.modules
]
print("loaded:", loaded)
"""
    )
    assert child.returncode == 0, child.stderr
    assert "loaded: []" in child.stdout


def test_dist_imports_no_serve_module():
    """The dist node and coordinator take the aligner fingerprint and the
    shard checksum from the align layer, not from the serving stack."""
    child = run_without_numpy(
        """
import repro.dist

print("serve:", sorted(name for name in sys.modules if name.startswith("repro.serve")))
"""
    )
    assert child.returncode == 0, child.stderr
    assert "serve: []" in child.stdout


def test_dist_imports_no_sim_module():
    """The coordinator cuts the batch engines' plain shards: no part of
    the dist package needs the cost model or another simulator module."""
    child = run_without_numpy(
        """
import repro.dist

print("sim:", sorted(name for name in sys.modules if name.startswith("repro.sim")))
"""
    )
    assert child.returncode == 0, child.stderr
    assert "sim: []" in child.stdout


def test_repro_help_runs_without_numpy():
    child = run_without_numpy(
        "import runpy; runpy.run_module('repro', run_name='__main__')", "--help"
    )
    assert child.returncode == 0, child.stderr
    assert "usage:" in child.stdout


def test_lint_pickle_probe_reaches_every_baseline():
    """``repro lint``'s REPRO004 probe round-trips each baseline aligner.

    Run as CI's lint job runs it: a fresh interpreter without NumPy, where
    only the imports of :mod:`repro.analysis.repolint` load the
    ``Aligner`` subclasses that the probe walks.
    """
    child = run_without_numpy(
        """
import pickle

dumps = pickle.dumps
probed = set()


def spy(obj, *args, **kwargs):
    probed.add(type(obj).__name__)
    return dumps(obj, *args, **kwargs)


pickle.dumps = spy
from repro.analysis.repolint import check_aligner_picklability

print("findings:", check_aligner_picklability())
print("probed:", " ".join(sorted(probed)))
"""
    )
    assert child.returncode == 0, child.stderr
    assert "findings: []" in child.stdout
    probed = set(child.stdout.split("probed:")[1].split())
    baselines = importlib.import_module("repro.baselines")
    aligners = {name for name in baselines.__all__ if name.endswith("Aligner")}
    assert {"AffineAligner", "WfaAligner"} <= aligners
    assert aligners <= probed, sorted(aligners - probed)


LAZY_PACKAGES = ("repro.analysis", "repro.analysis.sanitizer")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        module.no_such_name  # noqa: B018


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_type_checking_imports_match_the_export_map(package):
    """The names type checkers see are exactly the ones ``__all__`` lists."""
    module = importlib.import_module(package)
    tree = ast.parse(Path(module.__file__).read_text())
    static = [
        alias.asname
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
        for statement in node.body
        for alias in statement.names
    ]
    assert sorted(static) == module.__all__
