"""Repo invariant lint: AST-enforced codebase contracts.

Four contracts the type system cannot express, each with a stable
``REPRO0xx`` code (see :mod:`repro.analysis.diagnostics`):

* **REPRO001** — no bare ``except:`` handlers anywhere in the package
  (they swallow ``KeyboardInterrupt``/``SystemExit`` and hide bugs).
* **REPRO002** — every exception class (name ending in ``Error`` or
  ``Exception``) derives from an error root: at least one base whose name
  also ends in ``Error``/``Exception`` (builtin roots such as
  ``RuntimeError``/``ValueError`` qualify).  This keeps each module's
  errors catchable through its documented root.
* **REPRO003** — no floating point in the core kernel hot paths
  (:data:`HOT_PATH_MODULES`): no float literals, ``float()`` calls, or
  true division.  The GMX kernels are exact integer/bit machines; a float
  sneaking in silently breaks bit-for-bit reproducibility.
* **REPRO004** — every default-constructible :class:`repro.align.base.Aligner`
  subclass must pickle round-trip, because :mod:`repro.align.parallel`
  ships aligners to worker processes.  The same contract covers the
  kernel backend layer: both backends round-trip,
  and every backend-capable aligner round-trips *per backend* with the
  backend choice surviving the trip.
* **REPRO005** — tests and benchmarks must use seeded RNGs: no unseeded
  ``random.Random()`` and no calls through the module-level global RNG
  (``random.randint`` etc.).  Every suite in this repo is a determinism
  claim; an unseeded RNG turns failures into unreproducible flakes.

The syntactic checks (REPRO001/2/3/5) parse source ASTs and import
nothing; REPRO004 imports the aligner modules and pickles real instances.
REPRO005 runs only against a source checkout (it scans ``tests/`` and
``benchmarks/`` beside ``src/``), so installed-package lints skip it.
"""

from __future__ import annotations

import ast
import inspect
import pickle
from pathlib import Path
from typing import List, Optional

from .diagnostics import Diagnostic, Severity

#: Package-relative modules whose function bodies must stay float-free.
HOT_PATH_MODULES = (
    "core/tile.py",
    "core/delta.py",
    "core/bitvec.py",
    "core/isa.py",
    "core/traceback.py",
    "align/backends.py",
)

#: Suffixes identifying an exception class by name.
_ERROR_SUFFIXES = ("Error", "Exception")

#: ``random.<name>`` calls that draw from (or reseed) the interpreter-wide
#: global RNG — hidden shared state between tests.
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "seed", "random", "randint", "randrange", "randbytes", "getrandbits",
        "choice", "choices", "shuffle", "sample", "uniform", "triangular",
        "gauss", "normalvariate", "expovariate", "betavariate",
        "gammavariate", "paretovariate", "vonmisesvariate", "weibullvariate",
    }
)


def package_root() -> Path:
    """Filesystem root of the installed ``repro`` package."""
    return Path(__file__).resolve().parent.parent


def repo_root() -> Path:
    """Repository root when running from a source checkout (``src`` layout)."""
    return package_root().parent.parent


def lint_repo(
    root: Optional[Path] = None, *, pickle_check: bool = True
) -> List[Diagnostic]:
    """Run every repo invariant check; returns all findings.

    Args:
        root: package directory to walk (defaults to the installed
            ``repro`` package).
        pickle_check: also run the dynamic aligner-picklability probe
            (REPRO004); disable when linting a synthetic tree.
    """
    root = Path(root) if root is not None else package_root()
    diagnostics: List[Diagnostic] = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        diagnostics.extend(_check_bare_except(tree, relative))
        diagnostics.extend(_check_exception_roots(tree, relative))
        if relative in HOT_PATH_MODULES:
            diagnostics.extend(_check_no_floats(tree, relative))
    if pickle_check:
        diagnostics.extend(check_aligner_picklability())
    if root == package_root():
        diagnostics.extend(lint_test_determinism())
    return diagnostics


def lint_test_determinism(root: Optional[Path] = None) -> List[Diagnostic]:
    """REPRO005: every RNG in ``tests/`` and ``benchmarks/`` is seeded.

    Scans the suite directories beside ``src/`` for unseeded
    ``random.Random()`` constructions and calls through the module-level
    global RNG.  Returns no findings when the directories do not exist
    (installed package, synthetic lint trees).
    """
    root = Path(root) if root is not None else repo_root()
    findings: List[Diagnostic] = []
    for directory in ("tests", "benchmarks"):
        base = root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            findings.extend(_check_seeded_rng(tree, relative))
    return findings


def _check_seeded_rng(tree: ast.AST, relative: str) -> List[Diagnostic]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        offense = None
        hint = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "random"
        ):
            if func.attr == "Random" and not node.args and not node.keywords:
                offense = "unseeded random.Random() in a test suite"
                hint = (
                    "pass an explicit seed (random.Random(0xSEED)) so "
                    "failures replay bit-identically"
                )
            elif func.attr in _GLOBAL_RNG_FUNCS:
                offense = (
                    f"random.{func.attr}() draws from the interpreter-wide "
                    f"global RNG"
                )
                hint = (
                    "construct a local random.Random(seed) instead of "
                    "sharing hidden global state between tests"
                )
        elif (
            isinstance(func, ast.Name)
            and func.id == "Random"
            and not node.args
            and not node.keywords
        ):
            offense = "unseeded Random() in a test suite"
            hint = (
                "pass an explicit seed (Random(0xSEED)) so failures "
                "replay bit-identically"
            )
        if offense is None:
            continue
        findings.append(
            Diagnostic(
                code="REPRO005",
                severity=Severity.ERROR,
                message=offense,
                hint=hint,
                where=f"{relative}:{node.lineno}",
            )
        )
    return findings


def _where(relative: str, node: ast.AST) -> str:
    return f"src/repro/{relative}:{node.lineno}"


def _check_bare_except(tree: ast.AST, relative: str) -> List[Diagnostic]:
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(
                Diagnostic(
                    code="REPRO001",
                    severity=Severity.ERROR,
                    message="bare `except:` swallows every exception "
                    "including KeyboardInterrupt",
                    hint="catch the narrowest exception type that can occur",
                    where=_where(relative, node),
                )
            )
    return findings


def _base_name(base: ast.expr) -> str:
    """Last dotted component of a base-class expression ('' if dynamic)."""
    if isinstance(base, ast.Attribute):
        return base.attr
    if isinstance(base, ast.Name):
        return base.id
    return ""


def _check_exception_roots(tree: ast.AST, relative: str) -> List[Diagnostic]:
    findings = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not node.name.endswith(_ERROR_SUFFIXES):
            continue
        bases = [_base_name(base) for base in node.bases]
        if any(name.endswith(_ERROR_SUFFIXES) for name in bases):
            continue
        findings.append(
            Diagnostic(
                code="REPRO002",
                severity=Severity.ERROR,
                message=f"exception class {node.name} does not derive from "
                f"an error root (bases: {', '.join(bases) or 'none'})",
                hint="derive from the module's *Error root (or a builtin "
                "*Error) so callers can catch the documented hierarchy",
                where=_where(relative, node),
            )
        )
    return findings


def _check_no_floats(tree: ast.AST, relative: str) -> List[Diagnostic]:
    findings = []
    for node in ast.walk(tree):
        offense = None
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            offense = f"float literal {node.value!r}"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            offense = "true division (`/`)"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            offense = "float() conversion"
        if offense is None:
            continue
        findings.append(
            Diagnostic(
                code="REPRO003",
                severity=Severity.ERROR,
                message=f"{offense} in kernel hot path {relative}",
                hint="the GMX kernels are exact integer machines; use `//` "
                "and integer arithmetic, or move the code out of the hot "
                "path modules",
                where=_where(relative, node),
            )
        )
    return findings


def check_aligner_picklability() -> List[Diagnostic]:
    """REPRO004: pickle round-trip every default-constructible Aligner.

    Subclasses whose constructor requires arguments (e.g. the generic
    windowed driver, which needs an inner aligner) are exercised through
    their concrete default-constructible subclasses instead.

    Aligners whose constructor takes ``backend=`` (the GMX aligners) are
    additionally built once per backend and round-tripped,
    asserting the restored instance still carries the same backend — the
    property the parallel engine relies on when a backend-configured
    aligner ships to a pool worker.  Backend singletons themselves
    round-trip too.
    """
    import repro.align as align_pkg
    import repro.baselines as baselines_pkg
    from repro.align.backends import backend_names, get_backend
    from repro.align.base import Aligner

    del align_pkg, baselines_pkg  # imported for their subclass side effects

    findings = []

    def report(where: str, exc: Exception) -> None:
        findings.append(
            Diagnostic(
                code="REPRO004",
                severity=Severity.ERROR,
                message=f"{where} does not pickle round-trip: {exc}",
                hint="align.parallel ships aligners (and their kernel "
                "backends) to worker processes; keep constructor state "
                "picklable (no lambdas, open files, or local classes)",
                where=where,
            )
        )

    backends = backend_names()
    for backend_name in backends:
        backend = get_backend(backend_name)
        try:
            restored = pickle.loads(pickle.dumps(backend))
            if type(restored) is not type(backend):
                raise pickle.PicklingError(
                    f"round-trip produced {type(restored).__name__}"
                )
        except Exception as exc:  # noqa: BLE001 — report, never crash the lint
            report(f"backend {backend_name!r}", exc)

    seen = set()
    stack = list(Aligner.__subclasses__())
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        stack.extend(cls.__subclasses__())
        try:
            instance = cls()
        except TypeError:
            continue  # requires constructor arguments; covered via subclasses
        try:
            restored = pickle.loads(pickle.dumps(instance))
            if type(restored) is not cls:
                raise pickle.PicklingError(
                    f"round-trip produced {type(restored).__name__}"
                )
        except Exception as exc:  # noqa: BLE001 — report, never crash the lint
            report(f"{cls.__module__}.{cls.__name__}", exc)
            continue
        if "backend" not in inspect.signature(cls).parameters:
            continue
        for backend_name in backends:
            where = (
                f"{cls.__module__}.{cls.__name__}(backend={backend_name!r})"
            )
            try:
                configured = cls(backend=backend_name)
                restored = pickle.loads(pickle.dumps(configured))
                restored_backend = getattr(restored, "backend", None)
                if getattr(restored_backend, "name", None) != backend_name:
                    raise pickle.PicklingError(
                        f"backend became "
                        f"{getattr(restored_backend, 'name', None)!r}"
                    )
            except Exception as exc:  # noqa: BLE001
                report(where, exc)
    return findings
