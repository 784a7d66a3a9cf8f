"""Worker-reachability static analysis: the sanitizer's static side.

The parallel (:mod:`repro.align.parallel`) and resilient
(:mod:`repro.resilience.engine`) batch engines execute aligner code inside
forked/spawned worker processes, and the kernel backends run inside every
one of them.  Code reachable from those entry points lives under a
stricter contract than the rest of the package: it must not mutate shared
module state, must not arm ambient hooks without a guaranteed reset, and
must not consult wall clocks or unseeded RNGs — any of those silently
breaks the byte-identical-across-executors guarantee the conformance and
chaos suites prove.

This module builds a conservative cross-module call graph over the package
AST, computes the closure of functions reachable from the worker roots,
and checks four rules over that closure:

* **REPRO006** — writes to module-level mutable state (dict/list/set/
  Counter globals) from worker-reachable code.  Each worker holds a
  copy-on-write or re-imported copy, so such writes diverge between
  processes and are lost or duplicated on merge.
* **REPRO007** — ambient hooks (``trace_sink``/``fault_hook`` attributes,
  ``_AMBIENT_*``/recorder/metrics globals) armed *inline* rather than
  through a context manager that restores them in a ``finally``.  An
  exception between arm and disarm leaves the hook dangling for every
  later alignment in the process.
* **REPRO008** — wall-clock reads (``time.time``, ``datetime.now``, …)
  or unseeded RNG (``random.random``, bare ``random.Random()``, ``os.urandom``,
  ``uuid.uuid4``) in kernel- or worker-reachable code.  Telemetry clocks
  (``perf_counter*``, ``monotonic*``, ``sleep``, ``process_time*``) are
  exempt: they never feed a result.
* **REPRO009** — mutation of process-global registries (names matching
  ``*REGISTRY*``/``*INSTANCES*``) from worker-reachable code; a worker
  registering a backend after fork mutates a private copy the parent
  never sees.

**Call-graph resolution is conservative by name**: a call ``x.f(...)`` or
``f(...)`` links to *every* function or method named ``f`` in the scanned
tree (class-hierarchy analysis degenerated to name matching — sound for
reachability, over-approximate by design).  False positives on legitimate
sites are silenced with an inline pragma::

    _CACHE[key] = value  # dsan: allow[REPRO009] per-process singleton fill

A pragma on the finding line (or on the enclosing ``def`` line) suppresses
the listed codes; suppressed findings are still counted and reported.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..diagnostics import AnalysisError, Diagnostic, Severity
from ..repolint import _GLOBAL_RNG_FUNCS, package_root

__all__ = [
    "DEFAULT_ROOTS",
    "FunctionInfo",
    "ScanConfig",
    "ScanReport",
    "scan_package",
    "scan_tree",
]

#: Worker entry points of the repro package, as ``module.py::qualname``.
#: Kernel-backend methods are added dynamically (every ``full_matrix`` /
#: ``banded_matrix`` of a :class:`~repro.align.backends.KernelBackend`
#: subclass is a root — backends execute inside every worker).
DEFAULT_ROOTS = (
    "align/parallel.py::_align_shard",
    "resilience/engine.py::_run_attempt",
)

#: Attribute names that act as ambient hooks when assigned on any object.
#: (``isa.trace`` is deliberately absent: aligners arm it on a freshly
#: constructed per-alignment ISA instance, which is instance state.)
AMBIENT_ATTRS = frozenset({"trace_sink", "fault_hook"})

#: Wall-clock calls that are *allowed* in worker code: they only ever feed
#: telemetry (ShardTelemetry/BatchTelemetry wall times), never a result.
TELEMETRY_CLOCKS = frozenset(
    {
        "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
        "sleep", "process_time", "process_time_ns", "thread_time",
        "thread_time_ns",
    }
)

#: ``time.<name>`` calls that read the wall clock (result-affecting).
WALL_CLOCKS = frozenset({"time", "time_ns", "ctime", "localtime", "gmtime"})

#: ``datetime.<name>`` constructors that read the wall clock.
DATETIME_NOW = frozenset({"now", "utcnow", "today"})

#: Mutating method names on module-level containers.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard",
    }
)

_PRAGMA = "# dsan: allow["


def _parse_pragmas(source: str) -> Dict[int, Set[str]]:
    """``# dsan: allow[CODE,...]`` pragmas by line number (1-based)."""
    pragmas: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        marker = line.find(_PRAGMA)
        if marker < 0:
            continue
        codes = line[marker + len(_PRAGMA):]
        end = codes.find("]")
        if end < 0:
            continue
        pragmas[lineno] = {
            code.strip() for code in codes[:end].split(",") if code.strip()
        }
    return pragmas


def _is_ambient_name(name: str) -> bool:
    """Module-global names that hold ambient hook/recorder state."""
    return (
        "AMBIENT" in name
        or name.endswith("_HOOK")
        or name.endswith("_SINK")
        or name in {"ENABLED", "_RECORDER", "_METRICS"}
    )


def _is_registry_name(name: str) -> bool:
    """Module-global names that hold process-global registries."""
    upper = name.upper()
    return "REGISTRY" in upper or "INSTANCES" in upper


#: Calls whose result is a mutable container (module-level binding to one
#: of these makes the global "mutable state" for REPRO006).
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


@dataclass
class FunctionInfo:
    """One function or method discovered in the scanned tree.

    Attributes:
        qualname: ``module.py::name`` or ``module.py::Class.name``.
        module: module path relative to the scan root (posix).
        name: bare function name (the call-graph matching key).
        class_name: enclosing class (``None`` for module-level functions).
        node: the AST definition node.
        is_contextmanager: decorated with ``contextmanager`` — its arming
            assignments may be guarded by a try/finally around ``yield``.
    """

    qualname: str
    module: str
    name: str
    class_name: Optional[str]
    node: ast.AST
    is_contextmanager: bool = False


@dataclass
class _ModuleInfo:
    relative: str
    tree: ast.Module
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    module_globals: Set[str] = field(default_factory=set)
    mutable_globals: Set[str] = field(default_factory=set)
    module_aliases: Set[str] = field(default_factory=set)
    pragmas: Dict[int, Set[str]] = field(default_factory=dict)
    classes: Dict[str, List[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class ScanConfig:
    """Knobs of one reachability scan.

    Attributes:
        roots: worker entry points as ``module.py::qualname``; every one
            must exist in the tree (a rename must not silently empty the
            analysis).
        kernel_base: class name whose subclasses' ``kernel_methods`` are
            added as roots (the backend kernels); ``None`` disables.
        kernel_methods: method names treated as kernel entry points.
        where_prefix: prefix for finding locations (matches the repo
            lint's ``src/repro/`` spelling on package scans).
    """

    roots: Tuple[str, ...] = DEFAULT_ROOTS
    kernel_base: Optional[str] = "KernelBackend"
    kernel_methods: Tuple[str, ...] = ("full_matrix", "banded_matrix")
    where_prefix: str = "src/repro/"


@dataclass
class ScanReport:
    """Everything one reachability scan produced.

    Attributes:
        findings: active diagnostics (pragma-suppressed ones excluded).
        suppressed: findings silenced by ``# dsan: allow[...]`` pragmas.
        roots: resolved root qualnames (including kernel methods).
        reachable: worker-reachable function qualnames → sample call
            chain from a root (root first, callee last).
        modules / functions: tree size, for the report header.
    """

    findings: List[Diagnostic] = field(default_factory=list)
    suppressed: List[Diagnostic] = field(default_factory=list)
    roots: List[str] = field(default_factory=list)
    reachable: Dict[str, List[str]] = field(default_factory=dict)
    modules: int = 0
    functions: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "clean": self.clean,
            "modules": self.modules,
            "functions": self.functions,
            "roots": list(self.roots),
            "worker_reachable": len(self.reachable),
            "findings": [d.to_dict() for d in self.findings],
            "suppressed": [d.to_dict() for d in self.suppressed],
        }


def scan_package() -> ScanReport:
    """Scan the installed ``repro`` package with the default roots."""
    return scan_tree(package_root(), config=ScanConfig())


def scan_tree(
    root: Path, *, config: Optional[ScanConfig] = None
) -> ScanReport:
    """Run the worker-reachability analysis over a source tree.

    Args:
        root: directory whose ``**/*.py`` files form the analysis unit.
        config: roots and naming knobs; defaults to the repro package's.
    """
    config = config if config is not None else ScanConfig()
    modules = _index_tree(Path(root))
    report = ScanReport(modules=len(modules))
    functions: Dict[str, FunctionInfo] = {}
    by_name: Dict[str, List[str]] = {}
    for info in modules.values():
        for qualname, fn in info.functions.items():
            functions[qualname] = fn
            by_name.setdefault(fn.name, []).append(qualname)
    report.functions = len(functions)

    report.roots = _resolve_roots(modules, functions, config)
    edges = _call_edges(modules, functions, by_name)
    report.reachable = _reach(report.roots, edges)

    for qualname in sorted(report.reachable):
        fn = functions[qualname]
        module = modules[fn.module]
        chain = report.reachable[qualname]
        for diagnostic in _check_function(fn, module, modules, chain, config):
            allow = module.pragmas.get(
                _finding_line(diagnostic), set()
            ) | module.pragmas.get(fn.node.lineno, set())
            if diagnostic.code in allow:
                report.suppressed.append(diagnostic)
            else:
                report.findings.append(diagnostic)
    return report


def _finding_line(diagnostic: Diagnostic) -> int:
    _, _, line = diagnostic.where.rpartition(":")
    try:
        return int(line)
    except ValueError:
        return -1


def _index_tree(root: Path) -> Dict[str, _ModuleInfo]:
    modules: Dict[str, _ModuleInfo] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        info = _ModuleInfo(
            relative=relative, tree=tree, pragmas=_parse_pragmas(source)
        )
        _index_module(info)
        modules[relative] = info
    return modules


def _index_module(info: _ModuleInfo) -> None:
    for node in info.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                info.module_aliases.add(local)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = getattr(node, "value", None)
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    info.module_globals.add(target.id)
                    if _is_mutable_literal(value):
                        info.mutable_globals.add(target.id)

    def visit_defs(body, class_name: Optional[str]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                qual = f"{class_name}.{name}" if class_name else name
                qualname = f"{info.relative}::{qual}"
                info.functions[qualname] = FunctionInfo(
                    qualname=qualname,
                    module=info.relative,
                    name=name,
                    class_name=class_name,
                    node=node,
                    is_contextmanager=_is_contextmanager(node),
                )
            elif isinstance(node, ast.ClassDef):
                info.classes[node.name] = [
                    base for base in map(_base_name, node.bases) if base
                ]
                visit_defs(node.body, node.name)

    visit_defs(info.tree.body, None)


def _base_name(base: ast.expr) -> str:
    if isinstance(base, ast.Attribute):
        return base.attr
    if isinstance(base, ast.Name):
        return base.id
    return ""


def _is_contextmanager(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        name = decorator
        if isinstance(name, ast.Attribute):
            name = name.attr
        elif isinstance(name, ast.Name):
            name = name.id
        else:
            continue
        if name in ("contextmanager", "asynccontextmanager"):
            return True
    return False


def _is_mutable_literal(value: Optional[ast.expr]) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                          ast.ListComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", ""
        )
        return name in _MUTABLE_FACTORIES
    return False


def _resolve_roots(
    modules: Dict[str, _ModuleInfo],
    functions: Dict[str, FunctionInfo],
    config: ScanConfig,
) -> List[str]:
    roots: List[str] = []
    for root in config.roots:
        if root not in functions:
            raise AnalysisError(
                f"sanitizer root {root!r} not found — worker entry points "
                f"moved; update ScanConfig.roots so the reachability "
                f"analysis stays anchored"
            )
        roots.append(root)
    if config.kernel_base:
        kernel_classes = _subclasses_of(modules, config.kernel_base)
        for qualname, fn in functions.items():
            if (
                fn.class_name in kernel_classes
                and fn.name in config.kernel_methods
            ):
                roots.append(qualname)
    return sorted(set(roots))


def _subclasses_of(
    modules: Dict[str, _ModuleInfo], base: str
) -> Set[str]:
    """Class names transitively deriving from ``base`` (name-based CHA)."""
    children: Dict[str, Set[str]] = {}
    for info in modules.values():
        for name, bases in info.classes.items():
            for parent in bases:
                children.setdefault(parent, set()).add(name)
    found: Set[str] = {base}
    frontier = [base]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            if child not in found:
                found.add(child)
                frontier.append(child)
    return found


def _call_edges(
    modules: Dict[str, _ModuleInfo],
    functions: Dict[str, FunctionInfo],
    by_name: Dict[str, List[str]],
) -> Dict[str, Set[str]]:
    """caller qualname → callee qualnames (conservative name matching).

    A call to ``f``/``x.f`` links to every function *or method* named
    ``f``; instantiating a class links to every ``__init__`` of a class
    with that name.  Over-approximate — exactly what a reachability
    *upper bound* needs.
    """
    class_names: Set[str] = set()
    for info in modules.values():
        class_names.update(info.classes)
    edges: Dict[str, Set[str]] = {}
    for qualname, fn in functions.items():
        callees: Set[str] = set()
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                called = func.attr
            elif isinstance(func, ast.Name):
                called = func.id
            else:
                continue
            callees.update(by_name.get(called, ()))
            if called in class_names:
                for init in by_name.get("__init__", ()):
                    if functions[init].class_name == called:
                        callees.add(init)
        callees.discard(qualname)
        edges[qualname] = callees
    return edges


def _reach(
    roots: Sequence[str], edges: Dict[str, Set[str]]
) -> Dict[str, List[str]]:
    """BFS closure with one sample call chain per reached function."""
    chains: Dict[str, List[str]] = {}
    frontier = list(roots)
    for root in roots:
        chains.setdefault(root, [root])
    while frontier:
        current = frontier.pop(0)
        for callee in sorted(edges.get(current, ())):
            if callee not in chains:
                chains[callee] = chains[current] + [callee]
                frontier.append(callee)
    return chains


# ---------------------------------------------------------------------------
# Per-function rule checks.
# ---------------------------------------------------------------------------


def _short_chain(chain: Sequence[str]) -> str:
    names = [qual.rpartition("::")[2] for qual in chain]
    if len(names) > 5:
        names = names[:2] + ["..."] + names[-2:]
    return " -> ".join(names)


def _check_function(
    fn: FunctionInfo,
    module: _ModuleInfo,
    modules: Dict[str, _ModuleInfo],
    chain: Sequence[str],
    config: ScanConfig,
) -> Iterable[Diagnostic]:
    where = lambda node: (  # noqa: E731 — local formatter
        f"{config.where_prefix}{module.relative}:{node.lineno}"
    )
    via = _short_chain(chain)
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(_check_shared_writes(fn, module, where, via))
    diagnostics.extend(_check_hook_arming(fn, where, via))
    diagnostics.extend(_check_determinism(fn, where, via))
    return diagnostics


def _global_decls(fn_node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


def _categorize(name: str) -> str:
    if _is_ambient_name(name):
        return "ambient"
    if _is_registry_name(name):
        return "registry"
    return "state"


def _shared_write_diag(
    name: str, category: str, detail: str, where: str, via: str
) -> Diagnostic:
    if category == "registry":
        return Diagnostic(
            code="REPRO009",
            severity=Severity.ERROR,
            message=(
                f"process-global registry {name!r} {detail} in "
                f"worker-reachable code (via {via}); after fork the worker "
                f"mutates a private copy the parent never observes"
            ),
            hint=(
                "register at import time (before any pool exists), or "
                "suppress a per-process cache fill with "
                "`# dsan: allow[REPRO009] <reason>`"
            ),
            where=where,
        )
    return Diagnostic(
        code="REPRO006",
        severity=Severity.ERROR,
        message=(
            f"module-level mutable state {name!r} {detail} in "
            f"worker-reachable code (via {via}); worker copies diverge "
            f"and merges silently drop the writes"
        ),
        hint=(
            "thread the state through the shard payload/reply instead, "
            "or suppress a process-local-by-design site with "
            "`# dsan: allow[REPRO006] <reason>`"
        ),
        where=where,
    )


def _check_shared_writes(
    fn: FunctionInfo, module: _ModuleInfo, where, via: str
) -> Iterable[Diagnostic]:
    """REPRO006/REPRO009: mutations of module-level containers/globals."""
    declared = _global_decls(fn.node)
    shared = module.module_globals
    findings: List[Diagnostic] = []

    def record(name: str, detail: str, node: ast.AST) -> None:
        category = _categorize(name)
        if category == "ambient":
            return  # ambient globals are REPRO007's jurisdiction
        findings.append(
            _shared_write_diag(name, category, detail, where(node), via)
        )

    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in shared
                    and target.value.id in module.mutable_globals
                ):
                    record(target.value.id, "written by subscript", node)
                elif isinstance(target, ast.Name) and target.id in declared:
                    record(target.id, "rebound via `global`", node)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in module.mutable_globals
            ):
                record(func.value.id, f"mutated via .{func.attr}()", node)
    return findings


def _ambient_attr_target(target: ast.expr) -> Optional[Tuple[str, str]]:
    """(base, attr) when ``target`` assigns an ambient hook attribute."""
    if (
        isinstance(target, ast.Attribute)
        and target.attr in AMBIENT_ATTRS
        and isinstance(target.value, ast.Name)
    ):
        return (target.value.id, target.attr)
    return None


def _is_disarm_value(value: ast.expr, saved: Set[str]) -> bool:
    """True for reset values: None/False constants or a saved-previous name."""
    if isinstance(value, ast.Constant) and value.value in (None, False):
        return True
    if isinstance(value, ast.Name) and value.id in saved:
        return True
    return False


def _saved_previous_names(fn_node: ast.AST) -> Set[str]:
    """Names assigned from an ambient load (``previous = obj.trace_sink``).

    Assigning such a name back later is a *restore*, not an arming.  Tuple
    saves (``previous = (ENABLED, _RECORDER, _METRICS)``) count too.
    """

    def loads_ambient(expr: ast.expr) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) and node.attr in AMBIENT_ATTRS:
                return True
            if isinstance(node, ast.Name) and _is_ambient_name(node.id):
                return True
        return False

    saved: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign) and loads_ambient(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    saved.add(target.id)
    return saved


def _guarded_lines(fn: FunctionInfo) -> Set[int]:
    """Line numbers where inline arming is structurally acceptable.

    Exactly one shape qualifies: a ``contextmanager``-decorated generator
    whose ``try`` wraps the ``yield`` and whose ``finally`` restores
    state — the canonical arming primitive
    (:func:`repro.core.isa.fault_injection`).  Arming inside somebody
    else's ``with`` block earns no exemption: the foreign context manager
    knows nothing about the hook, and hand-rolled arm/try/finally pairs
    still leave an unprotected window between the arm and the ``try``.
    """
    lines: Set[int] = set()
    if fn.is_contextmanager:
        has_guarded_yield = any(
            isinstance(node, ast.Try)
            and node.finalbody
            and any(
                isinstance(sub, ast.Yield)
                for stmt in node.body
                for sub in ast.walk(stmt)
            )
            for node in ast.walk(fn.node)
        )
        if has_guarded_yield:
            for node in ast.walk(fn.node):
                lines.add(getattr(node, "lineno", -1))
    return lines


def _check_hook_arming(
    fn: FunctionInfo, where, via: str
) -> Iterable[Diagnostic]:
    """REPRO007: inline ambient-hook arming outside a guarding CM."""
    findings: List[Diagnostic] = []
    saved = _saved_previous_names(fn.node)
    guarded = _guarded_lines(fn)
    in_init = fn.name == "__init__"
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign):
            continue
        if _is_disarm_value(node.value, saved):
            continue
        for target in node.targets:
            spec = _ambient_attr_target(target)
            armed_name: Optional[str] = None
            if spec is not None:
                base, attr = spec
                if in_init and base == "self":
                    continue  # constructor wiring, not runtime arming
                armed_name = f"{base}.{attr}"
            elif isinstance(target, ast.Name) and _is_ambient_name(target.id):
                armed_name = target.id
            elif isinstance(target, ast.Tuple) and all(
                isinstance(el, ast.Name) and _is_ambient_name(el.id)
                for el in target.elts
            ):
                armed_name = ", ".join(el.id for el in target.elts)
            if armed_name is None:
                continue
            if node.lineno in guarded:
                continue
            findings.append(
                Diagnostic(
                    code="REPRO007",
                    severity=Severity.ERROR,
                    message=(
                        f"ambient hook {armed_name!r} armed inline in "
                        f"worker-reachable code (via {via}) without a "
                        f"context manager guaranteeing the reset; an "
                        f"exception here leaves the hook dangling for "
                        f"every later alignment in the process"
                    ),
                    hint=(
                        "arm through a contextmanager that restores the "
                        "previous value in a `finally` (the "
                        "`fault_injection`/`trace_capture` pattern)"
                    ),
                    where=where(node),
                )
            )
    return findings


def _check_determinism(
    fn: FunctionInfo, where, via: str
) -> Iterable[Diagnostic]:
    """REPRO008: wall clocks and unseeded RNGs in reachable code."""
    findings: List[Diagnostic] = []

    def report(offense: str, hint: str, node: ast.AST) -> None:
        findings.append(
            Diagnostic(
                code="REPRO008",
                severity=Severity.ERROR,
                message=(
                    f"{offense} in kernel/worker-reachable code (via "
                    f"{via}); results stop replaying bit-identically"
                ),
                hint=hint,
                where=where(node),
            )
        )

    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        base = None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name):
                base = func.value.id
            elif isinstance(func.value, ast.Attribute) and isinstance(
                func.value.value, ast.Name
            ):
                # Module-qualified class: datetime.datetime.now() etc.
                base = func.value.attr
        if base is not None:
            attr = func.attr
            if base == "time" and attr in WALL_CLOCKS:
                report(
                    f"wall-clock read time.{attr}()",
                    "use time.perf_counter()/monotonic() for telemetry; "
                    "never let a wall-clock value feed a result",
                    node,
                )
            elif base in ("datetime", "date") and attr in DATETIME_NOW:
                report(
                    f"wall-clock read {base}.{attr}()",
                    "pass timestamps in from the caller; worker results "
                    "must not depend on when they ran",
                    node,
                )
            elif base == "os" and attr == "urandom":
                report(
                    "os.urandom() entropy draw",
                    "derive randomness from a seeded random.Random(seed)",
                    node,
                )
            elif base == "uuid" and attr in ("uuid1", "uuid4"):
                report(
                    f"uuid.{attr}() entropy draw",
                    "derive identifiers from the seeded shard index",
                    node,
                )
            elif base == "random":
                if attr == "Random" and not node.args and not node.keywords:
                    report(
                        "unseeded random.Random()",
                        "seed it: random.Random(seed) replays exactly",
                        node,
                    )
                elif attr in _GLOBAL_RNG_FUNCS:
                    report(
                        f"random.{attr}() drawing from the interpreter-wide "
                        f"global RNG",
                        "construct a local random.Random(seed)",
                        node,
                    )
        elif (
            isinstance(func, ast.Name)
            and func.id == "Random"
            and not node.args
            and not node.keywords
        ):
            report(
                "unseeded Random()",
                "seed it: Random(seed) replays exactly",
                node,
            )
    return findings
