"""Project-specific AST lint rules (``repro-kg lint``).

Generic linters cannot know that this repository's CSR buffers belong
to the serving engine, that metric names are a stringly-typed API with
a central catalog, or that reproducibility dies the moment someone
reaches for an unseeded RNG.  This module encodes those rules as a
small AST lint pass:

========  ==============================================================
Rule      What it rejects
========  ==============================================================
``R001``  Direct mutation of CSR buffers (``.data`` / ``.indices`` /
          ``.indptr`` assignment) outside the
          :class:`~repro.serving.engine.SimilarityEngine` patch API.
``R002``  A string literal passed to ``observe`` (or the drivers'
          ``observe_run``, which opens one), ``trace_span`` or
          ``registry.counter/gauge/histogram`` that is not declared in
          :mod:`repro.obs.catalog` — the typo'd-phantom-series guard.
``R003``  ``print()`` calls in library code (the logging migration
          regression guard).
``R004``  Module-level or unseeded randomness: ``import random``,
          legacy ``np.random.<fn>()`` global-state calls, unseeded
          ``default_rng()`` (attribute or from-import spelling), direct
          ``Generator(...)`` construction, or any RNG construction at
          module import time — all outside ``utils/rng.py``.
``R005``  Raw ``time.time()`` timing — wall-clock time is not
          monotonic; time an operation with :func:`repro.obs.observe`
          (or ``time.perf_counter``).
``R006``  Direct calls to the similarity kernels
          (``inverse_pdistance*`` / ``ppr_*``) outside the
          ``similarity/`` package — callers must take the kernel that
          :func:`~repro.similarity.backend.get_backend` returns for
          :attr:`~repro.serving.params.SimilarityParams.backend`, so the
          ``backend=`` field actually controls propagation everywhere.
``R007``  A catalog entry emitted *nowhere* in the linted tree — the
          inverse of R002: the catalog must not accumulate phantom
          declarations whose dashboards would flatline forever
          (a whole-tree check via :func:`find_dead_series`, reported
          against ``obs/catalog.py``).
``R008``  A write to a :data:`repro.utils.sync.SHARED_STATE` attribute
          outside its declared owner module / writers, or without the
          declared ``lock:<name>`` guard lexically held (implemented in
          :mod:`repro.devtools.concurrency`).
``R010``  Blocking I/O or a non-serve-safe guard acquisition reachable
          from a ``@serve_path`` root, proven over the
          :mod:`repro.devtools.callgraph` call graph (concurrency
          module).
========  ==============================================================

Suppression: append ``# noqa: R003`` (or a comma-separated rule list,
or a bare ``# noqa``) to the offending line.  Rules are suppressed per
line, never per file.

The engine walks each file's AST exactly once; rules are methods on a
single visitor, so adding a rule is one method plus one catalog entry
in :data:`RULES`.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.obs import catalog

__all__ = [
    "RULES",
    "GRAPH_RULES",
    "LintViolation",
    "lint_source",
    "lint_file",
    "lint_paths",
    "collect_emitted_names",
    "find_dead_series",
    "format_violations",
    "violations_to_json",
]

#: Rule id -> one-line description (the ``repro-kg lint --rules`` table).
RULES: dict[str, str] = {
    "R001": (
        "no direct mutation of CSR buffers (.data/.indices/.indptr) outside "
        "the SimilarityEngine patch API"
    ),
    "R002": (
        "metric/span names passed to obs must be declared in "
        "repro.obs.catalog (typo'd series guard)"
    ),
    "R003": "no print() in library code; use the repro.cli logger / logging",
    "R004": (
        "no module-level or unseeded np.random/random usage outside "
        "utils/rng.py"
    ),
    "R005": "no raw time.time() timing; use repro.obs.observe / time.perf_counter",
    "R006": (
        "no direct inverse_pdistance*/ppr_* kernel calls outside similarity/; "
        "resolve kernels via SimilarityParams.backend and the backend registry"
    ),
    "R007": (
        "every catalog-declared metric/span must be emitted somewhere in the "
        "linted tree (dead/phantom catalog entry guard — the inverse of R002)"
    ),
    "R008": (
        "writes to repro.utils.sync.SHARED_STATE attributes only in the "
        "declared owner module (or declared writers) while holding the "
        "declared guard"
    ),
    "R010": (
        "functions reachable from @serve_path roots must not call blocking "
        "I/O (fsync, write-mode open, subprocess, sleep) or acquire "
        "non-serve-safe guards"
    ),
}

#: The rules implemented by :mod:`repro.devtools.concurrency` on top of
#: the call graph; ``lint_paths`` handles the single-file AST rules and
#: the CLI merges in these whole-tree checks.
GRAPH_RULES = frozenset({"R008", "R010"})

#: Files exempt from a rule because they *implement* the guarded API.
_RULE_EXEMPT_FILES: dict[str, tuple[str, ...]] = {
    "R001": ("serving/engine.py",),
    "R004": ("utils/rng.py",),
}

#: Directories whose *every* file is exempt from a rule because the
#: directory implements the guarded layer (trailing slash required).
_RULE_EXEMPT_DIRS: dict[str, tuple[str, ...]] = {
    "R006": ("similarity/",),
}

#: Terminal callable-name prefixes that identify a similarity kernel
#: for R006 (the backend registry is the only sanctioned caller).
_KERNEL_PREFIXES = ("inverse_pdistance", "ppr_")

#: Attribute names that identify a CSR buffer for R001.
_CSR_BUFFERS = frozenset({"data", "indices", "indptr"})

#: ``np.random`` members that construct *seedable* generators; every
#: other member is the legacy global-state API and always violates R004.
_SEEDED_RNG_FACTORIES = frozenset({"default_rng", "Generator", "SeedSequence"})

#: Callables whose literal first argument is a span name.
_SPAN_CALLS = frozenset({"observe", "observe_run", "trace_span"})

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<rules>[A-Z0-9, ]+))?", re.IGNORECASE)


@dataclass(frozen=True)
class LintViolation:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """``path:line:col: R00X message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _noqa_rules(source_line: str) -> "frozenset[str] | None":
    """Rules suppressed on this line: ``frozenset()`` means *all*."""
    match = _NOQA_RE.search(source_line)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return frozenset()
    return frozenset(r.strip().upper() for r in rules.split(",") if r.strip())


class _RuleVisitor(ast.NodeVisitor):
    """One-pass AST walk applying every applicable rule."""

    def __init__(self, path: str, active_rules: frozenset[str]) -> None:
        self.path = path
        self.active = active_rules
        self.violations: list[LintViolation] = []
        self._function_depth = 0
        self._numpy_aliases: set[str] = set()
        self._time_aliases: set[str] = set()
        self._time_time_names: set[str] = set()
        #: bound name -> original numpy.random factory name, for the
        #: ``from numpy.random import default_rng`` forms of R004.
        self._np_random_names: dict[str, str] = {}

    # -- helpers -------------------------------------------------------
    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.active:
            self.violations.append(
                LintViolation(
                    rule=rule,
                    path=self.path,
                    line=getattr(node, "lineno", 0),
                    col=getattr(node, "col_offset", 0),
                    message=message,
                )
            )

    @property
    def _at_module_level(self) -> bool:
        return self._function_depth == 0

    def _is_np_random(self, node: ast.AST) -> bool:
        """Whether ``node`` is the ``np.random`` attribute expression."""
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and isinstance(node.value, ast.Name)
            and node.value.id in self._numpy_aliases
        )

    # -- imports feed the alias tables and R004 ------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy" or alias.name.startswith("numpy."):
                self._numpy_aliases.add(bound)
            elif alias.name == "time":
                self._time_aliases.add(bound)
            elif alias.name == "random" or alias.name.startswith("random."):
                self._emit(
                    "R004",
                    node,
                    "stdlib 'random' is unseeded global state; use "
                    "repro.utils.rng.ensure_rng instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and node.level == 0:
            self._emit(
                "R004",
                node,
                "stdlib 'random' is unseeded global state; use "
                "repro.utils.rng.ensure_rng instead",
            )
        if node.module == "numpy.random" and node.level == 0:
            for alias in node.names:
                if alias.name in _SEEDED_RNG_FACTORIES:
                    bound = alias.asname or alias.name
                    self._np_random_names[bound] = alias.name
        if node.module == "time" and node.level == 0:
            for alias in node.names:
                if alias.name == "time":
                    self._time_time_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- scope tracking ------------------------------------------------
    def _visit_function(self, node: ast.AST) -> None:
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    # -- R001: CSR buffer mutation -------------------------------------
    def _check_csr_target(self, target: ast.AST, node: ast.AST) -> None:
        # matrix.data[i] = w  /  matrix.data[i] += w
        subscripted = isinstance(target, ast.Subscript)
        if isinstance(target, ast.Subscript):
            target = target.value
        if not (
            isinstance(target, ast.Attribute)
            and target.attr in _CSR_BUFFERS
            and isinstance(target.value, (ast.Attribute, ast.Name))
        ):
            return
        # ``self.data = {}`` is the ordinary instance-attribute idiom,
        # not a CSR buffer; wholesale rebinding of a *generic* ``.data``
        # on bare ``self`` stays legal.  Element stores, aug-assigns,
        # and the CSR-specific ``.indices``/``.indptr`` always flag.
        if (
            not subscripted
            and target.attr == "data"
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return
        self._emit(
            "R001",
            node,
            f"direct mutation of CSR buffer '.{target.attr}'; route weight "
            f"updates through the SimilarityEngine patch API",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_csr_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_csr_target(node.target, node)
        self.generic_visit(node)

    # -- call-shaped rules ---------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # R003: print()
        if isinstance(func, ast.Name) and func.id == "print":
            self._emit(
                "R003",
                node,
                "print() in library code; use the repro.cli logger / logging",
            )
        # R005: time.time()
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id in self._time_aliases
        ) or (
            isinstance(func, ast.Name) and func.id in self._time_time_names
        ):
            self._emit(
                "R005",
                node,
                "raw time.time() timing; use repro.obs.observe / "
                "time.perf_counter",
            )
        # R004: np.random.* calls (attribute and from-import spellings)
        rng_factory: str | None = None
        if isinstance(func, ast.Attribute) and self._is_np_random(func.value):
            rng_factory = func.attr
        elif isinstance(func, ast.Name) and func.id in self._np_random_names:
            rng_factory = self._np_random_names[func.id]
        if rng_factory is not None:
            if rng_factory not in _SEEDED_RNG_FACTORIES:
                self._emit(
                    "R004",
                    node,
                    f"np.random.{rng_factory}() drives unseeded global state; "
                    f"use repro.utils.rng.ensure_rng",
                )
            elif rng_factory == "Generator":
                self._emit(
                    "R004",
                    node,
                    "direct Generator(...) construction bypasses seed "
                    "threading; use repro.utils.rng.ensure_rng / spawn_rngs",
                )
            elif rng_factory == "default_rng" and not (
                node.args or node.keywords
            ):
                self._emit(
                    "R004",
                    node,
                    "np.random.default_rng() without a seed breaks "
                    "reproducibility; thread a seed or use ensure_rng",
                )
            elif self._at_module_level:
                self._emit(
                    "R004",
                    node,
                    f"np.random.{rng_factory}(...) at module level runs at "
                    f"import time; construct RNGs inside functions",
                )
        # R006: direct similarity-kernel calls outside similarity/
        terminal = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if terminal is not None and terminal.startswith(_KERNEL_PREFIXES):
            self._emit(
                "R006",
                node,
                f"direct kernel call {terminal}(); call "
                f"repro.similarity.backend.get_backend(params.backend)",
            )
        # R002: obs names must be in the catalog
        self._check_obs_name(node, func)
        self.generic_visit(node)

    def _check_obs_name(self, node: ast.Call, func: ast.AST) -> None:
        emitted = _obs_name_of(node)
        if emitted is None:
            return
        kind, name = emitted
        if kind == "span" and not catalog.is_registered_span(name):
            self._emit(
                "R002",
                node,
                f"span name {name!r} is not declared in repro.obs.catalog "
                f"(typo, or add it to SPANS)",
            )
        elif kind != "span" and not catalog.is_registered_metric(name):
            self._emit(
                "R002",
                node,
                f"{kind} name {name!r} is not declared in repro.obs.catalog "
                f"(typo, or add it to the catalog)",
            )


def _obs_name_of(node: ast.Call) -> "tuple[str, str] | None":
    """``(kind, name)`` when ``node`` emits an obs series, else ``None``.

    Matches the shapes R002 polices — ``observe("...")`` (and
    ``observe_run("...")``, which passes its name to ``observe``),
    ``trace_span("...")`` and
    ``<registry>.counter/gauge/histogram("...")`` with a literal first
    argument, plus the local-alias idiom ``counter = registry.counter;
    counter("...")`` — so the dead-series sweep (R007) and the
    phantom-name check (R002) agree on what "emitted" means by
    construction.
    """
    func = node.func
    if not node.args:
        return None
    first = node.args[0]
    if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
        return None
    if isinstance(func, ast.Name):
        if func.id in _SPAN_CALLS:
            return "span", first.value
        if func.id in ("counter", "gauge", "histogram"):
            return func.id, first.value
        return None
    if isinstance(func, ast.Attribute) and func.attr in (
        "counter",
        "gauge",
        "histogram",
    ):
        return func.attr, first.value
    return None


def _active_rules(path: str) -> frozenset[str]:
    """Rules that apply to ``path`` (exemptions are per implementing file)."""
    normalized = path.replace("\\", "/")
    active = set(RULES)
    for rule, exempt_suffixes in _RULE_EXEMPT_FILES.items():
        if any(normalized.endswith(suffix) for suffix in exempt_suffixes):
            active.discard(rule)
    for rule, exempt_dirs in _RULE_EXEMPT_DIRS.items():
        if any(
            normalized.startswith(directory) or f"/{directory}" in normalized
            for directory in exempt_dirs
        ):
            active.discard(rule)
    return frozenset(active)


def lint_source(
    source: str,
    *,
    path: str = "<string>",
    rules: "Iterable[str] | None" = None,
) -> list[LintViolation]:
    """Lint python ``source``; returns violations sorted by location.

    ``path`` labels the violations and selects per-file rule
    exemptions (the engine may patch its own CSR buffers; the rng
    module may construct generators).  ``rules`` restricts the run to
    a subset of rule ids; ``None`` means all of them.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            LintViolation(
                rule="E999",
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    active = _active_rules(path)
    if rules is not None:
        active = active & frozenset(rules)
    visitor = _RuleVisitor(path, active)
    visitor.visit(tree)
    lines = source.splitlines()
    kept: list[LintViolation] = []
    for violation in visitor.violations:
        line_text = lines[violation.line - 1] if 0 < violation.line <= len(lines) else ""
        suppressed = _noqa_rules(line_text)
        if suppressed is not None and (not suppressed or violation.rule in suppressed):
            continue
        kept.append(violation)
    kept.sort(key=lambda v: (v.line, v.col, v.rule))
    return kept


def lint_file(
    path: "str | Path", *, rules: "Iterable[str] | None" = None
) -> list[LintViolation]:
    """Lint one file on disk."""
    file_path = Path(path)
    return lint_source(
        file_path.read_text(encoding="utf-8"),
        path=str(file_path),
        rules=rules,
    )


def lint_paths(
    paths: Iterable["str | Path"],
    *,
    rules: "Iterable[str] | None" = None,
) -> list[LintViolation]:
    """Lint files and/or directory trees (``*.py``, recursively).

    Paths that do not exist raise ``FileNotFoundError`` — a lint run
    that silently checks nothing is how a CI gate rots.
    """
    rule_set = None if rules is None else frozenset(rules)
    violations: list[LintViolation] = []
    for entry in paths:
        entry_path = Path(entry)
        if entry_path.is_dir():
            for file_path in sorted(entry_path.rglob("*.py")):
                violations.extend(lint_file(file_path, rules=rule_set))
        elif entry_path.is_file():
            violations.extend(lint_file(entry_path, rules=rule_set))
        else:
            raise FileNotFoundError(f"lint target does not exist: {entry_path}")
    return violations


def collect_emitted_names(
    paths: Iterable["str | Path"],
) -> tuple[set[str], set[str]]:
    """``(metric names, span names)`` emitted anywhere under ``paths``.

    "Emitted" means the literal-name call shapes R002 polices; a file
    with a syntax error contributes nothing (the regular lint pass
    reports it).
    """
    metrics: set[str] = set()
    spans: set[str] = set()
    for entry in paths:
        entry_path = Path(entry)
        if entry_path.is_dir():
            files = sorted(entry_path.rglob("*.py"))
        elif entry_path.is_file():
            files = [entry_path]
        else:
            raise FileNotFoundError(f"lint target does not exist: {entry_path}")
        for file_path in files:
            try:
                tree = ast.parse(
                    file_path.read_text(encoding="utf-8"), filename=str(file_path)
                )
            except SyntaxError:
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    emitted = _obs_name_of(node)
                    if emitted is None:
                        continue
                    kind, name = emitted
                    (spans if kind == "span" else metrics).add(name)
    return metrics, spans


def find_dead_series(
    paths: Iterable["str | Path"],
    *,
    metrics: "Iterable[str] | None" = None,
    spans: "Iterable[str] | None" = None,
) -> list[LintViolation]:
    """R007: catalog entries emitted nowhere under ``paths``.

    The inverse of R002: R002 stops a call site from inventing a name
    the catalog never declared; this stops the catalog from accumulating
    phantom declarations no call site emits (a dashboard reading such a
    series would flatline forever).  A whole-tree property rather than a
    per-line one, so violations are attributed to the catalog module
    itself.  ``metrics``/``spans`` override the declared sets for tests.
    """
    declared_metrics = frozenset(catalog.METRICS if metrics is None else metrics)
    declared_spans = frozenset(catalog.SPANS if spans is None else spans)
    emitted_metrics, emitted_spans = collect_emitted_names(paths)
    catalog_path = str(
        Path(catalog.__file__ or "repro/obs/catalog.py")
    )
    violations = [
        LintViolation(
            rule="R007",
            path=catalog_path,
            line=0,
            col=0,
            message=(
                f"metric {name!r} is declared in the catalog but emitted "
                f"nowhere in the linted tree (dead series)"
            ),
        )
        for name in sorted(declared_metrics - emitted_metrics)
    ]
    violations.extend(
        LintViolation(
            rule="R007",
            path=catalog_path,
            line=0,
            col=0,
            message=(
                f"span {name!r} is declared in the catalog but emitted "
                f"nowhere in the linted tree (dead span)"
            ),
        )
        for name in sorted(declared_spans - emitted_spans)
    )
    return violations


def format_violations(violations: Sequence[LintViolation]) -> str:
    """Render violations one per line, plus a summary tail."""
    if not violations:
        return "lint: clean"
    lines = [violation.render() for violation in violations]
    lines.append(f"lint: {len(violations)} violation(s)")
    return "\n".join(lines)


def violations_to_json(
    violations: Sequence[LintViolation],
) -> dict[str, object]:
    """Machine-readable shape for ``repro-kg lint --format json``."""
    return {
        "clean": not violations,
        "count": len(violations),
        "violations": [
            {
                "rule": v.rule,
                "path": v.path,
                "line": v.line,
                "col": v.col,
                "message": v.message,
            }
            for v in violations
        ],
    }
