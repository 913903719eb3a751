"""Shared-mutable-state analyzer: rules R008 and R010 over the call graph.

This is the enforcement half of :mod:`repro.utils.sync`: that module
*declares* which state is cross-thread-visible and under what
discipline; this one proves, statically, that the tree honors the
declarations.  Two rules:

R008 (lock discipline / ownership)
    Every write to a declared :data:`~repro.utils.sync.SHARED_STATE`
    attribute must happen in its owner module (or a declared
    cross-module writer) and, for ``lock:<name>`` guards, lexically
    inside ``with <holder>.<name>:``.  Constructor stores
    (``__init__`` of the declaring class) and module-scope definitions
    are pre-publication and exempt.

R010 (serve-path purity)
    No function reachable from a ``@serve_path`` root may call
    blocking I/O (``fsync``, write-mode ``open``, ``subprocess``,
    ``time.sleep``, filesystem mutation) or acquire a guard not
    declared ``serve_safe``.  Reachability comes from
    :mod:`repro.devtools.callgraph`; ``@serve_exempt`` functions are
    declared barriers and are reported, not traversed.

``analyze_paths`` returns an :class:`AnalysisReport` (inventory +
serve-path purity report + findings, renderable as a table or JSON);
``find_concurrency_violations`` is the thin adapter ``repro-kg lint``
uses so R008 and R010 ride the same gate as R001-R007.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.callgraph import (
    CallGraph,
    FunctionInfo,
    ModuleInfo,
    build_call_graph,
)
from repro.devtools.lint import LintViolation, _noqa_rules, format_violations
from repro.utils.sync import SHARED_STATE, SharedState, shared_state_by_attr
from repro.utils.tables import format_table

__all__ = [
    "CONCURRENCY_RULES",
    "AnalysisReport",
    "analyze_paths",
    "find_concurrency_violations",
]

#: The rules this module implements (descriptions live in
#: :data:`repro.devtools.lint.RULES` alongside R001-R007).
CONCURRENCY_RULES = frozenset({"R008", "R010"})

#: External call targets that block or touch durable storage — never
#: acceptable in serve-reachable code (R010).
_BLOCKING_EXACT = frozenset(
    {
        "ext:os.fsync", "ext:os.sync", "ext:os.replace", "ext:os.rename",
        "ext:os.remove", "ext:os.unlink", "ext:os.makedirs",
        "ext:os.mkdir", "ext:os.rmdir", "ext:os.truncate",
        "ext:time.sleep", "ext:shutil.rmtree", "ext:shutil.copy",
        "ext:shutil.copyfile", "ext:shutil.copytree", "ext:shutil.move",
        "ext:open[w]",
    }
)
_BLOCKING_PREFIXES = ("ext:subprocess.",)

#: Method names that are blocking no matter the receiver (Path writes
#: and file syncs); unambiguous enough to flag on unknown receivers.
_BLOCKING_ATTR_CALLS = frozenset(
    {"write_text", "write_bytes", "fsync", "touch", "mkdir"}
)

#: Receiver-method calls that mutate a container in place.
_MUTATING_CALLS = frozenset(
    {
        "append", "appendleft", "extend", "insert", "add", "update",
        "setdefault", "remove", "discard", "clear", "pop", "popitem",
        "popleft", "move_to_end",
    }
)


@dataclass
class AnalysisReport:
    """Everything ``repro-kg analyze`` shows: graph, inventory, purity."""

    violations: "list[LintViolation]"
    inventory: "list[dict]"
    serve: "dict[str, object]"
    stats: "dict[str, int]"

    def to_json(self) -> "dict[str, object]":
        return {
            "stats": self.stats,
            "inventory": self.inventory,
            "serve": self.serve,
            "violations": [
                {
                    "rule": v.rule,
                    "path": v.path,
                    "line": v.line,
                    "col": v.col,
                    "message": v.message,
                }
                for v in self.violations
            ],
        }

    def render(self) -> str:
        sections = [
            "call graph: {modules} modules, {functions} functions, "
            "{classes} classes, {edges} call edges".format(**self.stats)
        ]
        roots = self.serve["roots"]
        sections.append(
            f"serve-path roots ({len(roots)}): " + ", ".join(roots)
        )
        sections.append(
            "serve-reachable functions: "
            f"{self.serve['reachable_functions']}"
        )
        barriers = self.serve["barriers"]
        if barriers:
            lines = [
                f"  {name}  ({reason})"
                for name, reason in sorted(barriers.items())
            ]
            sections.append(
                "declared @serve_exempt barriers:\n" + "\n".join(lines)
            )
        sections.append(
            format_table(
                ["shared state", "kind", "guard", "owner", "writes"],
                [
                    (
                        row["name"],
                        row["kind"],
                        row["guard"],
                        row["owner"],
                        row["writes"],
                    )
                    for row in self.inventory
                ],
                title="shared-state inventory",
            )
        )
        sections.append(format_violations(self.violations))
        return "\n\n".join(sections)


def analyze_paths(
    paths: "list[str | Path]",
    *,
    rules: "set[str] | None" = None,
    shared_state: "tuple[SharedState, ...] | None" = None,
) -> AnalysisReport:
    """Run the concurrency analysis over ``paths``.

    ``shared_state`` defaults to the package registry in
    :mod:`repro.utils.sync`; tests inject synthetic ones.
    """
    for entry in paths:
        if not Path(entry).exists():
            raise FileNotFoundError(f"no such file or directory: {entry}")
    active = set(rules) if rules is not None else set(CONCURRENCY_RULES)
    states = shared_state if shared_state is not None else SHARED_STATE
    graph = build_call_graph(paths)
    analyzer = _Analyzer(graph, states)
    analyzer.run()

    seen: "set[tuple[str, str, int]]" = set()
    violations = []
    for v in analyzer.violations:
        if v.rule not in active:
            continue
        key = (v.rule, v.path, v.line)
        if key in seen:  # e.g. os.fsync matches both blocking scans
            continue
        seen.add(key)
        violations.append(v)
    violations = _apply_noqa(violations)
    violations.sort(key=lambda v: (v.path, v.line, v.rule, v.col))

    inventory = [
        {
            "name": s.name,
            "kind": s.kind,
            "guard": s.guard,
            "owner": s.owner,
            "serve_safe": s.serve_safe,
            "writers": list(s.writers),
            "writes": analyzer.write_counts.get(s.name, 0),
            "description": s.description,
        }
        for s in states
    ]
    roots = [fn.qualname for fn in graph.serve_roots()]
    serve: "dict[str, object]" = {
        "roots": roots,
        "reachable_functions": len(analyzer.reach.functions),
        "barriers": dict(analyzer.reach.barriers),
    }
    stats = {
        "modules": len(graph.modules),
        "functions": len(graph.functions),
        "classes": len(graph.classes),
        "edges": sum(len(f.calls) for f in graph.functions.values()),
    }
    return AnalysisReport(violations, inventory, serve, stats)


def find_concurrency_violations(
    paths: "list[str | Path]",
    *,
    rules: "set[str] | None" = None,
    shared_state: "tuple[SharedState, ...] | None" = None,
) -> "list[LintViolation]":
    """R008/R010 findings in ``repro-kg lint`` shape."""
    report = analyze_paths(paths, rules=rules, shared_state=shared_state)
    return report.violations


def _apply_noqa(
    violations: "list[LintViolation]",
) -> "list[LintViolation]":
    """Honor per-line ``# noqa`` comments, same semantics as lint."""
    kept: "list[LintViolation]" = []
    lines_cache: "dict[str, list[str]]" = {}
    for violation in violations:
        lines = lines_cache.get(violation.path)
        if lines is None:
            try:
                lines = Path(violation.path).read_text(
                    encoding="utf-8"
                ).splitlines()
            except OSError:
                lines = []
            lines_cache[violation.path] = lines
        if 0 < violation.line <= len(lines):
            suppressed = _noqa_rules(lines[violation.line - 1])
            if suppressed is not None and (
                not suppressed or violation.rule in suppressed
            ):
                continue
        kept.append(violation)
    return kept


# ----------------------------------------------------------------------
# write-site model
# ----------------------------------------------------------------------
@dataclass
class _Site:
    """One write site, classified for the discipline checks."""

    attr: "str | None"  #: attribute name (None for bare-name sites)
    name: "str | None"  #: bare global/local name (None for attr sites)
    receiver: "ast.expr | None"
    line: int
    col: int
    op: str  #: rebind | augassign | subscript | call:<method> | delete


class _Analyzer:
    def __init__(
        self,
        graph: CallGraph,
        states: "tuple[SharedState, ...]",
    ) -> None:
        self.graph = graph
        self.states = states
        self.by_attr = shared_state_by_attr(states)
        self.violations: "list[LintViolation]" = []
        self.write_counts: "dict[str, int]" = {}
        self.reach = graph.reachable(
            [fn.qualname for fn in graph.serve_roots()]
        )
        #: lock names that may not be acquired on the serve path
        self.unsafe_locks = {
            s.lock_name
            for s in states
            if s.lock_name is not None and not s.serve_safe
        }

    def run(self) -> None:
        for mod in self.graph.modules.values():
            _ModuleScanner(self, mod).scan()
        self._check_serve_purity()

    # -- R010 -----------------------------------------------------------
    def _check_serve_purity(self) -> None:
        for fn, site in self.graph.external_calls(self.reach):
            target = site.target
            if target in _BLOCKING_EXACT or target.startswith(
                _BLOCKING_PREFIXES
            ):
                self._emit(
                    "R010",
                    fn.path,
                    site.line,
                    0,
                    f"serve path calls blocking {target[4:]} "
                    f"[{self.reach.render_path(fn.qualname)}]",
                )
        for qualname in sorted(self.reach.functions):
            fn = self.graph.functions[qualname]
            if fn.node is None:
                continue
            for stmt in fn.node.body:
                for sub in ast.walk(stmt):
                    self._check_purity_node(fn, sub)

    def _check_purity_node(self, fn: FunctionInfo, node: "ast.AST") -> None:
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            name = node.func.attr
            if name in _BLOCKING_ATTR_CALLS:
                self._emit(
                    "R010",
                    fn.path,
                    node.lineno,
                    node.col_offset,
                    f"serve path calls blocking .{name}() "
                    f"[{self.reach.render_path(fn.qualname)}]",
                )
            elif name == "acquire":
                lock = self._lock_name(node.func.value)
                if lock in self.unsafe_locks:
                    self._emit(
                        "R010",
                        fn.path,
                        node.lineno,
                        node.col_offset,
                        f"serve path acquires non-serve-safe guard "
                        f"{lock!r} "
                        f"[{self.reach.render_path(fn.qualname)}]",
                    )
        elif isinstance(node, ast.With):
            for item in node.items:
                lock = self._lock_name(item.context_expr)
                if lock in self.unsafe_locks:
                    self._emit(
                        "R010",
                        fn.path,
                        node.lineno,
                        node.col_offset,
                        f"serve path acquires non-serve-safe guard "
                        f"{lock!r} "
                        f"[{self.reach.render_path(fn.qualname)}]",
                    )

    @staticmethod
    def _lock_name(expr: "ast.expr") -> "str | None":
        if isinstance(expr, ast.Attribute):
            return expr.attr
        if isinstance(expr, ast.Name):
            return expr.id
        return None

    def _emit(
        self, rule: str, path: str, line: int, col: int, message: str
    ) -> None:
        self.violations.append(
            LintViolation(rule, path, line, col, message)
        )


class _ModuleScanner:
    """One module's R008 pass with lexical context tracking."""

    def __init__(self, analyzer: _Analyzer, mod: ModuleInfo) -> None:
        self.a = analyzer
        self.mod = mod
        #: module-global states owned here, by name
        self.own_globals = {
            s.attr: s
            for s in analyzer.states
            if s.kind == "module-global" and s.owner == mod.name
        }

    def scan(self) -> None:
        self._visit_body(
            self.mod.tree.body,
            cls=None,
            func=None,
            guards=frozenset(),
            module_scope=True,
            global_decls=frozenset(),
        )

    # -- traversal ------------------------------------------------------
    def _visit_body(
        self, body, *, cls, func, guards, module_scope, global_decls
    ) -> None:
        for node in body:
            self._visit(
                node,
                cls=cls,
                func=func,
                guards=guards,
                module_scope=module_scope,
                global_decls=global_decls,
            )

    def _visit(
        self, node, *, cls, func, guards, module_scope, global_decls
    ) -> None:
        if isinstance(node, ast.ClassDef):
            self._visit_body(
                node.body,
                cls=node.name,
                func=None,
                guards=guards,
                module_scope=False,
                global_decls=frozenset(),
            )
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decls = frozenset(
                name
                for sub in ast.walk(node)
                if isinstance(sub, ast.Global)
                for name in sub.names
            )
            self._visit_body(
                node.body,
                cls=cls,
                func=node.name if func is None else func,
                guards=guards,
                module_scope=False,
                global_decls=decls if func is None else global_decls,
            )
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            held = set(guards)
            for item in node.items:
                lock = _Analyzer._lock_name(item.context_expr)
                if lock is not None:
                    held.add(lock)
            self._visit_body(
                node.body,
                cls=cls,
                func=func,
                guards=frozenset(held),
                module_scope=module_scope,
                global_decls=global_decls,
            )
            # with-item expressions can contain calls worth checking
            for item in node.items:
                self._scan_expr_sites(
                    item.context_expr, cls, func, guards,
                    module_scope, global_decls,
                )
            return

        for site in self._sites_of(node):
            self._check_site(
                site, cls, func, guards, module_scope, global_decls
            )
        # Recurse into compound statements and expressions.
        for child in ast.iter_child_nodes(node):
            self._visit(
                child,
                cls=cls,
                func=func,
                guards=guards,
                module_scope=module_scope,
                global_decls=global_decls,
            )

    def _scan_expr_sites(
        self, expr, cls, func, guards, module_scope, global_decls
    ) -> None:
        for sub in ast.walk(expr):
            for site in self._sites_of(sub):
                self._check_site(
                    site, cls, func, guards, module_scope, global_decls
                )

    # -- write-site extraction ------------------------------------------
    def _sites_of(self, node) -> "list[_Site]":
        sites: "list[_Site]" = []
        if isinstance(node, ast.Assign):
            for target in node.targets:
                sites.extend(self._target_sites(target, "rebind"))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            sites.extend(self._target_sites(node.target, "rebind"))
        elif isinstance(node, ast.AugAssign):
            sites.extend(self._target_sites(node.target, "augassign"))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                sites.extend(self._target_sites(target, "delete"))
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            method = node.func.attr
            if method in _MUTATING_CALLS:
                receiver = node.func.value
                site = self._receiver_site(
                    receiver, f"call:{method}", node
                )
                if site is not None:
                    sites.append(site)
        return sites

    def _target_sites(self, target, op: str) -> "list[_Site]":
        if isinstance(target, (ast.Tuple, ast.List)):
            out: "list[_Site]" = []
            for element in target.elts:
                out.extend(self._target_sites(element, op))
            return out
        if isinstance(target, ast.Attribute):
            return [
                _Site(
                    attr=target.attr,
                    name=None,
                    receiver=target.value,
                    line=target.lineno,
                    col=target.col_offset,
                    op=op,
                )
            ]
        if isinstance(target, ast.Subscript):
            inner = target.value
            if isinstance(inner, ast.Attribute):
                return [
                    _Site(
                        attr=inner.attr,
                        name=None,
                        receiver=inner.value,
                        line=target.lineno,
                        col=target.col_offset,
                        op="subscript",
                    )
                ]
            if isinstance(inner, ast.Name):
                return [
                    _Site(
                        attr=None,
                        name=inner.id,
                        receiver=None,
                        line=target.lineno,
                        col=target.col_offset,
                        op="subscript",
                    )
                ]
            return []
        if isinstance(target, ast.Name):
            return [
                _Site(
                    attr=None,
                    name=target.id,
                    receiver=None,
                    line=target.lineno,
                    col=target.col_offset,
                    op=op,
                )
            ]
        return []

    def _receiver_site(
        self, receiver, op: str, node
    ) -> "_Site | None":
        if isinstance(receiver, ast.Attribute):
            return _Site(
                attr=receiver.attr,
                name=None,
                receiver=receiver.value,
                line=node.lineno,
                col=node.col_offset,
                op=op,
            )
        if isinstance(receiver, ast.Name):
            return _Site(
                attr=None,
                name=receiver.id,
                receiver=None,
                line=node.lineno,
                col=node.col_offset,
                op=op,
            )
        return None

    # -- R008 -----------------------------------------------------------
    def _check_site(
        self, site: _Site, cls, func, guards, module_scope, global_decls
    ) -> None:
        if site.attr is not None:
            states = self.a.by_attr.get(site.attr, ())
            for state in states:
                if state.kind != "attribute":
                    continue
                self._check_attr_site(site, state, cls, func, guards)
        elif site.name is not None:
            self._check_global_site(
                site, cls, func, guards, module_scope, global_decls
            )

    def _check_attr_site(
        self, site: _Site, state: SharedState, cls, func, guards
    ) -> None:
        is_self = (
            isinstance(site.receiver, ast.Name)
            and site.receiver.id == "self"
        )
        if is_self:
            if cls != state.cls:
                return  # same attr name on an unrelated class
            matched_writer = f"{self.mod.name}:{cls}.{func}"
        else:
            receiver_cls = self._receiver_class(site.receiver)
            if receiver_cls is not None:
                if receiver_cls.rsplit(".", 1)[-1] != state.cls:
                    return
            elif not (
                site.attr.startswith("_")
                and self.mod.name != state.owner
            ):
                # Unknown receiver: only cross-module writes to private
                # shared attrs are suspicious enough to flag.
                return
            matched_writer = f"{self.mod.name}:{cls}.{func}" if cls else (
                f"{self.mod.name}:{func}"
            )
        self.a.write_counts[state.name] = (
            self.a.write_counts.get(state.name, 0) + 1
        )

        in_owner = self.mod.name == state.owner
        declared = matched_writer in state.writers
        if not in_owner and not declared:
            self.a._emit(
                "R008",
                self.mod.path,
                site.line,
                site.col,
                f"write to shared state {state.name} outside owner "
                f"module {state.owner} (guard: {state.guard})",
            )
            return
        # Constructor stores happen before the object is published.
        ctor = func == "__init__" and cls == state.cls
        lock = state.lock_name
        if lock is not None and not ctor and lock not in guards:
            self.a._emit(
                "R008",
                self.mod.path,
                site.line,
                site.col,
                f"write to {state.name} without holding declared "
                f"guard {state.guard!r}",
            )

    def _check_global_site(
        self, site: _Site, cls, func, guards, module_scope, global_decls
    ) -> None:
        state = self.own_globals.get(site.name)
        if state is None:
            # A module-global state mutated from another module would
            # need an explicit import; check that spelling too.
            target = self.mod.import_names.get(site.name, "")
            for candidate in self.a.by_attr.get(site.name, ()):
                if candidate.kind != "module-global":
                    continue
                if target.startswith(candidate.owner):
                    self.a._emit(
                        "R008",
                        self.mod.path,
                        site.line,
                        site.col,
                        f"write to shared state {candidate.name} outside "
                        f"owner module {candidate.owner}",
                    )
            return
        if site.op in ("rebind", "augassign") and not (
            module_scope or site.name in global_decls
        ):
            return  # a local shadowing the global name, not the state
        if module_scope:
            return  # module-scope definition, pre-publication
        self.a.write_counts[state.name] = (
            self.a.write_counts.get(state.name, 0) + 1
        )
        lock = state.lock_name
        if lock is not None and lock not in guards:
            self.a._emit(
                "R008",
                self.mod.path,
                site.line,
                site.col,
                f"write to {state.name} without holding declared "
                f"guard {state.guard!r}",
            )

    def _receiver_class(self, receiver) -> "str | None":
        """Qualified class of a self-rooted receiver chain, if known."""
        if receiver is None:
            return None
        chain: "list[str]" = []
        node = receiver
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        if node.id != "self":
            return None
        # Walk attr types from every class of this module that could be
        # `self` here — the enclosing class is not tracked on the site,
        # so try all and return the unique resolution.
        resolutions: "set[str]" = set()
        for cls in self.mod.classes.values():
            current = cls.qualname
            for attr in reversed(chain):
                info = self.a.graph.classes.get(current)
                if info is None:
                    current = None
                    break
                current = info.attr_types.get(attr)
                if current is None or current in ("builtin", "filehandle"):
                    current = None
                    break
            if current is not None:
                resolutions.add(current)
        if len(resolutions) == 1:
            return next(iter(resolutions))
        return None
