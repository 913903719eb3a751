"""Whole-package AST call graph with method resolution and reachability.

The concurrency analyzer (:mod:`repro.devtools.concurrency`) needs to
answer questions like "can ``QASystem.ask`` reach ``os.fsync``?"
statically — the lock-free-read invariant of the coming serve/optimize
split is a *reachability* property, not a per-line pattern.  This
module builds the call graph that makes such queries cheap:

- **indexing** — every module under the given roots is parsed once;
  classes, methods, module functions, and both import forms (aliases
  and from-imports, including re-export chains through ``__init__``
  modules) are tabulated;
- **resolution** — call sites resolve through, in order: local variable
  types (a lightweight flow-insensitive inference over constructor
  calls, container literals, and ``self.attr`` reads typed from the
  owning class's ``__init__``), ``self``/``super()`` method lookup with
  single-level base-class fallback, import tables, and finally Class
  Hierarchy Analysis (every package class defining the method name);
- **externals** — calls that leave the package are kept as ``ext:``
  targets (``ext:os.fsync``, ``ext:subprocess.run``, and ``open`` calls
  classified by mode as ``ext:open[w]`` / ``ext:open[r]``) so purity
  rules can pattern-match them;
- **reachability** — BFS from any root set, recording the parent chain
  for human-readable "how does serving reach this?" paths, and
  honoring ``@serve_exempt`` as a declared barrier (the function is
  reported, its callees are not traversed).

Precision notes (deliberate, documented trade-offs): CHA is suppressed
for builtin-container method names (``append``, ``add``, ``get``, …) —
otherwise every ``pending.append(...)`` would conjure an edge to
:meth:`VoteWAL.append` and its fsync; typed receivers still resolve
those precisely.  Nested functions and lambdas are flattened into
their enclosing function.  Dynamic dispatch through stored callables
(listener lists, registry values) is invisible — keep such callbacks
off the serve path or behind declared barriers.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "CallGraph",
    "ReachResult",
    "build_call_graph",
]

#: Method names for which CHA (unknown-receiver dispatch over every
#: class defining the name) is suppressed: they are overwhelmingly
#: builtin container/string operations, and a single false edge (e.g.
#: ``list.append`` -> ``VoteWAL.append``) would poison reachability.
#: Typed receivers resolve these precisely; dunders are suppressed too.
CHA_SUPPRESSED = frozenset(
    {
        "append", "appendleft", "extend", "insert", "remove", "discard",
        "add", "update", "setdefault", "get", "pop", "popitem", "popleft",
        "clear", "copy", "keys", "values", "items", "sort", "reverse",
        "count", "index", "join", "split", "rsplit", "splitlines",
        "strip", "lstrip", "rstrip", "startswith", "endswith", "format",
        "encode", "decode", "lower", "upper", "replace", "write",
        "writelines", "read", "readline", "readlines", "close", "flush",
        "most_common", "total", "fileno",
    }
)

_BUILTIN_CTORS = frozenset(
    {
        "list", "dict", "set", "tuple", "frozenset", "str", "bytes",
        "bytearray", "int", "float", "bool", "complex", "object",
        "OrderedDict", "defaultdict", "deque", "Counter",
    }
)

_LITERAL_NODES = (
    ast.List, ast.Dict, ast.Set, ast.Tuple, ast.ListComp, ast.DictComp,
    ast.SetComp, ast.GeneratorExp, ast.Constant, ast.JoinedStr,
)

_TYPE_BUILTIN = "builtin"
_TYPE_FILE = "filehandle"


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge leaving a function."""

    target: str  #: package qualname, ``ext:<dotted>``, or ``ext:open[w]``
    line: int
    via: str  #: direct | self | super | typed | import | cha | ctor | with

    @property
    def external(self) -> bool:
        return self.target.startswith("ext:")


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    qualname: str  #: ``<module>.<Class>.<name>`` or ``<module>.<name>``
    module: str
    cls: "str | None"
    name: str
    path: str
    line: int
    decorators: "dict[str, object]"  #: terminal name -> True or reason
    calls: "list[CallSite]" = field(default_factory=list)
    node: "ast.AST | None" = field(default=None, repr=False, compare=False)

    @property
    def serve_root(self) -> bool:
        return "serve_path" in self.decorators

    @property
    def exempt_reason(self) -> "str | None":
        reason = self.decorators.get("serve_exempt")
        return reason if isinstance(reason, str) else None


@dataclass
class ClassInfo:
    """One class: methods, raw base names, and inferred attribute types."""

    qualname: str
    module: str
    name: str
    bases: "tuple[str, ...]"
    methods: "dict[str, FunctionInfo]" = field(default_factory=dict)
    attr_types: "dict[str, str]" = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module and its name-resolution tables."""

    name: str
    path: str
    is_package: bool
    tree: "ast.Module" = field(repr=False)
    import_aliases: "dict[str, str]" = field(default_factory=dict)
    import_names: "dict[str, str]" = field(default_factory=dict)
    classes: "dict[str, ClassInfo]" = field(default_factory=dict)
    functions: "dict[str, FunctionInfo]" = field(default_factory=dict)
    global_types: "dict[str, str]" = field(default_factory=dict)


@dataclass
class ReachResult:
    """A BFS reachability closure with parent chains and barriers."""

    roots: "tuple[str, ...]"
    parent: "dict[str, str | None]"  #: function -> BFS predecessor
    barriers: "dict[str, str]"  #: @serve_exempt functions hit -> reason

    @property
    def functions(self) -> "set[str]":
        """Every reachable function, roots included, barriers excluded."""
        return set(self.parent) - set(self.barriers)

    def __contains__(self, qualname: str) -> bool:
        return qualname in self.parent

    def path(self, qualname: str) -> "list[str]":
        """Root-to-function call chain (empty if unreachable)."""
        if qualname not in self.parent:
            return []
        chain = [qualname]
        while (up := self.parent[chain[-1]]) is not None:
            chain.append(up)
        return list(reversed(chain))

    def render_path(self, qualname: str) -> str:
        return " -> ".join(self.path(qualname))


class CallGraph:
    """The resolved call graph over one or more source roots."""

    def __init__(self, modules: "dict[str, ModuleInfo]") -> None:
        self.modules = modules
        self.classes: "dict[str, ClassInfo]" = {}
        self.functions: "dict[str, FunctionInfo]" = {}
        self.methods_by_name: "dict[str, list[str]]" = {}
        for mod in modules.values():
            for cls in mod.classes.values():
                self.classes[cls.qualname] = cls
            for fn in mod.functions.values():
                self.functions[fn.qualname] = fn
        for cls in self.classes.values():
            for fn in cls.methods.values():
                self.functions[fn.qualname] = fn
                self.methods_by_name.setdefault(fn.name, []).append(
                    fn.qualname
                )
        #: package-internal import-layer edges: module -> imported modules
        self.module_imports: "dict[str, set[str]]" = {
            name: self._imported_modules(mod)
            for name, mod in modules.items()
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def serve_roots(self) -> "list[FunctionInfo]":
        """Every ``@serve_path``-decorated function, sorted by qualname."""
        return sorted(
            (fn for fn in self.functions.values() if fn.serve_root),
            key=lambda fn: fn.qualname,
        )

    def callees(self, qualname: str) -> "list[CallSite]":
        fn = self.functions.get(qualname)
        return list(fn.calls) if fn is not None else []

    def reachable(
        self, roots: "list[str]", *, stop_at: str = "serve_exempt"
    ) -> ReachResult:
        """BFS closure from ``roots`` over package-internal edges.

        Functions decorated with ``stop_at`` are recorded as barriers:
        they appear in the result (so reports can list them) but their
        callees are not traversed.
        """
        known = [r for r in roots if r in self.functions]
        parent: "dict[str, str | None]" = {r: None for r in known}
        barriers: "dict[str, str]" = {}
        queue = deque(known)
        while queue:
            current = queue.popleft()
            info = self.functions[current]
            if stop_at in info.decorators and parent[current] is not None:
                reason = info.decorators[stop_at]
                barriers[current] = (
                    reason if isinstance(reason, str) else "declared barrier"
                )
                continue
            for site in info.calls:
                target = site.target
                if site.external or target in parent:
                    continue
                if target not in self.functions:
                    continue
                parent[target] = current
                queue.append(target)
        return ReachResult(tuple(known), parent, barriers)

    def external_calls(
        self, reach: ReachResult
    ) -> "list[tuple[FunctionInfo, CallSite]]":
        """Every ``ext:`` call site inside a reachable (non-barrier)
        function, in deterministic order."""
        out: "list[tuple[FunctionInfo, CallSite]]" = []
        for qualname in sorted(reach.functions):
            info = self.functions[qualname]
            out.extend(
                (info, site) for site in info.calls if site.external
            )
        return out

    def to_json(self) -> "dict[str, object]":
        """JSON-serializable summary (stable ordering)."""
        return {
            "modules": sorted(self.modules),
            "functions": {
                q: {
                    "path": fn.path,
                    "line": fn.line,
                    "decorators": sorted(fn.decorators),
                    "calls": [
                        {"target": s.target, "line": s.line, "via": s.via}
                        for s in fn.calls
                    ],
                }
                for q, fn in sorted(self.functions.items())
            },
            "module_imports": {
                m: sorted(deps)
                for m, deps in sorted(self.module_imports.items())
            },
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _imported_modules(self, mod: ModuleInfo) -> "set[str]":
        deps: "set[str]" = set()
        for dotted in list(mod.import_aliases.values()) + list(
            mod.import_names.values()
        ):
            hit = self._module_prefix(dotted)
            if hit is not None and hit != mod.name:
                deps.add(hit)
        return deps

    def _module_prefix(self, dotted: str) -> "str | None":
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.modules:
                return prefix
        return None


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def build_call_graph(paths: "list[str | Path]") -> CallGraph:
    """Parse every ``.py`` file under ``paths`` and resolve all calls.

    Each entry may be a source root (like ``src``) or a package
    directory; package directories are anchored at their parent so
    module names come out fully qualified (``repro.serving.engine``).
    """
    builder = _Builder()
    for entry in paths:
        builder.add_root(Path(entry))
    return builder.build()


def _decorator_table(node: "ast.AST") -> "dict[str, object]":
    """Terminal decorator names -> True, or the first literal argument
    (``@serve_exempt("reason")`` keeps its reason)."""
    table: "dict[str, object]" = {}
    for dec in getattr(node, "decorator_list", []):
        reason: object = True
        target = dec
        if isinstance(dec, ast.Call):
            if (
                dec.args
                and isinstance(dec.args[0], ast.Constant)
                and isinstance(dec.args[0].value, str)
            ):
                reason = dec.args[0].value
            target = dec.func
        if isinstance(target, ast.Attribute):
            table[target.attr] = reason
        elif isinstance(target, ast.Name):
            table[target.id] = reason
    return table


def _dotted_from(node: "ast.expr") -> "str | None":
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: "list[str]" = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _open_target(call: "ast.Call") -> str:
    """Classify an ``open()``-shaped call by its mode argument."""
    mode = None
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        mode = call.args[1].value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = kw.value.value
    if isinstance(mode, str) and any(c in mode for c in "wax+"):
        return "ext:open[w]"
    if mode is None and (len(call.args) >= 2 or call.keywords):
        # Non-literal mode: assume the worst for purity checking.
        return "ext:open[w]"
    return "ext:open[r]"


class _Builder:
    def __init__(self) -> None:
        self.modules: "dict[str, ModuleInfo]" = {}

    # -- pass 0: discovery ---------------------------------------------
    def add_root(self, entry: Path) -> None:
        if entry.is_file():
            root = entry.parent
            files = [entry]
        else:
            root = entry.parent if (entry / "__init__.py").exists() else entry
            files = sorted(entry.rglob("*.py"))
        for file in files:
            rel = file.relative_to(root)
            parts = list(rel.parts)
            parts[-1] = parts[-1][: -len(".py")]
            is_package = parts[-1] == "__init__"
            if is_package:
                parts = parts[:-1]
            if not parts:
                continue
            name = ".".join(parts)
            try:
                tree = ast.parse(file.read_text(encoding="utf-8"))
            except SyntaxError:
                continue
            self.modules[name] = ModuleInfo(
                name=name,
                path=str(file),
                is_package=is_package,
                tree=tree,
            )

    def build(self) -> CallGraph:
        for mod in self.modules.values():
            self._index_module(mod)
        graph = CallGraph(self.modules)
        self._graph = graph
        for mod in self.modules.values():
            for cls in mod.classes.values():
                self._infer_attr_types(mod, cls)
            self._infer_global_types(mod)
        for mod in self.modules.values():
            for fn in mod.functions.values():
                self._resolve_function(mod, None, fn)
            for cls in mod.classes.values():
                for fn in cls.methods.values():
                    self._resolve_function(mod, cls, fn)
        return graph

    # -- pass 1: per-module indexing -----------------------------------
    def _index_module(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.import_aliases[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(mod, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    mod.import_names[bound] = f"{base}.{alias.name}"
        for stmt in mod.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.functions[stmt.name] = self._function_info(
                    mod, None, stmt
                )
            elif isinstance(stmt, ast.ClassDef):
                bases = tuple(
                    b for b in (_dotted_from(base) for base in stmt.bases)
                    if b is not None
                )
                cls = ClassInfo(
                    qualname=f"{mod.name}.{stmt.name}",
                    module=mod.name,
                    name=stmt.name,
                    bases=bases,
                )
                for item in stmt.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        cls.methods[item.name] = self._function_info(
                            mod, cls, item
                        )
                mod.classes[stmt.name] = cls

    def _resolve_from_base(
        self, mod: ModuleInfo, node: "ast.ImportFrom"
    ) -> "str | None":
        if node.level == 0:
            return node.module
        # Relative import: anchor at the module's package.
        parts = mod.name.split(".")
        if not mod.is_package:
            parts = parts[:-1]
        drop = node.level - 1
        if drop:
            parts = parts[: len(parts) - drop] if drop < len(parts) else []
        if not parts:
            return node.module
        base = ".".join(parts)
        return f"{base}.{node.module}" if node.module else base

    def _function_info(
        self, mod: ModuleInfo, cls: "ClassInfo | None", node
    ) -> FunctionInfo:
        prefix = cls.qualname if cls is not None else mod.name
        return FunctionInfo(
            qualname=f"{prefix}.{node.name}",
            module=mod.name,
            cls=cls.name if cls is not None else None,
            name=node.name,
            path=mod.path,
            line=node.lineno,
            decorators=_decorator_table(node),
            node=node,
        )

    # -- pass 2: type tables -------------------------------------------
    def _value_type(
        self, mod: ModuleInfo, value: "ast.expr"
    ) -> "str | None":
        """Best-effort type tag for an assigned value expression."""
        if isinstance(value, _LITERAL_NODES):
            return _TYPE_BUILTIN
        if isinstance(value, ast.IfExp):
            # `X(...) if flag else None` — type from the if-branch.
            return self._value_type(mod, value.body) or self._value_type(
                mod, value.orelse
            )
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                if func.id == "open":
                    return _TYPE_FILE
                entity = self._resolve_bare(mod, func.id)
                if entity is not None and entity[0] == "class":
                    return entity[1]
                if entity is None and func.id in _BUILTIN_CTORS:
                    return _TYPE_BUILTIN
                if entity is not None and entity[0] == "ext":
                    tail = entity[1].rsplit(".", 1)[-1]
                    if tail in _BUILTIN_CTORS:
                        return _TYPE_BUILTIN
            elif isinstance(func, ast.Attribute):
                dotted = _dotted_from(func)
                if dotted is not None:
                    entity = self._resolve_dotted_in(mod, dotted)
                    if entity is not None and entity[0] == "class":
                        return entity[1]
                if func.attr == "open":
                    return _TYPE_FILE
        return None

    def _infer_attr_types(self, mod: ModuleInfo, cls: ClassInfo) -> None:
        for method in cls.methods.values():
            node = method.node
            if node is None:
                continue
            for stmt in ast.walk(node):
                target = None
                value = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    target, value = stmt.target, stmt.value
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                tag = self._value_type(mod, value)
                if tag is not None and target.attr not in cls.attr_types:
                    cls.attr_types[target.attr] = tag

    def _infer_global_types(self, mod: ModuleInfo) -> None:
        for stmt in mod.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            else:
                continue
            if isinstance(target, ast.Name):
                tag = self._value_type(mod, value)
                if tag is not None:
                    mod.global_types[target.id] = tag

    # -- name resolution ------------------------------------------------
    def _resolve_bare(
        self, mod: ModuleInfo, name: str, depth: int = 0
    ) -> "tuple[str, str] | None":
        """Resolve a bare name to ('func'|'class'|'module'|'ext', target)."""
        if name in mod.functions:
            return ("func", mod.functions[name].qualname)
        if name in mod.classes:
            return ("class", mod.classes[name].qualname)
        if name in mod.import_names:
            return self._resolve_dotted(mod.import_names[name], depth + 1)
        if name in mod.import_aliases:
            dotted = mod.import_aliases[name]
            if dotted in self.modules:
                return ("module", dotted)
            return ("ext", dotted)
        return None

    def _resolve_dotted(
        self, dotted: str, depth: int = 0
    ) -> "tuple[str, str] | None":
        if depth > 8:
            return None
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.modules:
                rest = parts[i:]
                if not rest:
                    return ("module", prefix)
                return self._lookup_in_module(
                    self.modules[prefix], rest, depth
                )
        return ("ext", dotted)

    def _resolve_dotted_in(
        self, mod: ModuleInfo, dotted: str
    ) -> "tuple[str, str] | None":
        """Resolve ``a.b.c`` whose head is a name bound in ``mod``."""
        head, _, rest = dotted.partition(".")
        entity = self._resolve_bare(mod, head)
        if entity is None:
            return None
        kind, target = entity
        if not rest:
            return entity
        if kind == "module":
            return self._lookup_in_module(
                self.modules[target], rest.split("."), 0
            )
        if kind == "ext":
            return ("ext", f"{target}.{rest}")
        if kind == "class":
            cls = self._graph.classes.get(target)
            parts = rest.split(".")
            if cls is not None and len(parts) == 1 and parts[0] in cls.methods:
                return ("func", cls.methods[parts[0]].qualname)
        return None

    def _lookup_in_module(
        self, mod: ModuleInfo, rest: "list[str]", depth: int
    ) -> "tuple[str, str] | None":
        name = rest[0]
        if name in mod.functions:
            return ("func", mod.functions[name].qualname)
        if name in mod.classes:
            cls = mod.classes[name]
            if len(rest) == 1:
                return ("class", cls.qualname)
            if len(rest) == 2 and rest[1] in cls.methods:
                return ("func", cls.methods[rest[1]].qualname)
            return None
        if name in mod.import_names and depth <= 8:
            tail = ".".join([mod.import_names[name]] + rest[1:])
            return self._resolve_dotted(tail, depth + 1)
        submodule = f"{mod.name}.{name}"
        if submodule in self.modules:
            if len(rest) == 1:
                return ("module", submodule)
            return self._lookup_in_module(
                self.modules[submodule], rest[1:], depth
            )
        return None

    # -- pass 3: call resolution ----------------------------------------
    def _resolve_function(
        self, mod: ModuleInfo, cls: "ClassInfo | None", fn: FunctionInfo
    ) -> None:
        node = fn.node
        if node is None:
            return
        local_types = self._local_types(mod, cls, node)
        sites: "list[CallSite]" = []
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    site = self._resolve_call(mod, cls, local_types, sub)
                    if site is not None:
                        sites.append(site)
                    else:
                        sites.extend(
                            self._cha_sites(mod, cls, local_types, sub)
                        )
                elif isinstance(sub, (ast.With, ast.AsyncWith)):
                    sites.extend(self._with_sites(mod, cls, local_types, sub))
        fn.calls = sites

    def _with_sites(
        self,
        mod: ModuleInfo,
        cls: "ClassInfo | None",
        local_types: "dict[str, str]",
        stmt: "ast.With | ast.AsyncWith",
    ) -> "list[CallSite]":
        """``__enter__``/``__exit__`` of the context each ``with`` item opens.

        The context's class comes from the item's call: a constructor
        names it, and a package function names it by its return
        annotation (every package class in it, for a union, and their
        subclasses, which the function may return too).
        """
        sites: "list[CallSite]" = []
        for item in stmt.items:
            call = item.context_expr
            if not isinstance(call, ast.Call):
                continue
            site = self._resolve_call(mod, cls, local_types, call)
            if site is None:
                continue
            for class_qual in self._context_classes(site):
                for dunder in ("__enter__", "__exit__"):
                    method = self._find_method(class_qual, dunder)
                    if method is not None:
                        sites.append(CallSite(method, call.lineno, "with"))
        return sites

    def _context_classes(self, site: CallSite) -> "list[str]":
        """Package classes a resolved call returns (see ``_with_sites``)."""
        if site.via == "ctor":
            return [site.target.rsplit(".", 1)[0]]
        fn = self._graph.functions.get(site.target)
        if fn is None or fn.node is None:
            return []
        returns = getattr(fn.node, "returns", None)
        if isinstance(returns, ast.Constant) and isinstance(returns.value, str):
            try:
                returns = ast.parse(returns.value, mode="eval").body
            except SyntaxError:
                return []
        if returns is None:
            return []
        home = self.modules[fn.module]
        classes: "list[str]" = []
        for name in ast.walk(returns):
            if isinstance(name, ast.Name):
                entity = self._resolve_bare(home, name.id)
                if entity is not None and entity[0] == "class":
                    classes.append(entity[1])
        for cls in self._graph.classes.values():
            if any(self._base_class(cls, base) in classes for base in cls.bases):
                classes.append(cls.qualname)
        return classes

    def _local_types(
        self, mod: ModuleInfo, cls: "ClassInfo | None", node
    ) -> "dict[str, str]":
        types: "dict[str, str]" = {}
        if cls is not None:
            types["self"] = cls.qualname
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if not (
                    isinstance(sub, ast.Assign) and len(sub.targets) == 1
                ):
                    continue
                target = sub.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                tag = self._value_type(mod, sub.value)
                if tag is None and isinstance(sub.value, ast.Attribute):
                    tag = self._expr_type(mod, cls, types, sub.value)
                if tag is None and isinstance(sub.value, ast.Name):
                    tag = types.get(sub.value.id)
                if tag is not None and target.id not in types:
                    types[target.id] = tag
        return types

    def _expr_type(
        self,
        mod: ModuleInfo,
        cls: "ClassInfo | None",
        local_types: "dict[str, str]",
        expr: "ast.expr",
    ) -> "str | None":
        """Type tag of a receiver expression (Name or self-rooted chain)."""
        if isinstance(expr, ast.Name):
            if expr.id in local_types:
                return local_types[expr.id]
            return mod.global_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._expr_type(mod, cls, local_types, expr.value)
            if base is None or base in (_TYPE_BUILTIN, _TYPE_FILE):
                return None
            owner = self._graph.classes.get(base)
            if owner is not None:
                return owner.attr_types.get(expr.attr)
        return None

    def _resolve_call(
        self,
        mod: ModuleInfo,
        cls: "ClassInfo | None",
        local_types: "dict[str, str]",
        call: "ast.Call",
    ) -> "CallSite | None":
        func = call.func
        line = call.lineno
        if isinstance(func, ast.Name):
            if func.id == "open":
                return CallSite(_open_target(call), line, "direct")
            entity = self._resolve_bare(mod, func.id)
            if entity is None:
                return None
            kind, target = entity
            if kind == "func":
                return CallSite(target, line, "direct")
            if kind == "class":
                init = self._find_method(target, "__init__")
                if init is not None:
                    return CallSite(init, line, "ctor")
                return None
            if kind == "ext":
                return CallSite(f"ext:{target}", line, "import")
            return None
        if isinstance(func, ast.Attribute):
            # super().__init__(...) and friends
            if (
                isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
                and cls is not None
            ):
                for base in cls.bases:
                    base_entity = self._resolve_bare(mod, base.split(".")[0])
                    base_qual = None
                    if base_entity is not None and base_entity[0] == "class":
                        base_qual = base_entity[1]
                    if base_qual is not None:
                        method = self._find_method(base_qual, func.attr)
                        if method is not None:
                            return CallSite(method, line, "super")
                return None
            if func.attr == "open":
                return CallSite(_open_target(call), line, "direct")
            dotted = _dotted_from(func)
            if dotted is not None:
                entity = self._resolve_dotted_in(mod, dotted)
                if entity is not None:
                    kind, target = entity
                    if kind == "func":
                        return CallSite(target, line, "import")
                    if kind == "class":
                        init = self._find_method(target, "__init__")
                        if init is not None:
                            return CallSite(init, line, "ctor")
                        return None
                    if kind == "ext":
                        return CallSite(f"ext:{target}", line, "import")
            receiver_type = self._expr_type(
                mod, cls, local_types, func.value
            )
            if receiver_type in (_TYPE_BUILTIN, _TYPE_FILE):
                return None
            if receiver_type is not None:
                method = self._find_method(receiver_type, func.attr)
                if method is not None:
                    via = "self" if (
                        isinstance(func.value, ast.Name)
                        and func.value.id == "self"
                    ) else "typed"
                    return CallSite(method, line, via)
                return None
        return None

    def _cha_sites(
        self,
        mod: ModuleInfo,
        cls: "ClassInfo | None",
        local_types: "dict[str, str]",
        call: "ast.Call",
    ) -> "list[CallSite]":
        """CHA fallback for attribute calls nothing else resolved."""
        func = call.func
        if not isinstance(func, ast.Attribute):
            return []
        name = func.attr
        if name in CHA_SUPPRESSED or (
            name.startswith("__") and name.endswith("__")
        ):
            return []
        if isinstance(func.value, ast.Call) and isinstance(
            func.value.func, ast.Name
        ):
            if func.value.func.id == "super":
                return []
        dotted = _dotted_from(func)
        if dotted is not None:
            head = dotted.split(".")[0]
            if head in mod.import_aliases or head in mod.import_names:
                entity = self._resolve_dotted_in(mod, dotted)
                if entity is None or entity[0] == "ext":
                    return []  # external library attribute, not dispatch
        receiver_type = self._expr_type(mod, cls, local_types, func.value)
        if receiver_type in (_TYPE_BUILTIN, _TYPE_FILE):
            return []
        targets = self.methods_by_name_get(name)
        return [CallSite(t, call.lineno, "cha") for t in targets]

    def methods_by_name_get(self, name: str) -> "list[str]":
        return self._graph.methods_by_name.get(name, [])

    def _find_method(
        self, class_qual: str, method: str
    ) -> "str | None":
        cls = self._graph.classes.get(class_qual)
        if cls is None:
            return None
        if method in cls.methods:
            return cls.methods[method].qualname
        # single-level base fallback
        for base in cls.bases:
            parent = self._graph.classes.get(self._base_class(cls, base) or "")
            if parent is not None and method in parent.methods:
                return parent.methods[method].qualname
        return None

    def _base_class(self, cls: ClassInfo, base: str) -> "str | None":
        """The package class ``base`` (as ``cls`` spells it) names, if any."""
        mod = self.modules.get(cls.module)
        if mod is None:
            return None
        entity = (
            self._resolve_bare(mod, base)
            if "." not in base
            else self._resolve_dotted_in(mod, base)
        )
        return entity[1] if entity is not None and entity[0] == "class" else None
