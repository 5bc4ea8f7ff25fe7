"""Interprocedural facts for the distributed-layer lint rules.

The RL001-RL006 rules in :mod:`repro.lint.rules` are *local*: each one
walks a module's AST and never needs to know what a name means in
another file.  The distributed-protocol rules (RL007-RL012) cannot work
that way — an exit code is *defined* in ``repro.analysis.exitcodes``,
*aliased* in ``repro.analysis.supervisor`` and *returned* from
``repro.cli``; an op name is a string literal on the client side of a
socket and a comparison on the broker side.  This module supplies the
shared project-level infrastructure those rules stand on, still without
importing a single repository module:

:class:`ConstEnv`
    Module-level constant propagation.  Resolves a name (or a dotted
    attribute) appearing anywhere in a module to the int / string /
    frozenset-of-strings literal it was ultimately assigned, following
    plain aliases (``WORKER_EXIT_PRESSURE = EXIT_PRESSURE``) and
    ``from``-imports across the project — including function-local lazy
    imports, which the distributed layer uses to break import cycles.

:class:`ModuleGraph`
    The module-granularity import graph: which project modules each
    module imports, counting both top-level and function-local imports.
    RL008 uses it to insist that both the worker entry point and the
    supervisor actually *import* the exit-code registry.

:func:`dispatch_table` / :func:`client_calls` / :func:`request_fields`
    Wire-protocol extractors: the broker's ``if op == "...":`` dispatch
    chain, the client's ``self._call("...", {...})`` sites with their
    payload key sets, and a handler's ``request["field"]`` /
    ``request.get("field")`` reads (plus the same-class helpers it
    forwards the request to, for one-level-deep field attribution).

Everything here is pure :mod:`ast` analysis over a loaded
:class:`~repro.lint.core.Project`; resolution failures are reported as
``None`` rather than guessed at, so rules degrade toward silence, not
false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.lint.core import ModuleInfo, Project, dotted_name, string_value

#: What constant propagation can carry: exit codes are ints, op names
#: are strings, idempotency manifests are frozensets of strings.
ConstValue = Union[int, str, FrozenSet[str]]


def _string_elements(elts: List[ast.expr]) -> Optional[FrozenSet[str]]:
    values = [string_value(e) for e in elts]
    if all(isinstance(v, str) for v in values):
        return frozenset(v for v in values if v is not None)
    return None


def literal_value(expr: ast.expr) -> Optional[ConstValue]:
    """Evaluate a literal expression without touching the environment.

    Understands int and string constants (bools are deliberately *not*
    ints here), set displays of strings, and ``frozenset({...})`` /
    ``set([...])`` calls over string displays.
    """
    if isinstance(expr, ast.Constant):
        if isinstance(expr.value, bool):
            return None
        if isinstance(expr.value, (int, str)):
            return expr.value
        return None
    if isinstance(expr, ast.Set):
        return _string_elements(expr.elts)
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("frozenset", "set")
        and len(expr.args) == 1
        and not expr.keywords
        and isinstance(expr.args[0], (ast.Set, ast.List, ast.Tuple))
    ):
        return _string_elements(expr.args[0].elts)
    return None


class ConstEnv:
    """Project-wide constant environment (see the module docstring)."""

    def __init__(self, project: Project) -> None:
        #: ``(module, name) -> defining expression`` for module-level
        #: single-name assignments (and annotated assignments).
        self._assigns: Dict[Tuple[str, str], ast.expr] = {}
        #: ``(module, name) -> (source module, source name)`` for every
        #: ``from X import Y [as Z]`` anywhere in the module.
        self._imports: Dict[Tuple[str, str], Tuple[str, str]] = {}
        #: ``(module, name) -> dotted module`` for module bindings from
        #: ``import a.b [as m]`` and ``from a import b`` (b a module).
        self._module_aliases: Dict[Tuple[str, str], str] = {}
        self._known: Set[str] = set(project.by_name)
        self._cache: Dict[Tuple[str, str], Optional[ConstValue]] = {}
        for mod in project.modules:
            self._index(mod)

    def _index(self, mod: ModuleInfo) -> None:
        for stmt in mod.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self._assigns[(mod.name, target.id)] = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    self._assigns[(mod.name, stmt.target.id)] = stmt.value
        # Imports are indexed at *any* depth: the distributed layer leans
        # on function-local lazy imports to break import cycles, and a
        # name used in ``sys.exit(...)`` may well be bound by one.
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom):
                base = self._import_base(mod.name, node)
                if base is None:
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if f"{base}.{alias.name}" in self._known:
                        self._module_aliases[(mod.name, bound)] = f"{base}.{alias.name}"
                    else:
                        self._imports[(mod.name, bound)] = (base, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self._module_aliases[(mod.name, alias.asname)] = alias.name
                    else:
                        # ``import a.b.c`` binds ``a``; record the root so
                        # attribute chains can walk down from it.
                        root = alias.name.split(".", 1)[0]
                        self._module_aliases[(mod.name, root)] = root

    @staticmethod
    def _import_base(module: str, node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module
        parts = module.split(".")
        if node.level > len(parts):
            return None
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts) if base_parts else None

    def resolve(self, module: str, name: str) -> Optional[ConstValue]:
        """The literal ``name`` denotes in ``module``, or ``None``."""
        key = (module, name)
        if key in self._cache:
            return self._cache[key]
        self._cache[key] = None  # cycle guard: break self-reference loops
        value: Optional[ConstValue] = None
        if key in self._assigns:
            value = self.resolve_expr(module, self._assigns[key])
        elif key in self._imports:
            src_module, src_name = self._imports[key]
            if src_module in self._known:
                value = self.resolve(src_module, src_name)
        self._cache[key] = value
        return value

    def resolve_expr(self, module: str, expr: ast.expr) -> Optional[ConstValue]:
        """Resolve an expression: literal, name, or dotted attribute."""
        lit = literal_value(expr)
        if lit is not None:
            return lit
        if isinstance(expr, ast.Name):
            return self.resolve(module, expr.id)
        if isinstance(expr, ast.Attribute):
            dotted = dotted_name(expr)
            if dotted:
                return self._resolve_dotted(module, dotted)
        return None

    def _resolve_dotted(self, module: str, dotted: str) -> Optional[ConstValue]:
        parts = dotted.split(".")
        if len(parts) < 2:
            return None
        # Expand the leading alias, then find the longest module prefix:
        # ``m.EXIT_OK`` (alias), ``repro.analysis.exitcodes.EXIT_OK``...
        expanded = self._module_aliases.get((module, parts[0]), parts[0])
        full = ".".join([expanded] + parts[1:])
        full_parts = full.split(".")
        for split in range(len(full_parts) - 1, 0, -1):
            prefix = ".".join(full_parts[:split])
            if prefix in self._known and split == len(full_parts) - 1:
                return self.resolve(prefix, full_parts[-1])
        return None

    def resolve_int(self, module: str, expr: ast.expr) -> Optional[int]:
        value = self.resolve_expr(module, expr)
        return value if isinstance(value, int) else None


class ModuleGraph:
    """Which project modules each module imports (any scope depth)."""

    def __init__(self, project: Project) -> None:
        self._edges: Dict[str, FrozenSet[str]] = {}
        known = set(project.by_name)
        for mod in project.modules:
            targets: Set[str] = set()
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name in known:
                            targets.add(alias.name)
                elif isinstance(node, ast.ImportFrom):
                    base = ConstEnv._import_base(mod.name, node)
                    if base is None:
                        continue
                    for alias in node.names:
                        if f"{base}.{alias.name}" in known:
                            targets.add(f"{base}.{alias.name}")
                        elif base in known:
                            targets.add(base)
            self._edges[mod.name] = frozenset(targets)

    def imports(self, module: str) -> FrozenSet[str]:
        return self._edges.get(module, frozenset())

    def imports_module(self, module: str, target: str) -> bool:
        return target in self.imports(module)


# ----------------------------------------------------------------------
# Wire-protocol extractors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DispatchTable:
    """Op literals a dispatcher compares against, plus dynamic sites."""

    ops: Dict[str, int]  # op literal -> first comparison line
    dynamic: Tuple[int, ...]  # lines comparing the op var to a non-literal


def dispatch_table(func: ast.FunctionDef, var: str = "op") -> DispatchTable:
    """Extract ``if <var> == "literal":`` comparisons from a dispatcher."""
    ops: Dict[str, int] = {}
    dynamic: List[int] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Compare):
            continue
        if not (isinstance(node.left, ast.Name) and node.left.id == var):
            continue
        if len(node.ops) != 1 or not isinstance(node.ops[0], ast.Eq):
            continue
        literal = string_value(node.comparators[0])
        if literal is None:
            dynamic.append(node.lineno)
        elif literal not in ops:
            ops[literal] = node.lineno
    return DispatchTable(ops, tuple(dynamic))


@dataclass(frozen=True)
class ClientCall:
    """One ``self._call("<op>", {...})`` site on the client class."""

    op: Optional[str]  # None: the op argument is not a string literal
    line: int
    symbol: str
    #: Top-level keys of the payload dict literal; ``None`` when the
    #: payload is present but not a plain dict of string keys.
    payload_keys: Optional[FrozenSet[str]]


def _payload_keys(call: ast.Call) -> Optional[FrozenSet[str]]:
    payload: Optional[ast.expr] = None
    if len(call.args) >= 2:
        payload = call.args[1]
    else:
        for kw in call.keywords:
            if kw.arg == "payload":
                payload = kw.value
    if payload is None:
        return frozenset()
    if isinstance(payload, ast.Dict):
        keys = [string_value(k) if k is not None else None for k in payload.keys]
        if all(isinstance(k, str) for k in keys):
            return frozenset(k for k in keys if k is not None)
    return None


def client_calls(
    cls: ast.ClassDef, method: str = "_call"
) -> List[ClientCall]:
    """Every ``self.<method>(...)`` site in ``cls``, with payload keys."""
    calls: List[ClientCall] = []
    for item in cls.body:
        if not isinstance(item, ast.FunctionDef):
            continue
        symbol = f"{cls.name}.{item.name}"
        for node in ast.walk(item):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr == method
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                continue
            op = string_value(node.args[0]) if node.args else None
            calls.append(ClientCall(op, node.lineno, symbol, _payload_keys(node)))
    return calls


@dataclass
class RequestFields:
    """Field reads a handler performs on its request parameter."""

    required: Dict[str, int] = field(default_factory=dict)  # request["f"]
    optional: Dict[str, int] = field(default_factory=dict)  # request.get("f")
    #: Same-class methods / module functions the request is forwarded
    #: to verbatim — follow these one level for their field reads too.
    forwarded_to: List[str] = field(default_factory=list)

    def merge(self, other: "RequestFields") -> None:
        for name, line in other.required.items():
            self.required.setdefault(name, line)
        for name, line in other.optional.items():
            self.optional.setdefault(name, line)


def request_fields(func: ast.AST, param: str = "request") -> RequestFields:
    """Extract ``param[...]`` / ``param.get(...)`` reads and forwards.

    ``func`` is usually a handler :class:`ast.FunctionDef`, but any
    subtree works — RL009 passes individual dispatch branches.
    """
    fields = RequestFields()
    for node in ast.walk(func):
        if isinstance(node, ast.Subscript):
            if isinstance(node.value, ast.Name) and node.value.id == param:
                key = string_value(node.slice)
                if key is not None:
                    fields.required.setdefault(key, node.lineno)
        elif isinstance(node, ast.Call):
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr == "get"
                and isinstance(func_expr.value, ast.Name)
                and func_expr.value.id == param
                and node.args
            ):
                key = string_value(node.args[0])
                if key is not None:
                    fields.optional.setdefault(key, node.lineno)
                continue
            forwards = any(
                isinstance(arg, ast.Name) and arg.id == param for arg in node.args
            )
            if not forwards:
                continue
            if (
                isinstance(func_expr, ast.Attribute)
                and isinstance(func_expr.value, ast.Name)
                and func_expr.value.id == "self"
            ):
                fields.forwarded_to.append(func_expr.attr)
            elif isinstance(func_expr, ast.Name):
                fields.forwarded_to.append(func_expr.id)
    return fields
