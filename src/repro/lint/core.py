"""Framework core for ``repro.lint``: findings, rules, pragmas, project model.

The analyzer is deliberately *static*: it parses every module under
``src/repro`` with :mod:`ast` and never imports or executes repository
code, so it is safe to run on a broken tree and fast enough for a
pre-commit hook.  Three concepts:

:class:`ModuleInfo`
    One parsed module: path, source, AST, dotted name, and the
    ``# repro-lint: disable=...`` pragma map extracted from its source.

:class:`Project`
    The whole tree under ``src/repro`` plus the ``tests/`` directory
    (as raw text — rules such as RL004 check that fault sites are
    exercised by tests without parsing test semantics).

:class:`Rule`
    One check.  Rules are registered with :func:`register` and receive
    the *project*, not a single module, because most simulator
    invariants are cross-cutting (a fault site is declared in one
    module, registered in a second, and exercised by a third).

Suppression layers, in order of precedence:

* ``# repro-lint: disable=RL001`` on the offending line (or
  ``disable=all``) — for single accepted exceptions, visible in review;
* ``# repro-lint: disable-file=RL001`` anywhere in a module — for
  whole-module opt-outs (used sparingly);
* the committed baseline file (see :mod:`repro.lint.baseline`) — for
  grandfathered findings that are accepted but still visible.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple, Type

SEVERITIES = ("error", "warning")

_PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation, addressable both by line and by fingerprint.

    ``symbol`` is the *stable* context (enclosing class/function, config
    field, fault site...) so the fingerprint survives unrelated edits
    that shift line numbers — that is what makes baselines durable.
    """

    rule: str
    severity: str
    path: str
    line: int
    message: str
    symbol: str = ""

    @property
    def fingerprint(self) -> str:
        return f"{self.rule}:{self.path}:{self.symbol}"

    def render(self) -> str:
        tag = "E" if self.severity == "error" else "W"
        where = f"{self.path}:{self.line}"
        sym = f" [{self.symbol}]" if self.symbol else ""
        return f"{where}: {tag} {self.rule}{sym} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }


@dataclass
class ModuleInfo:
    """One parsed source module plus its pragma map."""

    path: Path
    relpath: str
    name: str
    source: str
    tree: ast.Module
    line_pragmas: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    file_pragmas: FrozenSet[str] = frozenset()

    @classmethod
    def load(cls, path: Path, relpath: str, name: str) -> "ModuleInfo":
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        line_pragmas: Dict[int, FrozenSet[str]] = {}
        file_pragmas: Set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _PRAGMA_RE.search(text)
            if not match:
                continue
            rules = frozenset(
                token.strip().upper()
                for token in match.group(2).split(",")
                if token.strip()
            )
            if match.group(1) == "disable-file":
                file_pragmas.update(rules)
            else:
                line_pragmas[lineno] = line_pragmas.get(lineno, frozenset()) | rules
        return cls(path, relpath, name, source, tree, line_pragmas, frozenset(file_pragmas))

    def suppressed(self, rule_id: str, line: int) -> bool:
        rule_id = rule_id.upper()
        if rule_id in self.file_pragmas or "ALL" in self.file_pragmas:
            return True
        pragmas = self.line_pragmas.get(line)
        return bool(pragmas) and (rule_id in pragmas or "ALL" in pragmas)


class Project:
    """Every module under the package root, plus raw test sources."""

    def __init__(
        self,
        package_root: Path,
        modules: Sequence[ModuleInfo],
        test_sources: Dict[str, str],
    ) -> None:
        self.package_root = package_root
        self.modules = list(modules)
        self.by_name: Dict[str, ModuleInfo] = {m.name: m for m in self.modules}
        self.test_sources = dict(test_sources)

    def module(self, name: str) -> Optional[ModuleInfo]:
        return self.by_name.get(name)

    def in_packages(self, prefixes: Sequence[str]) -> Iterator[ModuleInfo]:
        for mod in self.modules:
            if any(mod.name == p or mod.name.startswith(p + ".") for p in prefixes):
                yield mod


def load_project(repo_root: Path) -> Project:
    """Parse ``<repo_root>/src/repro`` and slurp ``<repo_root>/tests``."""
    package_root = repo_root / "src" / "repro"
    if not package_root.is_dir():
        raise FileNotFoundError(f"no package tree at {package_root}")
    modules: List[ModuleInfo] = []
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(repo_root).as_posix()
        dotted = ".".join(path.relative_to(package_root.parent).with_suffix("").parts)
        if dotted.endswith(".__init__"):
            dotted = dotted[: -len(".__init__")]
        modules.append(ModuleInfo.load(path, rel, dotted))
    test_sources: Dict[str, str] = {}
    tests_dir = repo_root / "tests"
    if tests_dir.is_dir():
        for path in sorted(tests_dir.rglob("*.py")):
            test_sources[path.relative_to(repo_root).as_posix()] = path.read_text()
    return Project(package_root, modules, test_sources)


class Rule:
    """Base class for one lint check; subclasses register themselves."""

    id: str = ""
    title: str = ""
    severity: str = "error"
    rationale: str = ""

    def check(self, project: Project) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(
        self,
        module: Optional[ModuleInfo],
        line: int,
        message: str,
        symbol: str = "",
        path: str = "",
    ) -> Optional[Finding]:
        """Build a finding unless a pragma on its line suppresses it."""
        if module is not None:
            if module.suppressed(self.id, line):
                return None
            path = module.relpath
        return Finding(self.id, self.severity, path, line, message, symbol)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a :class:`Rule` subclass to the registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.severity not in SEVERITIES:
        raise ValueError(f"rule {cls.id} has unknown severity {cls.severity!r}")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> Dict[str, Type[Rule]]:
    # Importing the rules modules populates the registry on first use.
    from repro.lint import rules as _rules  # noqa: F401
    from repro.lint import rules_dist as _rules_dist  # noqa: F401

    return dict(_REGISTRY)


def run_rules(
    project: Project,
    rule_ids: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the selected rules (default: all) and return sorted findings."""
    registry = all_rules()
    if rule_ids:
        unknown = [r for r in rule_ids if r.upper() not in registry]
        if unknown:
            known = ", ".join(sorted(registry))
            raise ValueError(f"unknown rule id(s) {unknown}; known: {known}")
        selected = [registry[r.upper()] for r in rule_ids]
    else:
        selected = [registry[rid] for rid in sorted(registry)]
    findings: List[Finding] = []
    for rule_cls in selected:
        findings.extend(rule_cls().check(project))
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.symbol))
    return findings


# ----------------------------------------------------------------------
# Shared AST helpers used by several rules
# ----------------------------------------------------------------------
def iter_with_symbols(tree: ast.Module) -> Iterator[Tuple[ast.AST, str]]:
    """Yield every node with its enclosing ``Class.method``-style symbol."""

    def walk(node: ast.AST, symbol: str) -> Iterator[Tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{symbol}.{child.name}" if symbol else child.name
                yield child, inner
                yield from walk(child, inner)
            else:
                yield child, symbol
                yield from walk(child, symbol)

    yield from walk(tree, "")


def call_name(node: ast.Call) -> str:
    """The terminal name of a call target: ``a.b.c(...)`` -> ``"c"``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def dotted_name(node: ast.AST) -> str:
    """Render ``a.b.c`` attribute chains; empty string for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def string_value(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def class_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
    }


def find_classes(project: Project) -> Iterator[Tuple[ModuleInfo, ast.ClassDef]]:
    for mod in project.modules:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ClassDef):
                yield mod, node


def self_attr_target(node: ast.AST) -> Optional[str]:
    """``self.X`` as an assignment target -> ``"X"``; else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None
