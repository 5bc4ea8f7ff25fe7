"""The distributed-protocol rules, RL007-RL012.

Where RL001-RL006 (:mod:`repro.lint.rules`) guard the simulation core,
these six guard the queue/worker/broker layer — the contracts that span
a socket, a process boundary, or a shared directory, where the two
sides can drift apart without any single module looking wrong.  They
lean on :mod:`repro.lint.flow` for the project-level facts (constant
propagation, the import graph, the wire-protocol extractors); as
everywhere in ``repro.lint``, nothing is imported or executed — a
broken tree still lints.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    call_name,
    class_methods,
    dotted_name,
    iter_with_symbols,
    register,
    self_attr_target,
    string_value,
)
from repro.lint.flow import (
    ClientCall,
    ConstEnv,
    ModuleGraph,
    RequestFields,
    client_calls,
    dispatch_table,
    request_fields,
)
from repro.lint.rules import _yield

#: Modules whose on-disk records other processes trust (RL007).  A torn
#: write in any of these is a corrupt lease, memo, or journal head that
#: some *other* worker will read back and believe.
PERSISTENCE_MODULES = (
    "repro.analysis.workqueue",
    "repro.analysis.netqueue",
    "repro.analysis.checkpoint",
    "repro.analysis.result_cache",
    "repro.trace.store",
)

#: The module every sealed write must flow through (RL007).
DISKIO_MODULE = "repro.common.diskio"

#: The exit-code registry module (RL008).
EXITCODES_MODULE = "repro.analysis.exitcodes"

#: Packages / modules whose processes talk exit codes to each other
#: (RL008's literal scan).  ``repro.analysis`` covers worker, broker
#: and supervisor; ``repro.cli`` is the worker entry point;
#: ``repro.common.faults`` injects the chaos death.
EXIT_MODULES = ("repro.analysis", "repro.cli", "repro.common.faults")

#: The worker entry point and the triage side (RL008's import check).
WORKER_ENTRY_MODULE = "repro.cli"
SUPERVISOR_MODULE = "repro.analysis.supervisor"

#: The TCP transport module: client class, broker class (RL009/RL010).
NETQUEUE_MODULE = "repro.analysis.netqueue"
CLIENT_CLASS = "NetQueue"
BROKER_CLASS = "Broker"

#: The fault-site declarations RL011 audits for side symmetry.
FAULTS_MODULE = "repro.common.faults"

#: Modules that open sockets / files / locks next to a process or host
#: boundary (RL012).
HANDLE_MODULES = (
    "repro.analysis.netqueue",
    "repro.analysis.workqueue",
    "repro.analysis.supervisor",
    "repro.analysis.backend",
)

#: Handle factories whose result must not leak (RL012).
HANDLE_FACTORIES = frozenset(
    {
        "open",
        "socket.socket",
        "socket.create_connection",
        "create_connection",
        "SharedMemory",
        "shared_memory.SharedMemory",
    }
)


def _assign_dict(
    mod: ModuleInfo, name: str
) -> Optional[Tuple[ast.Dict, int]]:
    """The module-level dict literal assigned to ``name``, if any."""
    for node in mod.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                if isinstance(value, ast.Dict):
                    return value, node.lineno
                return None
    return None


def _find_class(mod: ModuleInfo, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


# ======================================================================
# RL007 — atomic persistence
# ======================================================================
@register
class AtomicPersistenceRule(Rule):
    """Persistence modules never truncate-write a record in place.

    Queue leases, broker snapshots, cache memos and trace archives are
    read by *other* processes that trust what they find; a bare
    ``open(path, "w")`` (or ``Path.write_text``/``write_bytes``) leaves
    a half-written record visible to them the moment the file is
    truncated.  Every durable write in a persistence module must flow
    through the sealed-write helpers in :mod:`repro.common.diskio`
    (``atomic_write_json`` / ``atomic_write_bytes``: temp sibling plus
    ``os.replace``).  Append mode is exempt — the checkpoint journal's
    ``open(path, "a")`` + write + flush per line never truncates (its
    fsync comes once per batch, at commit), and readers tolerate a torn
    tail by design.
    """

    id = "RL007"
    title = "atomic persistence"
    severity = "error"
    rationale = "a torn write in a queue/cache directory is a record another worker trusts"

    def check(self, project: Project) -> Iterator[Finding]:
        for name in PERSISTENCE_MODULES:
            mod = project.module(name)
            if mod is not None:
                yield from self._check_module(mod)

    def _check_module(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node, symbol in iter_with_symbols(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_mode(node)
                if mode is not None and ("w" in mode or "x" in mode or "+" in mode):
                    yield from _yield(self.finding(
                        mod, node.lineno,
                        f"bare open(..., {mode!r}) in a persistence module: a "
                        "truncate-write exposes a torn record to concurrent "
                        f"readers — route it through {DISKIO_MODULE}."
                        "atomic_write_bytes/json (append mode is exempt)",
                        symbol=f"{symbol}:open-{mode}",
                    ))
            elif isinstance(func, ast.Attribute) and func.attr in (
                "write_text", "write_bytes"
            ):
                yield from _yield(self.finding(
                    mod, node.lineno,
                    f".{func.attr}() in a persistence module truncates in "
                    f"place: route it through {DISKIO_MODULE}."
                    "atomic_write_bytes/json so readers never see a torso",
                    symbol=f"{symbol}:{func.attr}",
                ))

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        if len(node.args) >= 2:
            return string_value(node.args[1])
        for kw in node.keywords:
            if kw.arg == "mode":
                return string_value(kw.value)
        return None  # default "r": not a write


# ======================================================================
# RL008 — exit-code registry
# ======================================================================
@register
class ExitCodeRegistryRule(Rule):
    """Process exit codes come from the registry, and the supervisor
    triages every code the registry says it must.

    A worker's exit status is a one-byte wire protocol between the
    dying process and the :class:`FleetSupervisor` that decides whether
    the death costs crash budget.  Direction one: every ``sys.exit`` /
    ``os._exit`` integer in the distributed layer (and every non-0/1
    ``return`` literal in a CLI command) must resolve — possibly
    through aliases and lazy imports — to a constant registered in
    :mod:`repro.analysis.exitcodes`.  Direction two: the supervisor
    module must reference every constant in ``SUPERVISED`` (so a newly
    registered special code cannot be silently lumped into the generic
    crash branch), must never compare the exit code against an
    unregistered value, and both the worker entry point and the
    supervisor must actually import the registry.
    """

    id = "RL008"
    title = "exit-code registry"
    severity = "error"
    rationale = "an exit code one side never heard of is a crash, not a protocol"

    def check(self, project: Project) -> Iterator[Finding]:
        env = ConstEnv(project)
        reg_mod = project.module(EXITCODES_MODULE)
        registry = self._registry(reg_mod, env, "CODES") if reg_mod else None
        if registry is None:
            mod = reg_mod or (project.modules[0] if project.modules else None)
            if mod is not None:
                yield from _yield(self.finding(
                    mod, 1,
                    f"{EXITCODES_MODULE} does not define a CODES registry "
                    "dict (named constant -> description): exit codes "
                    "cannot be audited",
                    symbol="CODES:missing",
                ))
            return
        codes, _ = registry

        yield from self._check_literals(project, env, codes)
        yield from self._check_supervisor(project, env, reg_mod, codes)

    # -- direction one: literals resolve to the registry ----------------
    def _check_literals(
        self, project: Project, env: ConstEnv, codes: Dict[int, str]
    ) -> Iterator[Finding]:
        for mod in project.in_packages(EXIT_MODULES):
            if mod.name == EXITCODES_MODULE:
                continue
            for node, symbol in iter_with_symbols(mod.tree):
                if isinstance(node, ast.Call):
                    name = dotted_name(node.func) or call_name(node)
                    if name not in ("sys.exit", "os._exit", "exit", "_exit"):
                        continue
                    if not node.args:
                        continue
                    yield from self._check_exit_value(
                        mod, env, codes, node.args[0], symbol, name
                    )
                elif isinstance(node, ast.Return) and node.value is not None:
                    value = node.value
                    if (
                        isinstance(value, ast.Constant)
                        and isinstance(value.value, int)
                        and not isinstance(value.value, bool)
                        and value.value not in (0, 1)
                    ):
                        yield from _yield(self.finding(
                            mod, value.lineno,
                            f"bare exit-status literal {value.value} returned "
                            "from a distributed-layer function: name it in "
                            f"{EXITCODES_MODULE} so the supervisor's triage "
                            "and the worker agree on what it means",
                            symbol=f"{symbol}:return-{value.value}",
                        ))

    def _check_exit_value(
        self,
        mod: ModuleInfo,
        env: ConstEnv,
        codes: Dict[int, str],
        arg: ast.expr,
        symbol: str,
        via: str,
    ) -> Iterator[Finding]:
        if isinstance(arg, ast.Constant):
            if isinstance(arg.value, int) and not isinstance(arg.value, bool):
                yield from _yield(self.finding(
                    mod, arg.lineno,
                    f"{via}({arg.value}) uses a bare integer literal: use "
                    f"the named constant from {EXITCODES_MODULE} so both "
                    "sides of the exit-code protocol share one definition",
                    symbol=f"{symbol}:{via}-literal",
                ))
            return
        resolved = env.resolve_int(mod.name, arg)
        if resolved is not None and resolved not in codes:
            yield from _yield(self.finding(
                mod, arg.lineno,
                f"{via}(...) resolves to {resolved}, which is not "
                f"registered in {EXITCODES_MODULE}.CODES: register it "
                "with a one-line description",
                symbol=f"{symbol}:{via}-unregistered",
            ))

    # -- direction two: the supervisor holds up its end -----------------
    def _check_supervisor(
        self,
        project: Project,
        env: ConstEnv,
        reg_mod: Optional[ModuleInfo],
        codes: Dict[int, str],
    ) -> Iterator[Finding]:
        graph = ModuleGraph(project)
        for name in (WORKER_ENTRY_MODULE, SUPERVISOR_MODULE):
            mod = project.module(name)
            if mod is None:
                continue
            if not graph.imports_module(name, EXITCODES_MODULE):
                yield from _yield(self.finding(
                    mod, 1,
                    f"{name} does not import {EXITCODES_MODULE}: this side "
                    "of the exit-code protocol is running on hard-coded "
                    "numbers",
                    symbol=f"{name}:no-registry-import",
                ))

        sup = project.module(SUPERVISOR_MODULE)
        if sup is None or reg_mod is None:
            return
        supervised = self._registry(reg_mod, env, "SUPERVISED")
        if supervised is None:
            yield from _yield(self.finding(
                reg_mod, 1,
                f"{EXITCODES_MODULE} does not define a SUPERVISED dict "
                "(which codes the supervisor must triage explicitly)",
                symbol="SUPERVISED:missing",
            ))
            return
        supervised_codes, supervised_names = supervised

        referenced = {
            node.id for node in ast.walk(sup.tree) if isinstance(node, ast.Name)
        }
        for value, const_name in sorted(supervised_names.items()):
            # The constant itself, or a local alias resolving to its
            # value (WORKER_EXIT_PRESSURE = EXIT_PRESSURE), both count.
            aliased = any(
                env.resolve(SUPERVISOR_MODULE, name) == value for name in referenced
            )
            if const_name not in referenced and not aliased:
                yield from _yield(self.finding(
                    sup, 1,
                    f"supervisor never references {const_name} (exit code "
                    f"{value}), which {EXITCODES_MODULE}.SUPERVISED says "
                    "must be triaged explicitly — it is falling into the "
                    "generic crash branch",
                    symbol=f"supervised:{const_name}:unhandled",
                ))

        for node, symbol in iter_with_symbols(sup.tree):
            if not isinstance(node, ast.Compare) or len(node.ops) != 1:
                continue
            if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                continue
            sides = [node.left, node.comparators[0]]
            names = [s.id for s in sides if isinstance(s, ast.Name)]
            if "code" not in names:
                continue
            for side in sides:
                if isinstance(side, ast.Name) and side.id == "code":
                    continue
                value = env.resolve_int(SUPERVISOR_MODULE, side)
                if value is not None and value not in codes:
                    yield from _yield(self.finding(
                        sup, node.lineno,
                        f"supervisor triage compares the worker exit code "
                        f"against {value}, which is not registered in "
                        f"{EXITCODES_MODULE}.CODES",
                        symbol=f"{symbol}:triage-{value}",
                    ))

    def _registry(
        self, reg_mod: ModuleInfo, env: ConstEnv, name: str
    ) -> Optional[Tuple[Dict[int, str], Dict[int, str]]]:
        """``name``'s dict in the registry module: value -> description,
        plus value -> defining constant name (keys must be Names)."""
        found = _assign_dict(reg_mod, name)
        if found is None:
            return None
        node, _ = found
        codes: Dict[int, str] = {}
        names: Dict[int, str] = {}
        for key, val in zip(node.keys, node.values):
            if key is None:
                continue
            value = env.resolve_int(reg_mod.name, key)
            if value is None:
                continue
            codes[value] = string_value(val) or ""
            if isinstance(key, ast.Name):
                names[value] = key.id
        return codes, names


# ======================================================================
# RL009 — wire-protocol parity
# ======================================================================
@register
class WireParityRule(Rule):
    """The client's op vocabulary and the broker's dispatch table match.

    The two halves of the TCP transport live a socket apart: an op the
    client sends but the broker never dispatches is an "unknown op"
    error discovered at runtime; a dispatch branch no client call
    reaches is dead protocol.  Beyond the op *names*, the field sets
    must agree — every ``request["field"]`` a handler requires must be
    a key in the client's payload literal, and every payload key must
    be read (required or optional) by the handler, following the
    request one level into same-class helpers.  Dynamic op strings on
    either side defeat the audit and are flagged outright.
    """

    id = "RL009"
    title = "wire-protocol parity"
    severity = "error"
    rationale = "a desynced op name or field set is a runtime protocol error"

    def check(self, project: Project) -> Iterator[Finding]:
        mod = project.module(NETQUEUE_MODULE)
        if mod is None:
            return
        client = _find_class(mod, CLIENT_CLASS)
        broker = _find_class(mod, BROKER_CLASS)
        if client is None or broker is None:
            missing = CLIENT_CLASS if client is None else BROKER_CLASS
            yield from _yield(self.finding(
                mod, 1,
                f"{NETQUEUE_MODULE} does not define class {missing}: the "
                "wire protocol cannot be audited",
                symbol=f"{missing}:missing",
            ))
            return
        dispatch = class_methods(broker).get("_dispatch")
        if dispatch is None:
            yield from _yield(self.finding(
                mod, broker.lineno,
                f"{BROKER_CLASS} has no _dispatch method: the op table "
                "cannot be extracted",
                symbol=f"{BROKER_CLASS}._dispatch:missing",
            ))
            return

        calls = client_calls(client)
        table = dispatch_table(dispatch)

        for line in table.dynamic:
            yield from _yield(self.finding(
                mod, line,
                "dispatch compares the op against a non-literal: op names "
                "must be auditable string constants",
                symbol=f"{BROKER_CLASS}._dispatch:dynamic-op",
            ))
        client_ops: Dict[str, ClientCall] = {}
        for call in calls:
            if call.op is None:
                yield from _yield(self.finding(
                    mod, call.line,
                    f"{call.symbol} sends a non-literal op name: op names "
                    "must be auditable string constants",
                    symbol=f"{call.symbol}:dynamic-op",
                ))
            else:
                client_ops.setdefault(call.op, call)

        for op, call in sorted(client_ops.items()):
            if op not in table.ops:
                yield from _yield(self.finding(
                    mod, call.line,
                    f"client sends op {op!r} but {BROKER_CLASS}._dispatch "
                    "has no branch for it: the broker will answer "
                    "'unknown op' at runtime",
                    symbol=f"op:{op}:unhandled",
                ))
        for op, line in sorted(table.ops.items()):
            if op not in client_ops:
                yield from _yield(self.finding(
                    mod, line,
                    f"{BROKER_CLASS}._dispatch handles op {op!r} but no "
                    f"{CLIENT_CLASS} call site sends it: dead protocol "
                    "(or a client someone forgot to write)",
                    symbol=f"op:{op}:unsent",
                ))

        branch_fields = self._branch_fields(broker, dispatch)
        for call in calls:
            if call.op is None or call.op not in branch_fields:
                continue
            if call.payload_keys is None:
                continue  # dynamic payload: nothing auditable here
            fields = branch_fields[call.op]
            sent = call.payload_keys | {"op"}
            for name, line in sorted(fields.required.items()):
                if name not in sent:
                    yield from _yield(self.finding(
                        mod, call.line,
                        f"handler for op {call.op!r} requires request "
                        f"field {name!r} (line {line}) but {call.symbol} "
                        "does not send it: KeyError on the broker",
                        symbol=f"op:{call.op}:{name}:missing",
                    ))
            read = set(fields.required) | set(fields.optional) | {"op"}
            for name in sorted(call.payload_keys):
                if name not in read:
                    yield from _yield(self.finding(
                        mod, call.line,
                        f"{call.symbol} sends field {name!r} with op "
                        f"{call.op!r} but the handler never reads it: "
                        "dead payload (or a typo'd field name)",
                        symbol=f"op:{call.op}:{name}:unread",
                    ))

    def _branch_fields(
        self, broker: ast.ClassDef, dispatch: ast.FunctionDef
    ) -> Dict[str, RequestFields]:
        """Field reads per dispatched op, following one helper level."""
        methods = class_methods(broker)
        by_op: Dict[str, RequestFields] = {}
        for node in ast.walk(dispatch):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if not (
                isinstance(test, ast.Compare)
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Eq)
                and isinstance(test.left, ast.Name)
                and test.left.id == "op"
            ):
                continue
            op = string_value(test.comparators[0])
            if op is None:
                continue
            fields = RequestFields()
            for stmt in node.body:
                branch = request_fields(stmt)
                fields.merge(branch)
                fields.forwarded_to.extend(branch.forwarded_to)
            for helper in fields.forwarded_to:
                target = methods.get(helper)
                if target is None:
                    continue
                params = [a.arg for a in target.args.args if a.arg != "self"]
                if params:
                    fields.merge(request_fields(target, param=params[0]))
            by_op.setdefault(op, fields)
        return by_op


# ======================================================================
# RL010 — retry idempotency
# ======================================================================
@register
class RetryIdempotencyRule(Rule):
    """Only audited-idempotent ops run under the retry wrapper, and an
    application error never re-enters the retry loop.

    ``NetQueue._call`` replays its op after a connection error — safe
    only when the replay is idempotent, which is a property someone has
    to *audit*, not assume.  The manifest ``IDEMPOTENT_OPS`` in the
    transport module records that audit: a ``_call`` on an undeclared
    op fails here, and a declared op with no remaining call site is a
    stale audit.  Separately, a ``{"ok": false}`` response is a broker
    *decision*, not a transport fault — ``_call`` must raise it out of
    the loop, and no retrying ``except`` may be broad enough to swallow
    that exception back into another attempt.
    """

    id = "RL010"
    title = "retry idempotency"
    severity = "error"
    rationale = "replaying a non-idempotent op duplicates work; retrying an app error loops on it"

    MANIFEST_NAME = "IDEMPOTENT_OPS"

    def check(self, project: Project) -> Iterator[Finding]:
        mod = project.module(NETQUEUE_MODULE)
        if mod is None:
            return
        env = ConstEnv(project)
        manifest = env.resolve(NETQUEUE_MODULE, self.MANIFEST_NAME)
        if not isinstance(manifest, frozenset):
            yield from _yield(self.finding(
                mod, 1,
                f"{NETQUEUE_MODULE} does not define an {self.MANIFEST_NAME} "
                "frozenset of string literals: retried ops cannot be "
                "audited for idempotency",
                symbol=f"{self.MANIFEST_NAME}:missing",
            ))
            return

        client = _find_class(mod, CLIENT_CLASS)
        calls = client_calls(client) if client is not None else []
        called_ops: Set[str] = set()
        for call in calls:
            if call.op is None:
                continue  # RL009 already flags dynamic op names
            called_ops.add(call.op)
            if call.op not in manifest:
                yield from _yield(self.finding(
                    mod, call.line,
                    f"{call.symbol} executes op {call.op!r} under the retry "
                    f"wrapper but {self.MANIFEST_NAME} does not declare it "
                    "idempotent: audit the replay story, then add it",
                    symbol=f"op:{call.op}:undeclared",
                ))
        for op in sorted(manifest - called_ops):
            yield from _yield(self.finding(
                mod, 1,
                f"{self.MANIFEST_NAME} declares op {op!r} idempotent but "
                "no call site executes it: remove the stale audit entry",
                symbol=f"op:{op}:stale-manifest",
            ))

        if client is not None:
            yield from self._check_loop(mod, client)

    def _check_loop(self, mod: ModuleInfo, client: ast.ClassDef) -> Iterator[Finding]:
        call_method = class_methods(client).get("_call")
        if call_method is None:
            yield from _yield(self.finding(
                mod, client.lineno,
                f"{CLIENT_CLASS} has no _call method: the retry loop "
                "cannot be audited",
                symbol=f"{CLIENT_CLASS}._call:missing",
            ))
            return
        raised = self._ok_false_raises(call_method)
        if raised is None:
            yield from _yield(self.finding(
                mod, call_method.lineno,
                '_call never checks response.get("ok") and raises: an '
                "application error would be returned (or worse, retried) "
                "instead of surfacing as an exception",
                symbol=f"{CLIENT_CLASS}._call:no-ok-check",
            ))
            return
        for handler in ast.walk(call_method):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            if not any(isinstance(n, ast.Continue) for n in ast.walk(handler)):
                continue
            caught = self._caught_names(handler)
            broad = caught & {raised, "Exception", "BaseException"}
            if broad:
                yield from _yield(self.finding(
                    mod, handler.lineno,
                    f"retrying except clause catches {sorted(broad)} — it "
                    f"would swallow the {raised} raised for an "
                    '{"ok": false} response and re-enter the retry loop '
                    "on an application error",
                    symbol=f"{CLIENT_CLASS}._call:retries-app-error",
                ))

    @staticmethod
    def _ok_false_raises(func: ast.FunctionDef) -> Optional[str]:
        """The exception name raised when ``response.get("ok")`` is falsy."""
        for node in ast.walk(func):
            if not isinstance(node, ast.If):
                continue
            has_ok_get = any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "get"
                and sub.args
                and string_value(sub.args[0]) == "ok"
                for sub in ast.walk(node.test)
            )
            if not has_ok_get:
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Raise) and sub.exc is not None:
                        exc = sub.exc
                        if isinstance(exc, ast.Call):
                            return call_name(exc) or "Exception"
                        if isinstance(exc, ast.Name):
                            return exc.id
        return None

    @staticmethod
    def _caught_names(handler: ast.ExceptHandler) -> Set[str]:
        if handler.type is None:
            return {"BaseException"}  # a bare except catches everything
        names: Set[str] = set()
        types = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        for t in types:
            name = dotted_name(t)
            if name:
                names.add(name.split(".")[-1])
        return names


# ======================================================================
# RL011 — fault-site symmetry
# ======================================================================
@register
class FaultSymmetryRule(Rule):
    """Two-sided fault sites are injectable and tested on both sides.

    The ``network`` site names its side in the fault key (``client|op``
    vs ``broker|op``) — chaos coverage of one side says nothing about
    the other, so both prefixes must exist at ``fault_point`` call
    sites *and* be targeted by a ``match=`` filter somewhere under
    ``tests/``.  The ``pressure`` site is one registry entry injected
    from two kinds (``enospc`` / ``mem-pressure``): every call site
    must pass ``key=`` and ``attempt=`` (or plans cannot target a
    window), and both kinds must appear in the test corpus.
    """

    id = "RL011"
    title = "fault-site symmetry"
    severity = "error"
    rationale = "a fault site tested on one side only is half a resilience promise"

    _NETWORK_SIDES = ("client", "broker")
    _PRESSURE_KINDS = ("enospc", "mem-pressure")

    def check(self, project: Project) -> Iterator[Finding]:
        faults_mod = project.module(FAULTS_MODULE)
        if faults_mod is None:
            return
        sites = self._site_names(faults_mod)
        corpus = "\n".join(project.test_sources.values())
        if "network" in sites:
            yield from self._check_network(project, faults_mod, corpus)
        if "pressure" in sites:
            yield from self._check_pressure(project, corpus)

    def _check_network(
        self, project: Project, faults_mod: ModuleInfo, corpus: str
    ) -> Iterator[Finding]:
        side_sites: Dict[str, Tuple[ModuleInfo, int]] = {}
        for mod, node, site in self._fault_points(project):
            if site != "network":
                continue
            prefix = self._key_prefix(node)
            if prefix is None:
                yield from _yield(self.finding(
                    mod, node.lineno,
                    "network fault_point whose key does not start with a "
                    "'client|' / 'broker|' literal: the side cannot be "
                    "audited or targeted",
                    symbol="network:unsided-key",
                ))
                continue
            side_sites.setdefault(prefix, (mod, node.lineno))
        for side in self._NETWORK_SIDES:
            if side not in side_sites:
                yield from _yield(self.finding(
                    faults_mod, 1,
                    f"fault site 'network' has no injectable {side}-side "
                    f"call (no fault_point key starting '{side}|'): the "
                    f"{side} half of the transport is chaos-blind",
                    symbol=f"network:{side}:uninjectable",
                ))
            elif f"match={side}|" not in corpus:
                mod, line = side_sites[side]
                yield from _yield(self.finding(
                    mod, line,
                    f"the {side} side of the 'network' fault site is never "
                    f"exercised (no 'match={side}|' plan under tests/)",
                    symbol=f"network:{side}:untested",
                ))

    def _check_pressure(self, project: Project, corpus: str) -> Iterator[Finding]:
        for mod, node, site in self._fault_points(project):
            if site != "pressure":
                continue
            kwargs = {kw.arg for kw in node.keywords}
            for required in ("key", "attempt"):
                if required not in kwargs:
                    yield from _yield(self.finding(
                        mod, node.lineno,
                        f"pressure fault_point without {required}=: plans "
                        "cannot open a deterministic pressure window "
                        "against this call site",
                        symbol=f"pressure:no-{required}",
                    ))
        for kind in self._PRESSURE_KINDS:
            if f"{kind}@pressure" not in corpus:
                mod = project.module(DISKIO_MODULE) or project.modules[0]
                yield from _yield(self.finding(
                    mod, 1,
                    f"pressure kind {kind!r} is never exercised (no "
                    f"'{kind}@pressure' plan under tests/): half the "
                    "pressure model is untested",
                    symbol=f"pressure:{kind}:untested",
                ))

    def _fault_points(
        self, project: Project
    ) -> Iterator[Tuple[ModuleInfo, ast.Call, str]]:
        for mod in project.modules:
            if mod.name.startswith("repro.lint"):
                continue
            for node in ast.walk(mod.tree):
                if (
                    isinstance(node, ast.Call)
                    and call_name(node) == "fault_point"
                    and node.args
                ):
                    site = string_value(node.args[0])
                    if site is not None:
                        yield mod, node, site

    @staticmethod
    def _key_prefix(node: ast.Call) -> Optional[str]:
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            value = kw.value
            text: Optional[str] = None
            if isinstance(value, ast.JoinedStr) and value.values:
                text = string_value(value.values[0])
            else:
                text = string_value(value)
            if text is not None and "|" in text:
                return text.split("|", 1)[0]
        return None

    def _site_names(self, faults_mod: ModuleInfo) -> Set[str]:
        found = _assign_dict(faults_mod, "SITES")
        if found is None:
            return set()
        node, _ = found
        return {
            k for k in (
                string_value(key) for key in node.keys if key is not None
            ) if k is not None
        }


# ======================================================================
# RL012 — handle lifecycle
# ======================================================================
@register
class HandleLifecycleRule(Rule):
    """OS handles near a boundary are released on every path and shed
    before pickling.

    A socket or file handle acquired in a boundary module and bound to
    a plain local either leaks when an exception skips its ``close()``
    or poisons a pickle when it rides along.  A local handle binding is
    accepted only when the function (a) closes it in a ``finally``, (b)
    returns it (ownership transfer — the caller now owns the close), or
    (c) parks it on an attribute (``self._sock = sock``), which hands
    lifecycle duty to the class — whose handle-bearing attributes must
    in turn be covered by ``__getstate__``/``__reduce__`` so the handle
    is shed before any pickle.  ``with``-statement acquisitions are
    inherently safe and never flagged.
    """

    id = "RL012"
    title = "handle lifecycle"
    severity = "error"
    rationale = "a leaked socket survives the sweep; a pickled one kills the payload"

    def check(self, project: Project) -> Iterator[Finding]:
        for name in HANDLE_MODULES:
            mod = project.module(name)
            if mod is None:
                continue
            yield from self._check_locals(mod)
            yield from self._check_pickle_shed(mod)

    def _check_locals(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node, symbol in iter_with_symbols(mod.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(mod, node, symbol)

    @staticmethod
    def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
        """Walk a function's body without descending into nested defs
        (those get their own :meth:`_check_function` visit)."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_function(
        self, mod: ModuleInfo, func: ast.AST, symbol: str
    ) -> Iterator[Finding]:
        acquisitions: List[Tuple[str, str, int]] = []  # (var, factory, line)
        for stmt in self._own_nodes(func):
            if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
                continue
            factory = dotted_name(stmt.value.func) or call_name(stmt.value)
            if factory not in HANDLE_FACTORIES:
                continue
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    acquisitions.append((target.id, factory, stmt.lineno))
        if not acquisitions:
            return
        closed = self._closed_in_finally(func)
        returned = self._returned_names(func)
        parked = self._parked_names(func)
        for var, factory, line in acquisitions:
            if var in closed or var in returned or var in parked:
                continue
            yield from _yield(self.finding(
                mod, line,
                f"{factory}() handle bound to local {var!r} with no "
                "finally-close, no ownership-transferring return, and no "
                "attribute park: an exception on any path leaks it",
                symbol=f"{symbol}:{var}:leak",
            ))

    @staticmethod
    def _closed_in_finally(func: ast.AST) -> Set[str]:
        closed: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Try) or not node.finalbody:
                continue
            for stmt in node.finalbody:
                for sub in ast.walk(stmt):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in ("close", "shutdown", "unlink", "release")
                        and isinstance(sub.func.value, ast.Name)
                    ):
                        closed.add(sub.func.value.id)
        return closed

    @staticmethod
    def _returned_names(func: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        return names

    @staticmethod
    def _parked_names(func: ast.AST) -> Set[str]:
        """Locals assigned onto any attribute (``self._sock = sock``)."""
        parked: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            if not any(isinstance(t, ast.Attribute) for t in node.targets):
                continue
            if isinstance(node.value, ast.Name):
                parked.add(node.value.id)
        return parked

    def _check_pickle_shed(self, mod: ModuleInfo) -> Iterator[Finding]:
        """RL002's handle-on-self check, extended to RL012's module set."""
        from repro.lint.rules import PoolSafetyRule

        if mod.name in PoolSafetyRule.boundary_modules():
            return  # RL002 already owns this module; avoid double findings
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = class_methods(node)
            if "__reduce__" in methods or "__getstate__" in methods:
                continue
            for method in methods.values():
                for stmt in ast.walk(method):
                    if not isinstance(stmt, ast.Assign):
                        continue
                    if not isinstance(stmt.value, ast.Call):
                        continue
                    factory = dotted_name(stmt.value.func) or call_name(stmt.value)
                    if factory not in HANDLE_FACTORIES:
                        continue
                    for target in stmt.targets:
                        attr = self_attr_target(target)
                        if attr is None:
                            continue
                        yield from _yield(self.finding(
                            mod, stmt.lineno,
                            f"{node.name}.{attr} parks a live {factory}() "
                            "handle without __reduce__/__getstate__: the "
                            "handle rides into any pickle of this object",
                            symbol=f"{node.name}.{attr}:unshed",
                        ))

