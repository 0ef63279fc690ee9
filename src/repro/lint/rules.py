"""The rule catalogue: what each check protects and how it decides.

Every rule is a class with an ``id``, a scope predicate (:meth:`applies`)
over the file's *repro-relative* path (``algorithms/awc.py``), and a
:meth:`check` that yields :class:`~repro.lint.findings.Finding` objects.
The rules encode repo-specific knowledge on purpose — this is not a
general-purpose linter, it is the paper's invariants made executable:

=====  ======================================================================
D1     No process-global ``random`` in simulated code. A module-level
       ``random.random()`` call makes a trial's outcome depend on every
       draw any other code made before it — and on trial execution order,
       which ``--jobs N`` changes. Only explicit ``random.Random``
       instances (usually via ``derive_rng``) are allowed.
D2     No wall-clock reads in ``runtime/`` or ``algorithms/``. Simulated
       time is cycles; real time leaking into a decision breaks
       bit-reproducibility. The simulator's own ``sim_time`` accounting is
       allowlisted (it measures, it never decides).
D3     No order-sensitive iteration over sets in ``algorithms/``. Python
       set order depends on insertion history and value hashes; if it can
       reach a tie-breaking decision, two identical runs can diverge.
P1     Agent isolation: ``*Message`` dataclasses must be ``frozen=True``
       everywhere, and algorithm code must not mutate a received message.
       Messages in flight are shared structure; mutation is telepathy
       between agents the paper's model forbids.
M1     Metric accounting: agent code must not call uncounted consistency
       predicates (``Nogood.prohibits``) or ``is_violated`` on anything
       but a store. Every check must bump the ``CheckCounter`` that feeds
       ``maxcck`` (Section 4's cost measure).
X0     Malformed control comments (a ``disable=`` without justification is
       itself a finding — suppressions document why an invariant holds),
       and ``hotpaths.toml`` items that name no module or function.
=====  ======================================================================
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .graph import ProjectGraph

#: Directories (repro-relative) whose code runs *inside* a simulated trial.
SIMULATED_DIRS = ("algorithms/", "problems/", "runtime/")

#: The one module allowed to own the process-global `random` module.
RANDOM_SOURCE_MODULE = "runtime/random_source.py"

#: Modules allowed to read the wall clock: the simulators' sim_time /
#: wall_time accounting (observational — the values never feed a simulated
#: decision), and the socket transport, whose whole point is wall-clock
#: concurrency (its results are documented as non-deterministic).
WALL_CLOCK_ALLOWLIST = (
    "runtime/simulator.py",
    "runtime/events/engine.py",
    "runtime/events/socket_transport.py",
)

#: `random` module functions that touch the hidden global Mersenne state.
#: (`Random` is the seedable class and is exactly what code *should* use.)
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "random", "seed", "randint", "randrange", "choice", "choices",
        "shuffle", "sample", "uniform", "betavariate", "expovariate",
        "gammavariate", "gauss", "getrandbits", "lognormvariate",
        "normalvariate", "paretovariate", "triangular", "vonmisesvariate",
        "weibullvariate", "binomialvariate", "randbytes", "getstate",
        "setstate",
    }
)

#: Wall-clock readers on the `time` module.
TIME_FUNCS = frozenset(
    {
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns",
        "clock_gettime", "clock_gettime_ns", "localtime", "gmtime",
    }
)

#: Wall-clock constructors on datetime classes.
DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: Attributes known (repo-wide) to hold set-typed values. This is the
#: repo-specific part of D3: `SingleVariableAgent.recipients` is a set of
#: agent ids, and `Nogood.variables` / `Nogood.pairs` are frozensets.
KNOWN_SET_ATTRS = frozenset({"recipients", "variables", "pairs"})

#: Builtins whose result does not depend on argument iteration order.
#: ``Nogood`` is repo-specific: its constructor normalizes pairs into a
#: frozenset, so feeding it an unordered iterable is safe.
ORDER_INSENSITIVE_SINKS = frozenset(
    {"set", "frozenset", "sorted", "sum", "min", "max", "any", "all", "len",
     "Nogood"}
)

#: Set methods whose result/effect does not depend on argument order.
ORDER_INSENSITIVE_METHODS = frozenset(
    {"update", "union", "intersection", "difference",
     "symmetric_difference", "intersection_update", "difference_update",
     "symmetric_difference_update", "issubset", "issuperset", "isdisjoint"}
)

#: Methods on a store object that perform *counted* consistency checks.
COUNTED_CHECKS = frozenset(
    {"is_violated", "violated_higher", "count_violated",
     "count_violated_higher", "count_violated_lower", "violated",
     "is_consistent", "violated_batch", "count_violated_batch",
     "violated_higher_batch", "count_violated_higher_batch",
     "count_violated_lower_batch"}
)


def _in_dirs(scope: Optional[str], dirs: Sequence[str]) -> bool:
    return scope is not None and scope.startswith(tuple(dirs))


class _Imports:
    """Module/name aliases for `random`, `time` and `datetime` in one file."""

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> imported module name
        self.modules: Dict[str, str] = {}
        #: local name -> (source module, original name)
        self.names: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    self.modules[item.asname or item.name] = item.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for item in node.names:
                    self.names[item.asname or item.name] = (
                        node.module,
                        item.name,
                    )

    def module_of(self, name: str) -> Optional[str]:
        return self.modules.get(name)


class Rule:
    """Base class: subclasses set ``id``/``title`` and implement check()."""

    id = "?"
    title = "?"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    def applies(self, scope: Optional[str]) -> bool:
        """Whether this rule runs for a file at *scope* (repro-relative)."""
        raise NotImplementedError

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        """Yield findings for one file. File-local rules ignore *graph*;
        the whole-program rules (D4/P2/A1/A2) consult it."""
        raise NotImplementedError

    def _finding(
        self, node: ast.AST, path: str, lines: Sequence[str],
        message: str, hint: str,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        source = (
            lines[line - 1].strip() if 0 < line <= len(lines) else ""
        )
        return Finding(
            path=path, line=line, column=column + 1, rule=self.id,
            message=message, hint=hint, source=source,
        )


class UnseededRandomRule(Rule):
    """D1 — no process-global ``random.*`` calls in simulated code."""

    id = "D1"
    title = "no unseeded global random"

    def applies(self, scope: Optional[str]) -> bool:
        return (
            _in_dirs(scope, SIMULATED_DIRS) and scope != RANDOM_SOURCE_MODULE
        )

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        imports = _Imports(tree)
        hint = (
            "thread an explicit random.Random through (usually "
            "repro.runtime.random_source.derive_rng(seed, ...)) and call "
            "methods on that instance"
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for item in node.names:
                    if item.name != "Random":
                        yield self._finding(
                            node, path, lines,
                            f"'from random import {item.name}' pulls in the "
                            "process-global RNG; runs would depend on hidden "
                            "interpreter state",
                            hint,
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and imports.module_of(func.value.id) == "random"
                    and func.attr in GLOBAL_RANDOM_FUNCS
                ):
                    yield self._finding(
                        node, path, lines,
                        f"call to process-global random.{func.attr}() — the "
                        "draw depends on every other draw the process made, "
                        "so results change under --jobs N",
                        hint,
                    )


class WallClockRule(Rule):
    """D2 — no wall-clock reads inside the simulated world."""

    id = "D2"
    title = "no wall-clock reads"

    def applies(self, scope: Optional[str]) -> bool:
        return _in_dirs(scope, ("runtime/", "algorithms/")) and (
            scope not in WALL_CLOCK_ALLOWLIST
        )

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        imports = _Imports(tree)
        hint = (
            "simulated code must measure cost in cycles and checks, never "
            "seconds; if this is runner-side accounting, move it next to "
            "the simulator's sim_time bookkeeping (see WALL_CLOCK_ALLOWLIST)"
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for item in node.names:
                        if item.name in TIME_FUNCS:
                            yield self._finding(
                                node, path, lines,
                                f"'from time import {item.name}' imports a "
                                "wall-clock reader into simulated code",
                                hint,
                            )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            # time.<reader>()
            if (
                isinstance(base, ast.Name)
                and imports.module_of(base.id) == "time"
                and func.attr in TIME_FUNCS
            ):
                yield self._finding(
                    node, path, lines,
                    f"wall-clock read time.{func.attr}() in simulated code — "
                    "real time must never influence a simulated run",
                    hint,
                )
            # datetime.datetime.now() / datetime.date.today() and the
            # from-import spellings datetime.now() / date.today().
            elif func.attr in DATETIME_FUNCS and self._is_datetime_class(
                base, imports
            ):
                yield self._finding(
                    node, path, lines,
                    f"wall-clock read {ast.unparse(func)}() in simulated "
                    "code — real time must never influence a simulated run",
                    hint,
                )

    @staticmethod
    def _is_datetime_class(base: ast.expr, imports: _Imports) -> bool:
        if isinstance(base, ast.Name):
            origin = imports.names.get(base.id)
            return origin is not None and origin[0] == "datetime"
        if isinstance(base, ast.Attribute) and isinstance(
            base.value, ast.Name
        ):
            return (
                imports.module_of(base.value.id) == "datetime"
                and base.attr in ("datetime", "date")
            )
        return False


class SetIterationRule(Rule):
    """D3 — no order-sensitive iteration over sets in algorithm code."""

    id = "D3"
    title = "no order-sensitive set iteration"

    def applies(self, scope: Optional[str]) -> bool:
        return _in_dirs(scope, ("algorithms/",))

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        hint = (
            "wrap the iterable in sorted(...) so every run visits elements "
            "in the same order (or keep the whole pipeline set-shaped if "
            "order provably cannot matter)"
        )
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        set_names = self._set_assigned_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.For):
                if self._is_set_typed(node.iter, set_names):
                    yield self._finding(
                        node, path, lines,
                        "for-loop over a set — iteration order is "
                        "arbitrary, and the loop body can carry it into a "
                        "tie-breaking decision",
                        hint,
                    )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                if not any(
                    self._is_set_typed(gen.iter, set_names)
                    for gen in node.generators
                ):
                    continue
                parent = parents.get(node)
                if self._is_order_insensitive_sink(parent, node):
                    continue
                yield self._finding(
                    node, path, lines,
                    "comprehension over a set produces an "
                    "arbitrarily-ordered sequence",
                    hint,
                )
            # SetComp / DictComp over a set are order-free by construction.

    @staticmethod
    def _set_assigned_names(tree: ast.Module) -> Set[str]:
        """Names assigned a syntactically set-typed value anywhere in the file.

        A deliberately simple single-pass approximation: it does not track
        rebinding, so a name counts as set-typed if *any* assignment makes
        it one.
        """
        names: Set[str] = set()
        for node in ast.walk(tree):
            value: Optional[ast.expr] = None
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None or not SetIterationRule._is_set_typed(
                value, names
            ):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _is_set_typed(node: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Attribute):
            return node.attr in KNOWN_SET_ATTRS
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return SetIterationRule._is_set_typed(
                node.left, set_names
            ) or SetIterationRule._is_set_typed(node.right, set_names)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "union", "intersection", "difference",
                "symmetric_difference",
            ):
                return SetIterationRule._is_set_typed(func.value, set_names)
        return False

    @staticmethod
    def _is_order_insensitive_sink(
        parent: Optional[ast.AST], node: ast.AST
    ) -> bool:
        """True when *node*'s order cannot escape through *parent*."""
        if not isinstance(parent, ast.Call) or node not in parent.args:
            return False
        func = parent.func
        if isinstance(func, ast.Name):
            return func.id in ORDER_INSENSITIVE_SINKS
        if isinstance(func, ast.Attribute):
            return func.attr in ORDER_INSENSITIVE_METHODS
        return False


class AgentIsolationRule(Rule):
    """P1 — frozen messages everywhere; no message mutation in algorithms."""

    id = "P1"
    title = "agent isolation"

    def applies(self, scope: Optional[str]) -> bool:
        return True  # the frozen-dataclass half is repo-wide

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        yield from self._check_frozen_messages(tree, path, lines)
        if _in_dirs(scope, ("algorithms/",)):
            yield from self._check_message_mutation(tree, path, lines)

    # -- (a) every *Message dataclass is frozen -----------------------------

    def _check_frozen_messages(
        self, tree: ast.Module, path: str, lines: Sequence[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Message"):
                continue
            decorated = False
            frozen = False
            for decorator in node.decorator_list:
                target = decorator
                keywords: List[ast.keyword] = []
                if isinstance(decorator, ast.Call):
                    target = decorator.func
                    keywords = decorator.keywords
                name = (
                    target.id
                    if isinstance(target, ast.Name)
                    else target.attr
                    if isinstance(target, ast.Attribute)
                    else None
                )
                if name != "dataclass":
                    continue
                decorated = True
                for keyword in keywords:
                    if (
                        keyword.arg == "frozen"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                    ):
                        frozen = True
            if decorated and not frozen:
                yield self._finding(
                    node, path, lines,
                    f"message dataclass {node.name} is not frozen — a "
                    "buffered message could be mutated after sending, which "
                    "is covert agent-to-agent communication",
                    "declare it @dataclass(frozen=True)",
                )

    # -- (b) algorithms never mutate a received message ---------------------

    def _check_message_mutation(
        self, tree: ast.Module, path: str, lines: Sequence[str]
    ) -> Iterator[Finding]:
        hint = (
            "messages are immutable once sent; build a new message "
            "(dataclasses.replace(...)) and send that instead"
        )
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            message_names = self._message_names(node)
            if not message_names:
                continue
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Assign, ast.AugAssign)):
                    targets = (
                        inner.targets
                        if isinstance(inner, ast.Assign)
                        else [inner.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in message_names
                        ):
                            yield self._finding(
                                inner, path, lines,
                                f"assignment to attribute of received "
                                f"message '{target.value.id}'",
                                hint,
                            )
                elif isinstance(inner, ast.Delete):
                    for target in inner.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in message_names
                        ):
                            yield self._finding(
                                inner, path, lines,
                                f"deletion of attribute of received "
                                f"message '{target.value.id}'",
                                hint,
                            )
                elif isinstance(inner, ast.Call):
                    func = inner.func
                    is_setattr = (
                        isinstance(func, ast.Name) and func.id == "setattr"
                    )
                    is_object_setattr = (
                        isinstance(func, ast.Attribute)
                        and func.attr == "__setattr__"
                    )
                    if (
                        (is_setattr or is_object_setattr)
                        and inner.args
                        and isinstance(inner.args[0], ast.Name)
                        and inner.args[0].id in message_names
                    ):
                        yield self._finding(
                            inner, path, lines,
                            f"setattr on received message "
                            f"'{inner.args[0].id}' bypasses frozen-dataclass "
                            "protection",
                            hint,
                        )

    @staticmethod
    def _message_names(function: ast.AST) -> Set[str]:
        """Names in *function* that (heuristically) hold received messages.

        A name qualifies when it is a parameter with a ``*Message``
        annotation, the loop variable of ``for <name> in messages:``, or is
        isinstance-tested against a ``*Message`` class.
        """
        names: Set[str] = set()
        args = getattr(function, "args", None)
        if args is not None:
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                annotation = arg.annotation
                if annotation is not None and "Message" in ast.dump(
                    annotation
                ):
                    names.add(arg.arg)
        for node in ast.walk(function):
            if (
                isinstance(node, ast.For)
                and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Name)
                and node.iter.id == "messages"
            ):
                names.add(node.target.id)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and isinstance(node.args[0], ast.Name)
            ):
                classinfo = node.args[1]
                candidates = (
                    list(classinfo.elts)
                    if isinstance(classinfo, ast.Tuple)
                    else [classinfo]
                )
                for candidate in candidates:
                    name = (
                        candidate.id
                        if isinstance(candidate, ast.Name)
                        else candidate.attr
                        if isinstance(candidate, ast.Attribute)
                        else ""
                    )
                    if name.endswith("Message"):
                        names.add(node.args[0].id)
        return names


class UncountedCheckRule(Rule):
    """M1 — consistency checks in agent code must be counted."""

    id = "M1"
    title = "counted nogood checks only"

    def applies(self, scope: Optional[str]) -> bool:
        return _in_dirs(scope, ("algorithms/",))

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "prohibits":
                yield self._finding(
                    node, path, lines,
                    "Nogood.prohibits() is an *uncounted* consistency "
                    "predicate — a check that bypasses the CheckCounter "
                    "silently understates maxcck",
                    "route the test through the agent's store "
                    "(store.is_violated / violated_higher / "
                    "count_violated*), which bumps the shared CheckCounter",
                )
            elif func.attr in COUNTED_CHECKS and not self._is_store(
                func.value
            ):
                yield self._finding(
                    node, path, lines,
                    f"{func.attr}() called on "
                    f"'{ast.unparse(func.value)}', which is not a store — "
                    "only NogoodStore methods bump the CheckCounter that "
                    "feeds maxcck",
                    "call the method on the agent's store (self.store or a "
                    "handler's .store)",
                )

    @staticmethod
    def _is_store(receiver: ast.expr) -> bool:
        if isinstance(receiver, ast.Name):
            return receiver.id == "store" or receiver.id.endswith("_store")
        if isinstance(receiver, ast.Attribute):
            return receiver.attr == "store" or receiver.attr.endswith(
                "_store"
            )
        return False


#: The file-local rules. The full registry (these plus the whole-program
#: rules) is assembled in :mod:`repro.lint.catalogue`.
BASE_RULES: Tuple[Rule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    SetIterationRule(),
    AgentIsolationRule(),
    UncountedCheckRule(),
)
