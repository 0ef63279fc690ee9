"""The allocation rules: H1-H4, hot-path garbage made visible.

The paper's cost model counts constraint checks and cycles; Python-side
allocation in the per-message dispatch is pure overhead that distorts
wall-clock comparisons between learning variants. These rules police the
*hot set* (:mod:`repro.lint.hotpaths`: handler closure + store
consultation surface + profile-seeded ``hotpaths.toml`` entries) using the
allocation/escape analysis in :mod:`repro.lint.alloc`:

=====  ======================================================================
H1     Allocation inside a hot loop that does not escape the iteration.
       A container rebuilt every pass and dead by the iteration's end is
       a hoistable buffer: allocate once, ``clear()`` and refill.
H2     Per-dispatch construction of a constant-shape container — e.g.
       ``list(self.domain)`` on every backtrack, or a display made only
       of constants. The shape never changes; precompute it once.
H3     ``sorted()`` copy of instance state on a hot path. Sorting the
       same attribute on every call re-does work an incrementally
       maintained cache (like the store's set of outranking variables,
       rebuilt only when the view's ``priority_version`` moves) already
       solved; filling such a cache (``self._x = sorted(...)``) is the
       fix and is exempt.
H4     Closure/lambda creation inside hot dispatch. Every ``lambda``
       evaluation allocates a fresh function object (plus a cell per
       captured name); sort keys and scoring functions belong at module
       level (``operator.itemgetter``/``attrgetter`` or a plain def).
=====  ======================================================================

All four support the standard machinery: SARIF export, baseline entries
and justified ``# repro-lint: disable=Hn -- why`` pragmas.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from . import alloc
from .findings import Finding
from .graph import ModuleInfo, ProjectGraph
from .hotpaths import HotSet, hot_set_for
from .rules import Rule

#: Self-attributes whose value is fixed for the lifetime of an agent
#: (H2's "constant shape" evidence). ``domain`` is set in
#: ``SingleVariableAgent.__init__`` from the immutable CSP and never
#: rebound afterwards.
CONSTANT_SELF_ATTRS = frozenset({"domain"})


def _iter_functions(
    module: ModuleInfo,
) -> Iterator[Tuple[str, ast.AST]]:
    """(qualname, def node) for every indexed function of *module*."""
    for info in module.functions.values():
        yield info.qualname, info.node
    for cls in module.classes.values():
        for info in cls.methods.values():
            yield info.qualname, info.node


def _self_attr_chain(node: ast.expr) -> Optional[str]:
    """``self.a.b`` → ``"a.b"``; None when not rooted at ``self``."""
    attrs: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        attrs.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name) and current.id == "self" and attrs:
        return ".".join(reversed(attrs))
    return None


def _is_cache_fill(stmt: ast.stmt) -> bool:
    """``self._x = ...`` / ``self._x[k] = ...`` — filling a memo slot is
    the *fix* for H2/H3, not a violation."""
    targets: Sequence[ast.expr] = ()
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = (stmt.target,)
    for target in targets:
        base = target
        if isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Attribute) and _self_attr_chain(base):
            return True
    return False


class _HotPathRule(Rule):
    """Shared plumbing: resolve the module, the hot set, and iterate the
    hot functions of the linted file."""

    def applies(self, scope: Optional[str]) -> bool:
        # Hotness is derived from the package's class hierarchy, so the
        # rules only run on in-package files (or pragma-pinned fixtures).
        return scope is not None

    def _hot_functions(
        self, path: str, graph: ProjectGraph
    ) -> Iterator[Tuple[str, ast.AST, ModuleInfo, HotSet]]:
        module = graph.module_at(path)
        if module is None:
            return
        hot = hot_set_for(graph, path)
        for qualname, node in _iter_functions(module):
            if hot.is_hot(node):
                yield qualname, node, module, hot


class HotLoopTemporaryRule(_HotPathRule):
    """H1 — loop-local container allocation on a hot path."""

    id = "H1"
    title = "no per-iteration temporaries in hot loops"

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        hint = (
            "hoist the container out of the loop and reuse it "
            "(buffer.clear() + refill), or restructure so no intermediate "
            "container is needed (e.g. count in the loop instead of "
            "building a list to len())"
        )
        for qualname, node, module, hot in self._hot_functions(path, graph):
            analysis = alloc.analyses_for(graph, node, module)
            for site in analysis.sites:
                if site.kind not in alloc.CONTAINER_KINDS:
                    continue
                if site.name is None or not site.loops:
                    continue
                if analysis.escapes(site):
                    continue
                if not analysis.iteration_local(site):
                    continue
                yield self._finding(
                    site.node, path, lines,
                    f"hot loop in {qualname}() rebuilds {site.kind} "
                    f"'{site.name}' every iteration and drops it before "
                    "the next — garbage on a per-message path",
                    hint,
                )


class ConstantShapeContainerRule(_HotPathRule):
    """H2 — constant-shape container built per dispatch."""

    id = "H2"
    title = "no per-dispatch constant-shape containers"

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        for qualname, node, module, hot in self._hot_functions(path, graph):
            yield from self._check_function(qualname, node, path, lines)

    def _check_function(
        self, qualname: str, node: ast.AST, path: str,
        lines: Sequence[str],
    ) -> Iterator[Finding]:
        copy_hint = (
            "the attribute never changes after construction; materialize "
            "it once (e.g. self._all_values = tuple(self.domain) in "
            "__init__) and reuse the cached copy"
        )
        display_hint = (
            "every element is a constant, so the container is the same on "
            "every call; build it once at module or instance level"
        )
        for stmt, exprs in _statement_exprs(node):
            if _is_cache_fill(stmt):
                continue
            for expr in exprs:
                for inner in ast.walk(expr):
                    if isinstance(inner, ast.Call):
                        chain = self._constant_copy_chain(inner)
                        if chain is not None:
                            yield self._finding(
                                inner, path, lines,
                                f"{qualname}() copies constant-shape "
                                f"'self.{chain}' into a fresh container "
                                "on every call",
                                copy_hint,
                            )
                    elif isinstance(
                        inner, (ast.List, ast.Set, ast.Dict)
                    ) and _is_constant_display(inner):
                        yield self._finding(
                            inner, path, lines,
                            f"{qualname}() builds a container of "
                            "constants on every call",
                            display_hint,
                        )

    @staticmethod
    def _constant_copy_chain(call: ast.Call) -> Optional[str]:
        func = call.func
        if not (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple", "set", "frozenset")
        ):
            return None
        if len(call.args) != 1 or call.keywords:
            return None
        chain = _self_attr_chain(call.args[0])
        if chain is None:
            return None
        root = chain.split(".", 1)[0]
        return chain if root in CONSTANT_SELF_ATTRS else None


class SortedCopyRule(_HotPathRule):
    """H3 — repeated ``sorted()`` of instance state in hot dispatch."""

    id = "H3"
    title = "no repeated sorted() copies of maintained state"

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        hint = (
            "maintain the sorted view incrementally (the store's "
            "outranking set, rebuilt when priority_version moves, is the "
            "pattern): cache the sorted copy on the instance and "
            "invalidate on mutation; the cache-filling "
            "assignment itself (self._x = sorted(...)) is exempt"
        )
        for qualname, node, module, hot in self._hot_functions(path, graph):
            for stmt, exprs in _statement_exprs(node):
                if _is_cache_fill(stmt):
                    continue
                for expr in exprs:
                    for inner in ast.walk(expr):
                        if not isinstance(inner, ast.Call):
                            continue
                        func = inner.func
                        if not (
                            isinstance(func, ast.Name)
                            and func.id == "sorted"
                            and inner.args
                        ):
                            continue
                        chain = _self_attr_chain(inner.args[0])
                        if chain is None:
                            continue
                        yield self._finding(
                            inner, path, lines,
                            f"{qualname}() re-sorts 'self.{chain}' on "
                            "a hot path — a full copy + O(n log n) "
                            "every call for state that changes rarely",
                            hint,
                        )


class HotClosureRule(_HotPathRule):
    """H4 — closure/lambda allocation inside hot dispatch."""

    id = "H4"
    title = "no closure allocation in hot dispatch"

    def check(
        self, tree: ast.Module, path: str, scope: Optional[str],
        lines: Sequence[str], graph: "ProjectGraph",
    ) -> Iterator[Finding]:
        hint = (
            "hoist the callable to module level — operator.itemgetter / "
            "attrgetter for field access, a plain def for anything "
            "else — so dispatch reuses one object instead of allocating "
            "a function (plus a cell per captured name) every call"
        )
        for qualname, node, module, hot in self._hot_functions(path, graph):
            analysis = alloc.analyses_for(graph, node, module)
            for site in analysis.sites:
                if site.kind != alloc.CLOSURE:
                    continue
                label = (
                    "lambda"
                    if isinstance(site.node, ast.Lambda)
                    else f"nested def {getattr(site.node, 'name', '?')}()"
                )
                yield self._finding(
                    site.node, path, lines,
                    f"{qualname}() allocates a {label} on every call",
                    hint,
                )


def _statement_exprs(
    function: ast.AST,
) -> Iterator[Tuple[ast.stmt, List[ast.expr]]]:
    """(statement, its direct expressions) over a function body, nested
    defs/lambdas excluded (their bodies are not this function's
    dispatch; H4 already prices the closure itself)."""
    body = getattr(function, "body", [])
    stack: List[ast.stmt] = list(body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        exprs = [
            child
            for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)
        ]
        yield stmt, exprs
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            elif isinstance(child, ast.excepthandler):
                stack.extend(child.body)


def _is_constant_display(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Set)):
        return bool(node.elts) and all(
            isinstance(e, ast.Constant) for e in node.elts
        )
    if isinstance(node, ast.Dict):
        return bool(node.keys) and all(
            element is not None and isinstance(element, ast.Constant)
            for element in list(node.keys) + list(node.values)
        )
    return False


#: The allocation rules, registered by :mod:`repro.lint.catalogue`.
ALLOC_RULES: Tuple[Rule, ...] = (
    HotLoopTemporaryRule(),
    ConstantShapeContainerRule(),
    SortedCopyRule(),
    HotClosureRule(),
)
