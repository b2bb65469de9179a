"""Pass 2 substrate: the whole-project view the cross-module rules run on.

:class:`Project` stitches every file's :class:`~tools.digest_analyzer.
extract.FileFacts` into a symbol table (module-qualified function ids),
an approximate call graph, and interprocedural RNG-stream summaries.
The cross-module rules (:mod:`tools.digest_analyzer.rules_project`) are
pure functions over this object — they never re-read source.

Approximations, stated once: the call graph resolves bare names through
each file's import map, ``self.method`` to the enclosing class (with a
unique-method fallback for inherited calls), and re-exported names by
unique final component. Calls through arbitrary locals
(``pool.acquire(...)``) stay unresolved — absent edges make the
reachability rules (DGL012/DGL013) under-report, never over-report.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import PurePosixPath
from typing import Callable, Iterable

from tools.digest_analyzer.extract import (
    LOCAL_PREFIX,
    SELF_PREFIX,
    CallFact,
    FileFacts,
    FunctionFact,
)
from tools.digest_analyzer.streams import _PROJECT_ROOTS, sink_label


def module_name(path: str) -> str:
    """Dotted module for a repo-relative path (``src`` layout aware)."""
    parts = list(PurePosixPath(path.replace("\\", "/")).parts)
    if parts and parts[0] in (".", "/"):
        parts = parts[1:]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    last = parts[-1]
    if last.endswith(".py"):
        last = last[:-3]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = last
    return ".".join(parts)


def path_parts(path: str) -> tuple[str, ...]:
    return tuple(PurePosixPath(path.replace("\\", "/")).parts)


@dataclass
class ProjectFunction:
    """One function with its project-global identity."""

    gid: str  # "<module>.<qualname>", e.g. "repro.core.session.DigestSession.step"
    module: str
    qualname: str  # module-relative
    path: str
    fact: FunctionFact

    @property
    def parts(self) -> tuple[str, ...]:
        return path_parts(self.path)

    @property
    def enclosing_class(self) -> str | None:
        if "." in self.qualname:
            return self.qualname.rsplit(".", 1)[0].split(".")[0]
        return None

    @property
    def takes_self(self) -> bool:
        return bool(self.fact.params) and self.fact.params[0] in ("self", "cls")


class Project:
    """Symbol table + call graph over every analyzed file."""

    def __init__(self, facts_by_path: dict[str, FileFacts]) -> None:
        self.facts_by_path = facts_by_path
        self.functions: dict[str, ProjectFunction] = {}
        #: final name component -> gids defining it (re-export fallback)
        self._by_final: dict[str, list[str]] = {}
        #: method name -> gids (inherited self-call fallback)
        self._by_method: dict[str, list[str]] = {}
        #: "module.Class" strings that look like classes (have methods)
        self._classes: set[str] = set()
        for path, facts in facts_by_path.items():
            module = module_name(path)
            for fact in facts.functions:
                if fact.qualname == "<module>":
                    gid = f"{module}.<module>" if module else "<module>"
                else:
                    gid = f"{module}.{fact.qualname}" if module else fact.qualname
                fn = ProjectFunction(
                    gid=gid,
                    module=module,
                    qualname=fact.qualname,
                    path=path,
                    fact=fact,
                )
                self.functions[gid] = fn
                if "." in fact.qualname:
                    head, final = fact.qualname.rsplit(".", 1)
                    self._classes.add(f"{module}.{head.split('.')[0]}")
                    self._by_method.setdefault(final, []).append(gid)
                else:
                    self._by_final.setdefault(fact.qualname, []).append(gid)
        self._adjacency: dict[str, list[tuple[str, CallFact]]] | None = None
        self._rng_summaries: dict[str, dict[str, frozenset[str]]] | None = None

    # -- resolution ----------------------------------------------------

    def resolve_target(
        self, caller: ProjectFunction, target: str
    ) -> tuple[str, bool] | None:
        """Resolve a call-site target to ``(gid, implicit_self)``.

        ``implicit_self`` is True when the call form binds the first
        parameter implicitly (constructor call or ``self.method``), so
        positional arguments shift by one against the callee signature.
        """
        if target.startswith(LOCAL_PREFIX):
            name = target[len(LOCAL_PREFIX) :]
            return self._resolve_dotted(f"{caller.module}.{name}")
        if target.startswith(SELF_PREFIX):
            method = target[len(SELF_PREFIX) :]
            cls = caller.enclosing_class
            if cls is not None:
                gid = f"{caller.module}.{cls}.{method}"
                if gid in self.functions:
                    return gid, True
            candidates = self._by_method.get(method, [])
            if len(candidates) == 1:
                return candidates[0], True
            return None
        if target.startswith(_PROJECT_ROOTS):
            return self._resolve_dotted(target)
        return None

    def _resolve_dotted(self, dotted: str) -> tuple[str, bool] | None:
        if dotted in self.functions:
            return dotted, False
        init = f"{dotted}.__init__"
        if init in self.functions:
            return init, True
        if dotted in self._classes:
            return None  # class without a recognizable __init__
        final = dotted.rsplit(".", 1)[-1]
        functions = self._by_final.get(final, [])
        if len(functions) == 1:
            return functions[0], False
        inits = [
            gid
            for cls in self._classes
            if cls.rsplit(".", 1)[-1] == final
            for gid in (f"{cls}.__init__",)
            if gid in self.functions
        ]
        if len(inits) == 1:
            return inits[0], True
        return None

    @staticmethod
    def bind_param(
        callee: ProjectFunction, slot: int | str, implicit_self: bool
    ) -> str | None:
        """Callee parameter a call-site argument slot lands on."""
        params = callee.fact.params
        if isinstance(slot, str):
            return slot if slot in params else None
        index = slot + (1 if implicit_self and callee.takes_self else 0)
        return params[index] if 0 <= index < len(params) else None

    # -- call graph ----------------------------------------------------

    @property
    def adjacency(self) -> dict[str, list[tuple[str, CallFact]]]:
        if self._adjacency is None:
            self._adjacency = {}
            for fn in self.functions.values():
                edges: list[tuple[str, CallFact]] = []
                for call in fn.fact.calls:
                    resolved = self.resolve_target(fn, call.target)
                    if resolved is not None:
                        edges.append((resolved[0], call))
                self._adjacency[fn.gid] = edges
        return self._adjacency

    def reach(
        self,
        start: str,
        hit: Callable[[ProjectFunction], bool],
        *,
        skip: Callable[[ProjectFunction], bool] | None = None,
        max_depth: int = 12,
    ) -> list[str] | None:
        """Shortest call chain ``[start, ..., target]`` with ``hit(target)``.

        ``skip`` prunes traversal *through* a function (it is neither
        reported nor descended into). The start node is never a hit.
        """
        parents: dict[str, str | None] = {start: None}
        frontier = [start]
        for _ in range(max_depth):
            if not frontier:
                break
            next_frontier: list[str] = []
            for gid in frontier:
                for callee_gid, _call in self.adjacency.get(gid, []):
                    if callee_gid in parents:
                        continue
                    callee = self.functions[callee_gid]
                    if skip is not None and skip(callee):
                        continue
                    parents[callee_gid] = gid
                    if hit(callee):
                        chain = [callee_gid]
                        cursor: str | None = gid
                        while cursor is not None:
                            chain.append(cursor)
                            cursor = parents[cursor]
                        return list(reversed(chain))
                    next_frontier.append(callee_gid)
            frontier = next_frontier
        return None

    # -- RNG stream summaries (DGL011) ---------------------------------

    @property
    def rng_summaries(self) -> dict[str, dict[str, frozenset[str]]]:
        """Per function: rng parameter -> stream labels it reaches.

        Computed to fixpoint so a generator handed down through any
        depth of helpers still accumulates the labels of the sinks it
        ultimately feeds.
        """
        if self._rng_summaries is not None:
            return self._rng_summaries
        summaries: dict[str, dict[str, set[str]]] = {
            fn.gid: {param: set() for param in fn.fact.rng_params}
            for fn in self.functions.values()
        }
        changed = True
        while changed:
            changed = False
            for fn in self.functions.values():
                mine = summaries[fn.gid]
                for call, taint, labels in self._call_labels(fn, summaries):
                    if taint in mine and not labels <= mine[taint]:
                        mine[taint] |= labels
                        changed = True
        self._rng_summaries = {
            gid: {param: frozenset(labels) for param, labels in entry.items()}
            for gid, entry in summaries.items()
        }
        return self._rng_summaries

    def _call_labels(
        self,
        fn: ProjectFunction,
        summaries: dict[str, dict[str, set[str]]],
    ) -> Iterable[tuple[CallFact, str, set[str]]]:
        """``(call, taint, labels)`` for every rng argument in ``fn``."""
        for call in fn.fact.calls:
            if not call.rng_args:
                continue
            label = sink_label(call.target)
            resolved = (
                None if label is not None else self.resolve_target(fn, call.target)
            )
            if resolved is not None:
                gid = self.functions[resolved[0]].gid
                if gid.endswith(".__init__"):
                    gid = gid[: -len(".__init__")]
                label = sink_label(gid)
                if label is not None:
                    resolved = None  # sinks terminate taint
            for slot, taint in call.rng_args:
                if label is not None:
                    yield call, taint, {label}
                elif resolved is not None:
                    callee_gid, implicit_self = resolved
                    callee = self.functions[callee_gid]
                    param = self.bind_param(callee, slot, implicit_self)
                    if param is not None:
                        labels = set(summaries[callee_gid].get(param, ()))
                        if labels:
                            yield call, taint, labels

    def taint_flows(
        self, fn: ProjectFunction
    ) -> dict[str, list[tuple[CallFact, frozenset[str]]]]:
        """Per taint root in ``fn``: the labeled calls it feeds, in order."""
        summaries = {
            gid: {param: set(labels) for param, labels in entry.items()}
            for gid, entry in self.rng_summaries.items()
        }
        flows: dict[str, list[tuple[CallFact, frozenset[str]]]] = {}
        for call, taint, labels in self._call_labels(fn, summaries):
            flows.setdefault(taint, []).append((call, frozenset(labels)))
        return flows
