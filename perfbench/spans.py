"""In-memory spans and call-site wrappers for the benchmark's traced run.

A span is ``(name, start, end, parent, run)``: ``time.perf_counter``
seconds, the index of the enclosing span in the same list (-1 at a
root) and the key of the run it belongs to. ``perf_counter`` reads
CLOCK_MONOTONIC on Linux, so spans recorded in pool workers share the
parent's time axis and can be merged into one tree.

Wrappers replace a function in the namespace its caller looks it up in
(``orchestrator.safety_check``, ``planners.ego_route_for``, a class
attribute such as ``attacks.FaultInjector.plan``). ``Tracer`` fails if a
named function no longer exists, so a rename cannot silently read zero;
``Tracer.restore`` puts every original back and checks that it did.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Optional

Tally = Callable[[tuple, dict, Any], int]


class Recorder:
    """Spans and counts of one process, kept in memory until the end."""

    def __init__(self, spool_dir: Optional[str] = None):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self._stack: list[int] = []
        self._run: Optional[str] = None
        self._spooled = 0

    def span(self, name: str, fn: Callable,
             tally: Optional[Tally] = None,
             run_key: Optional[Callable[[tuple], str]] = None) -> Callable:
        """Wrap ``fn`` so each call records one span named ``name``.

        ``tally(args, kwargs, result)`` adds to ``counts[name]``;
        ``run_key(args)`` names the run that the call and everything
        under it belong to.
        """

        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            outer_run = self._run
            run = self._run = outer_run if run_key is None else run_key(args)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                # A closed span is a tuple of atoms, which the garbage
                # collector stops tracking; 10^5 open lists would slow
                # every collection of the traced pass.
                spans[index] = (name, start, clock(), parent, run)
                stack.pop()
                self._run = outer_run
            if tally is not None:
                self.counts[name] += tally(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call adds one to ``counts[name]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def worker_root(self, name: str, fn: Callable,
                    run_key: Optional[Callable[[tuple], str]] = None) -> Callable:
        """Like ``span``; in a forked pool worker, each call starts from an
        empty recorder and spools what it recorded to ``spool_dir``."""
        traced = self.span(name, fn, run_key=run_key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return traced(*args, **kwargs)
            self.spans, self.counts, self._stack = [], Counter(), []
            try:
                return traced(*args, **kwargs)
            finally:
                self._spool()

        return wrapper

    def _spool(self) -> None:
        self._spooled += 1
        path = os.path.join(self.spool_dir, f"{os.getpid()}-{self._spooled}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def merge_spool(self, root_parent: int) -> None:
        """Adopt every spooled worker file; worker roots hang under
        ``root_parent``."""
        names = sorted(n for n in os.listdir(self.spool_dir) if n.endswith(".json"))
        for name in names:
            path = os.path.join(self.spool_dir, name)
            with open(path, encoding="utf-8") as fh:
                chunk = json.load(fh)
            os.remove(path)
            offset = len(self.spans)
            for span_name, start, end, parent, run in chunk["spans"]:
                self.spans.append((span_name, start, end,
                                   parent + offset if parent >= 0 else root_parent,
                                   run))
            self.counts.update(chunk["counts"])

    def write(self, path: str) -> None:
        """All spans as JSON Lines: name, start, end, parent, run."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of its interval that its
    children cover; overlapping children (pool workers) count once."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for (_, start, end, _, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for kid_start, kid_end in sorted(kids):
            kid_start, kid_end = max(kid_start, reach), min(kid_end, end)
            if kid_end > kid_start:
                covered += kid_end - kid_start
                reach = kid_end
        result.append((end - start) - covered)
    return result


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``where`` is ``module.attr`` or
    ``module.Class.attr`` under the ``avguard`` package."""

    where: str
    kind: str = "span"  # "span", "counter" or "worker_root"
    tally: Optional[Tally] = None
    run_key: Optional[Callable[[tuple], str]] = None


def _resolve(where: str) -> tuple[object, str]:
    module_name, *owner_path, attr = where.split(".")
    owner: object = importlib.import_module(f"avguard.{module_name}")
    for part in owner_path:
        owner = vars(owner).get(part)
        if owner is None:
            raise LookupError(f"wrap target {where}: {part} no longer exists")
    if attr not in vars(owner) or not callable(vars(owner)[attr]):
        raise LookupError(f"wrap target {where} no longer exists")
    return owner, attr


class Tracer:
    """Installs wrappers for a list of targets; ``restore`` undoes them."""

    def __init__(self, recorder: Recorder, targets: list[Target]):
        self._originals: list[tuple[object, str, Callable]] = []
        resolved = [(t, *_resolve(t.where)) for t in targets]
        for target, owner, attr in resolved:
            original = vars(owner)[attr]
            if target.kind == "counter":
                wrapper = recorder.counter(target.where, original)
            elif target.kind == "worker_root":
                wrapper = recorder.worker_root(target.where, original,
                                               run_key=target.run_key)
            else:
                wrapper = recorder.span(target.where, original,
                                        tally=target.tally, run_key=target.run_key)
            setattr(owner, attr, wrapper)
            self._originals.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        stale = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._originals
                 if vars(owner)[attr] is not original]
        self._originals = []
        if stale:
            raise RuntimeError(f"wrappers not restored: {stale}")

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
