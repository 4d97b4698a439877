"""Spans recorded from outside the program, around calls into its modules.

A ``Tracer`` replaces module or class attributes with wrappers that record
a span per call (name, start, end, parent) and call optional hooks before
and after it; ``restore`` puts the originals back. Spans stay in memory
until the benchmark writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span recorder and attribute patcher for one thread.

    With ``recording`` off the wrappers only run their hooks, so the same
    patches serve the untraced passes that need a count but no timing.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``before(args)`` runs before the call; ``after(args, result, exc)``
        runs after it, with ``exc`` set when the call raised. Both run
        outside the span, so their cost lands in the caller's self time.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            try:
                with tracer.span(name):
                    result = original(*args, **kwargs)
            except Exception as exc:
                if after is not None:
                    after(args, None, exc)
                raise
            if after is not None:
                after(args, result, None)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def span_totals(spans) -> dict[str, dict]:
    """Per span name: inclusive durations, their parent spans, summed self time.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, because one thread
    records them all.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"durations": [], "parents": [], "self_s": 0.0})
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["durations"].append(end - start)
        entry["parents"].append(parent)
        entry["self_s"] += (end - start) - child_time[index]
    return dict(out)
