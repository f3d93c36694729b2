"""In-memory spans recorded around calls into the mmreg layers.

The tracer never edits the library: it swaps a module or class
attribute for a timing wrapper and puts the original back afterwards.
Callers inside the library look their collaborators up by name at run
time (``cli.fuzz`` calls ``mmreg.cli.run_simulation``, ``t_bridge``
calls ``mmreg.tolerance.smallest_failing_pair``), so wrapping the name
a caller uses records the nested call as a child span.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    phase: str  # "setup" or "unit"
    unit: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Patches:
    """Module or class attributes swapped for wrappers; ``restore`` (or
    leaving the ``with`` block) puts the originals back, newest first."""

    def __init__(self):
        self._saved: list[tuple] = []

    def swap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Tracer(Patches):
    """Collects spans; ``phase``/``unit`` tag every span opened while set."""

    def __init__(self):
        super().__init__()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.phase = "setup"
        self.unit: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, name, self.phase, self.unit, 0.0, attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``."""

        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                with self.span(name):
                    return original(*args, **kwargs)

            return traced

        self.swap(owner, attr, make)

    # -- aggregation -------------------------------------------------------

    def parent_of(self, span: Span) -> Span | None:
        return None if span.parent is None else self.spans[span.parent]

    def totals(self, phase: str, select=lambda span: True) -> dict[tuple, float]:
        """Seconds per (unit, span name) over the spans of one phase."""
        out: dict[tuple, float] = defaultdict(float)
        for span in self.spans:
            if span.phase == phase and select(span):
                out[(span.unit, span.name)] += span.seconds
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "parent": s.parent,
                            "name": s.name,
                            "phase": s.phase,
                            "unit": s.unit,
                            "start": s.start,
                            "end": s.end,
                            **({"attrs": s.attrs} if s.attrs else {}),
                        }
                    )
                )
                f.write("\n")
