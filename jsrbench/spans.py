"""In-memory spans around the benchmark's own calls into jsrkit.

A traced run wraps every public call a job makes in a span (name, start,
end, parent, job id, attributes such as node counts) and keeps them in a
list; ``write`` dumps them as JSON lines when the run ends.  The untraced
run uses ``NullTracer``, whose spans cost one attribute lookup and record
nothing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Span:
    __slots__ = ("tracer", "name", "decomp", "job", "parent", "start", "end",
                 "attrs")

    def __init__(self, tracer: "Tracer", name: str, decomp: bool):
        self.tracer = tracer
        self.name = name
        self.decomp = decomp
        self.attrs: dict = {}

    def __enter__(self) -> "Span":
        tr = self.tracer
        self.job = tr.job
        self.parent = tr.stack[-1] if tr.stack else None
        tr.stack.append(len(tr.spans))
        tr.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        if exc_type is not None:
            self.attrs["raised"] = exc_type.__name__
        return False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job, "decomp": self.decomp,
                **self.attrs}


class Tracer:
    """Collects spans; ``job`` tags the spans of the job running now."""

    traced = True

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job = None

    def span(self, name: str, decomp: bool = False) -> Span:
        """Span around one public call; ``decomp`` marks a replay of a part
        of a composite call, made only to measure that part's share."""
        return Span(self, name, decomp)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json_dict()) + "\n")


class _NullSpan:
    """Stand-in span; attributes written to it are dropped."""

    __slots__ = ()

    @property
    def attrs(self) -> dict:
        return {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    traced = False
    job = None

    def span(self, name: str, decomp: bool = False) -> _NullSpan:
        return _NULL_SPAN
