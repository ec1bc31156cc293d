"""In-memory spans for the traced run.

The benchmark wraps its own calls into each layer's public functions;
nothing inside ``src/`` is instrumented.  A span records its name, start,
end, parent and run id; spans stay in memory until the run writes them
out.  A layer's self time is its span minus the spans nested in it.
"""

from __future__ import annotations

import gzip
import itertools
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects the spans of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent, self.run_id))

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        child: Dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                child[span.parent_id] = child.get(span.parent_id, 0.0) + span.duration
        out: Dict[str, float] = {}
        for span in self.spans:
            own = span.duration - child.get(span.span_id, 0.0)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line, gzip-compressed
        (a record workload's run holds hundreds of thousands)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
