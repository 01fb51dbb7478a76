"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the program from the outside: a traced
function is rebound, under its own name, in every loaded ``skysift`` module
that refers to it, so calls the package makes internally (``cli`` calling
``read_batch_csv``, ``error_analysis`` calling ``pinned_power_sum``) are
timed as well as calls the benchmark makes.  The program itself is not
edited.

Each call records a span (id, parent id, name, start, end).  Spans stay in
memory, up to a cap, and are written as JSON lines when the run ends; busy
time, self time (busy time minus the time covered by child spans), call
counts and work counts are aggregated for every call, capped or not.
"""

import json
import sys
import time
from collections import defaultdict

# Beyond this many spans only the aggregates are kept and the spans are
# counted as dropped, so that per-sample wrappers cannot grow memory without
# bound.  The cap holds the first traced cycle of every full workload
# (classify's, the largest, has about 250,000 spans).
SPAN_CAP = 300_000


class Tracer:
    """Wraps functions, records spans and aggregates per-layer numbers."""

    def __init__(self):
        self.spans = []
        self.spans_dropped = 0
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.top_level = 0.0  # seconds covered by spans that have no parent
        self._stack = []
        self._next_id = 0
        self._restore = []

    def reset_totals(self) -> None:
        """Zero the aggregates (spans already recorded are kept)."""
        self.busy.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()
        self.top_level = 0.0

    def snapshot(self) -> dict:
        """Copies of the aggregates, keyed as the per-layer metric suffixes."""
        return {
            "s": dict(self.busy),
            "self_s": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "top_level": self.top_level,
        }

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` timed as span ``name``.

        ``counter(counts, args, kwargs, result)`` adds work counts after the
        span has closed, so counting never shows up in the span's time.
        """
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]  # id, time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.busy[name] += duration
                self.self_time[name] += duration - frame[1]
                self.calls[name] += 1
                if parent is None:
                    self.top_level += duration
                else:
                    parent[1] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (span_id, None if parent is None else parent[0], name, start, end)
                    )
                else:
                    self.spans_dropped += 1
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers) -> None:
        """Wrap every ``(module, attribute, span name, counter)`` of ``layers``.

        ``attribute`` may be ``Class.method`` for a classmethod; the class
        object is shared, so rebinding it once covers every importer.
        """
        for module_name, attribute, name, counter in layers:
            module = sys.modules[module_name]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, classmethod(self.wrap(name, original.__func__, counter)))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attribute)
            traced = self.wrap(name, original, counter)
            for importer in list(sys.modules.values()):
                if (
                    getattr(importer, "__name__", "").split(".")[0] == "skysift"
                    and importer.__dict__.get(attribute) is original
                ):
                    setattr(importer, attribute, traced)
                    self._restore.append((importer, attribute, original))

    def uninstall(self) -> None:
        """Put back every original binding, newest first."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def write_spans(self, path, header: dict) -> None:
        """Write a header line, then one JSON object per recorded span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans_dropped=self.spans_dropped)) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
