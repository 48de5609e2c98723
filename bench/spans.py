"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and job id. Spans come from
the benchmark's own code: around each call a job makes, and around the public
names that `phi`, `series` and `mc` bind from `specfun` and `quad`, which the
traced run replaces with wrappers for its duration.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _points(args, out) -> dict:
    # bessel_j0(x) and hermite_prob(m, x): the evaluation points are the last
    # positional argument
    return {"points": int(np.size(args[-1]))}


def _evaluations(args, out) -> dict:
    return {"evaluations": out.evaluations}


# (module, bound name, span name, counter): the public functions each
# module imported from the layers below it
NESTED = (
    ("phi", "bessel_j0", "specfun.bessel_j0", _points),
    ("phi", "integrate_1d", "quad.integrate_1d", _evaluations),
    ("phi", "integrate_2d", "quad.integrate_2d", _evaluations),
    ("series", "integrate_1d", "quad.integrate_1d", _evaluations),
    ("series", "hermite_prob", "specfun.hermite_prob", _points),
    ("mc", "hermite_prob", "specfun.hermite_prob", _points),
)


class Tracer:
    """Collects spans in memory; `spans` is written out when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self.job: str | None = None
        self._open: list[int] = []
        self._t0 = time.perf_counter()

    def _open_span(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "job": self.job,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        return rec

    def _close_span(self, rec: dict, exc: BaseException | None) -> None:
        rec["end"] = time.perf_counter() - self._t0
        self._open.pop()
        if exc is not None:
            rec["error"] = type(exc).__name__

    @contextmanager
    def span(self, name: str):
        rec = self._open_span(name)
        try:
            yield rec
        except BaseException as exc:
            self._close_span(rec, exc)
            raise
        self._close_span(rec, None)

    def wrap(self, name: str, fn, counter=None):
        # the wrappers sit on hot paths, so they skip the context manager
        def traced(*args, **kwargs):
            rec = self._open_span(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close_span(rec, exc)
                raise
            self._close_span(rec, None)
            if counter is not None:
                rec.update(counter(args, out))
            return out

        return traced

    def wrap_family(self, family):
        """The same family with F and G recorded as `mc.family_eval` spans."""
        return dataclasses.replace(
            family,
            F=self.wrap("mc.family_eval", family.F),
            G=self.wrap("mc.family_eval", family.G),
        )

    @contextmanager
    def patched(self):
        """Replace the NESTED bindings with span-recording wrappers."""
        import signcorr.mc
        import signcorr.phi
        import signcorr.series

        modules = {"phi": signcorr.phi, "series": signcorr.series, "mc": signcorr.mc}
        saved = []
        try:
            for mod, attr, name, counter in NESTED:
                original = getattr(modules[mod], attr)
                saved.append((modules[mod], attr, original))
                setattr(modules[mod], attr, self.wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def totals(spans: list[dict]) -> dict[str, float]:
    """Additive figures per span name: `<name>.calls`, `.s` (inclusive),
    `.self_s`, `.<ExceptionName>` for calls that raised, and any counts the
    spans carry. A top-level span is a child of the job's root span; spans
    below one are also summed under `<top>/<name>.<field>`."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        top = s
        while top["parent"] is not None and by_id[top["parent"]]["parent"] is not None:
            top = by_id[top["parent"]]
        keys = [s["name"]]
        if top is not s:
            keys.append(f"{top['name']}/{s['name']}")
        for key in keys:
            out[f"{key}.calls"] += 1
            out[f"{key}.s"] += s["end"] - s["start"]
            out[f"{key}.self_s"] += selfs[s["id"]]
            if "error" in s:
                out[f"{key}.{s['error']}"] += 1
            for field in ("points", "evaluations"):
                if field in s:
                    out[f"{key}.{field}"] += s[field]
    return dict(out)
