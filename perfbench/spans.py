"""Spans around the calls into lambda_sta's public functions, and the
per-layer metrics derived from them.

The tracer wraps, from outside, every public function defined in the five
traced modules and patches every ``lambda_sta`` namespace that holds the
function, including dict values such as ``cli.COMMANDS``.  ``linalg`` is not
traced: nothing in ``src/`` calls it.  Each call records a span (name, start,
end, parent, attributes) in memory; ``Tracer.dump`` writes them out once the
traced pass ends.

Layers partition the traced time.  A span's self time is its duration less
the part of it covered by its children, and each span's self time belongs to
exactly one layer: output writers (``write_*``, ``format_*``, ``*_to_json``)
count as ``cli`` wherever they live, everything else as its module.  So the
layer self times sum to the time spent inside ``cli.main``.
"""

import functools
import inspect
import json
import sys
import threading
import time

MODULES = ("cli", "analysis", "dynamics", "pulsefit", "protocol")
# Per-layer total self time.  Protocol functions call nothing traced, so
# their self time is their busy time.
LAYER_TOTALS = ("cli.self_s", "analysis.self_s", "dynamics.self_s",
                "pulsefit.self_s", "protocol.busy_s")

# Functions whose metrics the benchmark reports.  One that a later change
# removes is recorded as absent and its metrics read 0.
EXPECTED = (
    "cli.main",
    "analysis.fit_protocol_pulses",
    "dynamics.propagate_schrodinger",
    "dynamics.propagate_lindblad",
    "pulsefit.fit_gaussian_sum",
)

WINDINGS = range(1, 8)


def layer_of(name):
    module, func = name.split(".", 1)
    if func.startswith(("write_", "format_")) or func.endswith("_to_json"):
        return "cli"
    return module


def _attrs(name, args, result):
    """Attributes read from a call's arguments or returned value."""
    if name in ("dynamics.propagate_schrodinger", "dynamics.propagate_lindblad"):
        steps = getattr(result, "steps", None)
        return {"steps": int(steps)} if steps is not None else {}
    if name == "pulsefit.fit_gaussian_sum":
        report = result[1] if isinstance(result, tuple) and len(result) == 2 else None
        if report is None:
            return {}
        return {"nfev": int(getattr(report, "iterations", 0)),
                "converged": bool(getattr(report, "converged", False))}
    if name == "analysis.fit_protocol_pulses" and args:
        m = getattr(args[0], "m", None)
        return {"m": int(m)} if m is not None else {}
    return {}


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the
    original functions."""

    def __init__(self, package="lambda_sta"):
        self.package = package
        self.spans = []
        self.absent = []
        self._local = threading.local()
        self._patched = []   # (container, key, original), setattr or dict
        self._lock = threading.Lock()

    def _wrap(self, name, fn):
        spans, local, lock = self.spans, self._local, self._lock
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            with lock:
                idx = len(spans)
                spans.append(None)
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = {"name": name, "start": start, "end": end,
                              "parent": parent,
                              "attrs": _attrs(name, args, result)}
        return wrapper

    def install(self):
        originals = {}
        for short in MODULES:
            mod = sys.modules.get(f"{self.package}.{short}")
            if mod is None:
                continue
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    originals[id(value)] = (value, f"{short}.{attr}")
        wrappers = {key: self._wrap(name, fn)
                    for key, (fn, name) in originals.items()}
        prefix = self.package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package
                                   or modname.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and value is originals[id(value)][0]:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and item is originals[id(item)][0]:
                            self._patched.append((value, key, item))
                            value[key] = wrappers[id(item)]
        names = {name for _, name in originals.values()}
        self.absent = [n for n in EXPECTED if n not in names]
        return self

    def uninstall(self):
        for container, key, original in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration less the union of its children's intervals,
    clipped to the span."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(k["start"], s["start"]), min(k["end"], s["end"]))
                   for k in kids]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append((s["end"] - s["start"]) - _covered(clipped))
    return out


def _ancestor_layers(spans, idx):
    layers = set()
    p = spans[idx]["parent"]
    while p is not None:
        layers.add(layer_of(spans[p]["name"]))
        p = spans[p]["parent"]
    return layers


def layer_metrics(spans):
    """Per-layer counts and times from a list of spans."""
    selfs = self_times(spans)
    m = {}
    for layer in MODULES:
        m[f"{layer}.calls"] = 0
        m[f"{layer}.self_s"] = 0.0
    for kind in ("schrodinger", "lindblad"):
        for k in ("calls", "steps", "busy_s"):
            m[f"dynamics.{kind}.{k}"] = 0
    fit = {"calls": 0, "busy_s": 0.0, "nfev": 0, "converged": 0}
    fit_s = {w: 0.0 for w in WINDINGS}
    nfev_m = {w: 0 for w in WINDINGS}
    points = 0
    for i, (s, own) in enumerate(zip(spans, selfs)):
        name, layer = s["name"], layer_of(s["name"])
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += own
        dur = s["end"] - s["start"]
        if name in ("dynamics.propagate_schrodinger", "dynamics.propagate_lindblad"):
            kind = name.split("_")[-1]
            m[f"dynamics.{kind}.calls"] += 1
            m[f"dynamics.{kind}.steps"] += s["attrs"].get("steps", 0)
            m[f"dynamics.{kind}.busy_s"] += dur
            if "analysis" in _ancestor_layers(spans, i):
                points += 1
        elif name == "pulsefit.fit_gaussian_sum":
            fit["calls"] += 1
            fit["busy_s"] += dur
            fit["nfev"] += s["attrs"].get("nfev", 0)
            fit["converged"] += bool(s["attrs"].get("converged", False))
            p = s["parent"]
            w = spans[p]["attrs"].get("m") if p is not None else None
            if w in fit_s:
                fit_s[w] += dur
                nfev_m[w] += s["attrs"].get("nfev", 0)
    for kind in ("schrodinger", "lindblad"):
        steps = m[f"dynamics.{kind}.steps"]
        busy = m[f"dynamics.{kind}.busy_s"]
        m[f"dynamics.{kind}.ns_per_step"] = 1e9 * busy / steps if steps else 0.0
    m["analysis.points"] = points
    m["pulsefit.fit.calls"] = fit["calls"]
    m["pulsefit.fit.busy_s"] = fit["busy_s"]
    m["pulsefit.fit.nfev"] = fit["nfev"]
    m["pulsefit.fit.converged_ratio"] = (fit["converged"] / fit["calls"]
                                         if fit["calls"] else 0.0)
    for w in WINDINGS:
        m[f"pulsefit.fit_s.m{w}"] = fit_s[w]
        m[f"pulsefit.nfev.m{w}"] = nfev_m[w]
    m["protocol.busy_s"] = m.pop("protocol.self_s")
    return m
