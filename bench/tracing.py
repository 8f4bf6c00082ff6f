"""Per-layer tracing of covpovm, installed from outside the package.

Each traced function is replaced in every covpovm namespace that holds it.
``povm``, ``rep`` and ``constructions`` bind ``linalg`` names when they are
imported, so wrapping ``covpovm.linalg.span_orthonormalize`` alone would miss
the calls made from ``povm``.  Methods are wrapped on their class.

Three kinds of target:

* ``span``: timed, and every call is kept in memory as a span
  ``{name, start, end, parent, case_id}``;
* ``timed``: timed into per-function totals only, because the falsifier calls
  it tens of thousands of times per case;
* ``count``: call count only, for helpers called millions of times
  (``hs_inner``, ``as_matrix``); their time stays in the caller's self time.

Self time of a call is its duration minus the time covered by traced calls it
made, so within one case the self times of all frames add up to the duration
of the case's root frame.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (layer, attribute path inside covpovm.<layer>, kind)
TARGETS = [
    ("linalg", "span_orthonormalize", "span"),
    ("linalg", "orthogonal_complement", "span"),
    ("linalg", "OperatorSubspace.project", "timed"),
    ("linalg", "numerical_rank", "timed"),
    ("linalg", "hermitian_eig", "timed"),
    ("linalg", "hs_inner", "count"),
    ("linalg", "as_matrix", "count"),
    ("group", "build_group", "span"),
    ("group", "coset_space", "span"),
    ("group", "subgroup_generated", "span"),
    ("rep", "rep_from_matrices", "span"),
    ("rep", "is_exact_multiplier", "span"),
    ("rep", "conjugation_rep", "span"),
    ("rep", "irreps_of", "span"),
    ("rep", "isotypic_decompose", "span"),
    ("rep", "is_cyclic_vector", "span"),
    ("rep", "joint_eigenspaces", "span"),
    ("povm", "povm_from_json", "span"),
    ("povm", "povm_to_json", "span"),
    ("povm", "validate", "span"),
    ("povm", "build_covariant", "span"),
    ("povm", "covariance_defect", "span"),
    ("povm", "operator_span", "span"),
    ("povm", "check_pic", "span"),
    ("povm", "falsify", "span"),
    ("constructions", "default_wh_seed", "span"),
    ("constructions", "wh_rep", "span"),
    ("constructions", "build_weyl_heisenberg", "span"),
    ("constructions", "build_pic3", "span"),
    ("cli", "main", "span"),
]

CASE_SPAN = "bench.case"


class Tracer:
    """Call counts, self times and spans, collected in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.case_self = defaultdict(float)
        self.spans = []
        self.case_id = None
        self._stack = []  # frames: [name, start, child_time, span_index]

    def enter(self, name: str, keep: bool) -> list:
        idx = None
        if keep:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            idx = len(self.spans)
            self.spans.append({"name": name, "start": None, "end": None,
                               "parent": parent, "case_id": self.case_id})
        frame = [name, 0.0, 0.0, idx]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child, idx = frame
        self._stack.pop()
        dur = end - start
        own = dur - child
        self.calls[name] += 1
        self.self_s[name] += own
        self.case_self[self.case_id] += own
        if self._stack:
            self._stack[-1][2] += dur
        if idx is not None:
            self.spans[idx]["start"] = start
            self.spans[idx]["end"] = end
        return dur

    def begin_case(self, case_id: str) -> list:
        self.case_id = case_id
        return self.enter(CASE_SPAN, keep=True)

    def end_case(self, frame: list) -> float:
        dur = self.exit(frame)
        self.case_id = None
        return dur

    def absorb(self, child: dict) -> None:
        """Merge the dump of a traced child process under the current frame.

        The child's root calls ran inside the interval of the current frame,
        so their total duration counts as its child time.
        """
        frame = self._stack[-1]
        for name, n in child["calls"].items():
            self.calls[name] += n
        for name, s in child["self_s"].items():
            self.self_s[name] += s
        self.case_self[self.case_id] += child["root_s"]
        frame[2] += child["root_s"]
        base = len(self.spans)
        for span in child["spans"]:
            parent = frame[3] if span["parent"] is None else span["parent"] + base
            self.spans.append(dict(span, parent=parent, case_id=self.case_id))

    def dump(self) -> dict:
        root = sum(s["end"] - s["start"] for s in self.spans if s["parent"] is None)
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "spans": self.spans, "root_s": root}


def _timed(tracer: Tracer, name: str, fn, keep: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, keep)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every target; returns what :func:`uninstall` needs to undo it."""
    undo = []
    for layer, _, _ in TARGETS:
        importlib.import_module(f"covpovm.{layer}")
    for layer, attr, kind in TARGETS:
        module = sys.modules[f"covpovm.{layer}"]
        name = f"{layer}.{attr}"
        if kind == "count":
            make = functools.partial(_counted, tracer, name)
        else:
            make = functools.partial(_timed, tracer, name, keep=kind == "span")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make(original))
            undo.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "covpovm" or mod_name.startswith("covpovm.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)
