"""Spans and call counts around the public functions of each wildsets module.

The package binds functions by name across modules (`local_square_class`
lives in `local_symbols` but is also a global of `square_class_spaces`,
`equivalence_core` and `constructions`; `cli` binds each `construct_*`),
so wrapping one module attribute is not enough.  `Tracer.install` replaces
every binding of each target in every loaded `wildsets` module, and every
listed class attribute, with one wrapper per target; `uninstall` puts the
originals back.

A span target records (name, start, end, parent, op, tag) per call; a
count target only counts, because it is called millions of times
(`Fq.inv`, `poly_divmod`).  Spans stay in memory until `write` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Dict, List, Tuple

# (module, qualified name, kind); kind is "span" or "count".
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("base_algebra", "GF", "span"),
    ("base_algebra", "poly_factor", "span"),
    ("base_algebra", "poly_is_irreducible", "span"),
    ("base_algebra", "irreducibles_of_degree", "span"),
    ("base_algebra", "ResidueField.quad_char", "span"),
    ("base_algebra", "rat_parse", "span"),
    ("base_algebra", "poly_divmod", "count"),
    ("base_algebra", "Fq.inv", "count"),
    ("projective_line", "ProjectiveLine.places_of_degree", "span"),
    ("projective_line", "ProjectiveLine.two_divisible", "span"),
    ("projective_line", "ProjectiveLine.function_with_divisor", "span"),
    ("projective_line", "RationalFunction.divisor", "span"),
    ("projective_line", "Place.__init__", "count"),
    ("projective_line", "RationalFunction.is_square", "count"),
    ("elliptic_curve", "EllipticModel.places_of_degree", "span"),
    ("elliptic_curve", "EllipticModel.two_divisible", "span"),
    ("elliptic_curve", "EllipticModel.halve_in_pic", "span"),
    ("elliptic_curve", "EllipticModel.function_with_divisor", "span"),
    ("elliptic_curve", "CurveFunction.divisor", "span"),
    ("elliptic_curve", "CurvePlace.__init__", "count"),
    ("elliptic_curve", "CurveFunction.is_square", "count"),
    ("local_symbols", "local_square_class", "span"),
    ("local_symbols", "hilbert_symbol", "span"),
    ("local_symbols", "reciprocity_product", "span"),
    ("square_class_spaces", "SquareClassSpace.__init__", "span"),
    ("square_class_spaces", "sing_space", "span"),
    ("square_class_spaces", "delta_space", "span"),
    ("square_class_spaces", "g_rank", "span"),
    ("square_class_spaces", "smile", "span"),
    ("equivalence_core", "verify_small_equivalence", "span"),
    ("equivalence_core", "certify", "span"),
    ("equivalence_core", "compose", "span"),
    ("equivalence_core", "extend_pre_equivalence", "span"),
    ("equivalence_core", "quotient_basis", "span"),
    ("equivalence_core", "certificate_to_json", "span"),
    ("equivalence_core", "certificate_from_json", "span"),
    ("constructions", "construct_rank0", "span"),
    ("constructions", "construct_rank1", "span"),
    ("constructions", "construct_rank1_pair", "span"),
    ("constructions", "construct_rank1_triple", "span"),
    ("constructions", "construct_general", "span"),
    ("cli", "run", "span"),
)

# Ratios of counts, each measured where the work happens.
RATIOS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    # the 2^|S| subset walk, both backends
    ("square_class_spaces.two_divisible_per_g_rank",
     ("projective_line.ProjectiveLine.two_divisible",
      "elliptic_curve.EllipticModel.two_divisible"),
     ("square_class_spaces.g_rank",)),
    # the exact is_square fallback of the independence test
    ("square_class_spaces.is_square_per_space",
     ("projective_line.RationalFunction.is_square",
      "elliptic_curve.CurveFunction.is_square"),
     ("square_class_spaces.SquareClassSpace.__init__",)),
    # the permutation walk of the compose fallback
    ("equivalence_core.quotient_basis_per_compose",
     ("equivalence_core.quotient_basis",),
     ("equivalence_core.compose",)),
)

# Tag the certify workload puts on `wildsets verify` of a genuine certificate.
VERIFY_TAG = "verify"


def metric_names() -> List[Tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, qualname, kind in TARGETS:
        out.append(("%s.%s.calls" % (module, qualname), "count"))
        if kind == "span":
            out.append(("%s.%s.self_s" % (module, qualname), "s"))
    out.extend((name, "ratio") for name, _, _ in RATIOS)
    out.append(("cli.verify_per_command", "ratio"))
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Span and count recorder for one traced run in this process."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.tag = ""
        self.names: List[str] = []
        self.calls: Dict[str, int] = {}
        self._tags: Dict[str, int] = {"": 0}
        # one entry per span: name index, start, end, parent span, op, tag
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self.span_op: List[int] = []
        self.span_tag: List[int] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrappers

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _open(self, index: int) -> int:
        span = len(self.span_name)
        self.span_name.append(index)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_tag.append(self._tags.setdefault(self.tag, len(self._tags)))
        self.span_end.append(0.0)
        self._stack.append(span)
        self.span_start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn):
        calls = self.calls
        index = len(self.names)
        self.names.append(name)

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between
            # items is not charged to the generator
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if not self.active:
                    yield from fn(*args, **kwargs)
                    return
                calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    span = self._open(index)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(span)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            span = self._open(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    # -- installation

    def install(self) -> None:
        """Wrap every target in every loaded wildsets module."""
        for module_name in sorted({t[0] for t in TARGETS}):
            importlib.import_module("wildsets." + module_name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "wildsets"
                                         or n.startswith("wildsets."))]
        for module_name, qualname, kind in TARGETS:
            name = "%s.%s" % (module_name, qualname)
            self.calls[name] = 0
            home = importlib.import_module("wildsets." + module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapper = (self._span_wrapper(name, original) if kind == "span"
                           else self._count_wrapper(name, original))
                self._undo.append((cls, attr, original))
                setattr(cls, attr, wrapper)
                continue
            original = getattr(home, qualname)
            wrapper = (self._span_wrapper(name, original) if kind == "span"
                       else self._count_wrapper(name, original))
            bound = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
                        bound += 1
            if not bound:
                raise RuntimeError("%s is not bound anywhere" % name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results

    def self_times(self) -> Dict[str, float]:
        """Span time minus the time of direct child spans, per target."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[name] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def tagged_calls(self, name: str, tag: str) -> int:
        """Spans of one target recorded while `tag` was set."""
        if name not in self.names or tag not in self._tags:
            return 0
        index, tag_id = self.names.index(name), self._tags[tag]
        return sum(1 for i in range(len(self.span_name))
                   if self.span_name[i] == index and self.span_tag[i] == tag_id)

    def per_layer(self, overhead_ratio: float) -> Dict[str, float]:
        """Every per-layer metric, keyed as in metric_names()."""
        self_s = self.self_times()
        out: Dict[str, float] = {}
        for module_name, qualname, kind in TARGETS:
            name = "%s.%s" % (module_name, qualname)
            out[name + ".calls"] = self.calls[name]
            if kind == "span":
                out[name + ".self_s"] = self_s[name]
        for ratio, top, bottom in RATIOS:
            num = sum(self.calls[n] for n in top)
            den = sum(self.calls[n] for n in bottom)
            out[ratio] = num / den if den else 0.0
        commands = self.tagged_calls("cli.run", VERIFY_TAG)
        verifies = self.tagged_calls("equivalence_core.verify_small_equivalence",
                                     VERIFY_TAG)
        out["cli.verify_per_command"] = verifies / commands if commands else 0.0
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path) -> int:
        """Dump the spans as tab-separated text; returns the span count."""
        tags = {v: k for k, v in self._tags.items()}
        with open(path, "w") as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\top\ttag\n")
            for i in range(len(self.span_name)):
                handle.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\t%s\n" % (
                    i, self.names[self.span_name[i]], self.span_start[i],
                    self.span_end[i], self.span_parent[i], self.span_op[i],
                    tags[self.span_tag[i]]))
        return len(self.span_name)
