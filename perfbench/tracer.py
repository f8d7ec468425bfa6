"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the engine from outside: each wrapped
call records a span (function, start, end, parent span, operation id) and
adds its self time -- its duration minus the time its child spans cover --
to per-function totals.  Nothing in the engine is edited; `install` swaps
the wrappers in and `uninstall` puts the originals back.

Spans are kept in memory in flat arrays and written out by `write`.  Only the
first MAX_SPANS spans are kept, so a long run cannot exhaust memory; the
per-function totals always cover every call.
"""

import functools
import json
import os
import sys
from array import array
from time import perf_counter

# (layer, metric name, target).  A target "module:function" is a module-level
# function, replaced in every steencalc module that imported it by name; a
# target "module:Class.attr" is a class attribute.  Several targets may share
# one metric name (SteenrodElement.multiply is also bound as __mul__).
TARGETS = (
    ("steenrod", "adem_normalize", "steenrod:SteenrodElement.adem_normalize"),
    ("steenrod", "multiply", "steenrod:SteenrodElement.multiply"),
    ("steenrod", "multiply", "steenrod:SteenrodElement.__mul__"),
    ("steenrod", "parse_operation", "steenrod:parse_operation"),
    ("steenrod", "admissible_monomials", "steenrod:admissible_monomials"),
    ("rings", "RingPresentation", "rings:RingPresentation.__init__"),
    ("rings", "multiply", "rings:RingPresentation.multiply"),
    ("rings", "add", "rings:RingElement.__add__"),
    ("rings", "element", "rings:RingPresentation.element"),
    ("rings", "apply_letter", "rings:RingPresentation.apply_letter"),
    ("rings", "total_sq", "rings:RingPresentation.total_sq"),
    ("rings", "bockstein", "rings:RingPresentation.bockstein"),
    ("rings", "basis_of_degree", "rings:RingPresentation.basis_of_degree"),
    ("charclasses", "TotalClass.mul", "charclasses:TotalClass.__mul__"),
    ("charclasses", "TotalClass.inverse", "charclasses:TotalClass.inverse"),
    ("charclasses", "total_operation_class", "charclasses:total_operation_class"),
    ("charclasses", "normal_bundle_total", "charclasses:normal_bundle_total"),
    ("charclasses", "projective_pushforward", "charclasses:projective_pushforward"),
    ("charclasses", "verify_relative_wu_projective",
     "charclasses:verify_relative_wu_projective"),
    ("charclasses", "w_bro", "charclasses:w_bro"),
    ("charclasses", "w_et", "charclasses:w_et"),
    ("obstructions", "odd_vanishing_check", "obstructions:odd_vanishing_check"),
    ("obstructions", "weird_operator", "obstructions:weird_operator"),
    ("obstructions", "in_image_F_minus_Id", "obstructions:in_image_F_minus_Id"),
    ("obstructions", "hs_scripted_check", "obstructions:hs_scripted_check"),
    ("dsl", "parse", "dsl:parse"),
    ("dsl", "parse_poly", "dsl:parse_poly"),
    ("dsl", "build_program", "dsl:build_program"),
    ("dsl", "poly_to_element", "dsl:poly_to_element"),
    ("runner", "execute_query", "runner:execute_query"),
    ("cli", "main", "cli:main"),
    ("corpus", "model_ring", "corpus:model_ring"),
    ("corpus", "run_scenario", "corpus:run_scenario"),
)

# Spans kept in memory (about 30 bytes each); later ones are only counted.
MAX_SPANS = 400_000
LAYERS = ("steenrod", "rings", "charclasses", "obstructions", "dsl", "runner", "cli", "corpus")


def function_names():
    """Metric stems "<layer>.<function>", in TARGETS order, without repeats."""
    out = []
    for layer, name, _ in TARGETS:
        stem = "%s.%s" % (layer, name)
        if stem not in out:
            out.append(stem)
    return out


class Tracer:
    def __init__(self):
        self.names = function_names()
        self.index = {n: i for i, n in enumerate(self.names)}
        self.layer_of = [n.split(".", 1)[0] for n in self.names]
        self.on = False
        self.op = -1
        self._patched = []
        k = len(self.names)
        self.calls = [0] * k
        self.self_s = [0.0] * k
        self.root_s = 0.0  # time covered by spans with no parent
        self.dropped = 0
        self.mul_pairs = 0
        self.mul_terms = 0
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        # open spans: [name id, start, child time, span id]
        self.stack = []

    # ------------------------------------------------------------- spans

    def _enter(self, fid, start):
        sid = len(self.s_name)
        if sid < MAX_SPANS:
            parent = self.stack[-1][3] if self.stack else -1
            self.s_name.append(fid)
            self.s_parent.append(parent)
            self.s_op.append(self.op)
            self.s_start.append(0.0)
            self.s_end.append(0.0)
        else:
            sid = -1
            self.dropped += 1
        frame = [fid, start, 0.0, sid]
        self.stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        fid, start, child, sid = frame
        self.stack.pop()
        dur = end - start
        self.calls[fid] += 1
        self.self_s[fid] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.root_s += dur
        if sid >= 0:
            self.s_start[sid] = start
            self.s_end[sid] = end

    def _wrap(self, fid, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()  # first, so the span covers the wrapper's own work
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer._enter(fid, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_multiply(self, args, result):
        # args = (presentation, a, b): term pairs tried and terms produced
        self.mul_pairs += len(args[1].terms) * len(args[2].terms)
        self.mul_terms += len(result.terms)

    # --------------------------------------------------- install/uninstall

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "steencalc" or n.startswith("steencalc."))]
        for layer, name, target in TARGETS:
            fid = self.index["%s.%s" % (layer, name)]
            mod_name, attr = target.split(":")
            module = sys.modules["steencalc." + mod_name]
            after = self._count_multiply if target == "rings:RingPresentation.multiply" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(fid, original, after))
                self._patched.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(fid, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    # -------------------------------------------------------------- output

    def metrics(self):
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, stem in enumerate(self.names):
            out[stem + ".calls"] = (self.calls[i], "count")
            out[stem + ".self_s"] = (self.self_s[i], "s")
            layer_self[self.layer_of[i]] += self.self_s[i]
        for layer in LAYERS:
            out[layer + ".self_s"] = (layer_self[layer], "s")
        out["rings.multiply.term_pairs"] = (self.mul_pairs, "count")
        out["rings.multiply.out_terms"] = (self.mul_terms, "count")
        out["rings.multiply.yield"] = (
            self.mul_terms / self.mul_pairs if self.mul_pairs else 0.0, "ratio")
        return out

    def write(self, path, extra=None):
        """Write the span arrays (raw machine order) next to a JSON header
        naming the functions and the array layout."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = {
            "functions": self.names,
            "spans": len(self.s_name),
            "dropped": self.dropped,
            "arrays": ["name:i", "parent:i", "op:i", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        header.update(extra or {})
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
        with open(path + ".spans", "wb") as fh:
            for arr in (self.s_name, self.s_parent, self.s_op, self.s_start, self.s_end):
                arr.tofile(fh)
