"""Shared pieces of the benchmark: locating and importing the engine and the
test oracles from the checkout, the operation record, and small helpers for
comparing engine results with the polynomial models in tests/oracles.py."""

import importlib
import importlib.util
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class MissingCheckout(RuntimeError):
    """The engine sources or the test oracles are not in this checkout."""


class Env:
    """The engine package and the oracle module, both loaded from ROOT."""

    def __init__(self):
        src = os.path.join(ROOT, "src")
        package = os.path.join(src, "steencalc", "__init__.py")
        oracles = os.path.join(ROOT, "tests", "oracles.py")
        for path in (package, oracles):
            if not os.path.isfile(path):
                raise MissingCheckout("missing %s" % os.path.relpath(path, ROOT))
        if src not in sys.path:
            sys.path.insert(0, src)
        self.steencalc = importlib.import_module("steencalc")
        loaded = os.path.realpath(self.steencalc.__file__)
        if not loaded.startswith(os.path.realpath(src) + os.sep):
            raise MissingCheckout("steencalc was imported from %s, not %s" % (loaded, src))
        for sub in ("steenrod", "rings", "charclasses", "obstructions", "dsl",
                    "runner", "cli", "corpus"):
            setattr(self, sub, importlib.import_module("steencalc." + sub))
        spec = importlib.util.spec_from_file_location("steencalc_bench_oracles", oracles)
        self.oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.oracles)
        self.data_dir = os.path.join(src, "steencalc", "data")

    @staticmethod
    def random(seed):
        return random.Random("%s" % seed)

    def lru_tables(self):
        """Every functools.lru_cache-wrapped function in the engine."""
        out = []
        for name in sorted(sys.modules):
            if name == "steencalc" or name.startswith("steencalc."):
                for value in vars(sys.modules[name]).values():
                    if callable(value) and hasattr(value, "cache_clear") and value not in out:
                        out.append(value)
        return out

    def adem_tables(self):
        """The lru_cache tables of the steenrod module (the Adem tables)."""
        return [t for t in self.lru_tables() if t.__module__ == "steencalc.steenrod"]


def table_fill(tables):
    """Entries, hits and misses summed over lru_cache tables."""
    infos = [t.cache_info() for t in tables]
    return {
        "entries": sum(i.currsize for i in infos),
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
    }


class Op:
    """One benchmark operation: `run` is called inside the timed region,
    `key` identifies its input (for the repeat share), `data` is what the
    check needs."""

    __slots__ = ("index", "key", "run", "data")

    def __init__(self, index, key, run, data=None):
        self.index = index
        self.key = key
        self.run = run
        self.data = data


def model_apply(model, terms, probe, memo):
    """Apply a linear combination of words (dict word -> coeff) to a probe
    class of a tests/oracles.py model, as a dict monomial -> coeff mod l.
    `memo` keeps the image of each word, for this model and probe only."""
    ell = model.ell
    out = {}
    for word, coeff in terms.items():
        coeff %= ell
        if not coeff:
            continue
        image = memo.get(word)
        if image is None:
            image = memo[word] = model.apply_word(word, probe)
        for m, c in image.items():
            v = (out.get(m, 0) + coeff * c) % ell
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def model_word_terms(element):
    """SteenrodElement -> dict word -> coeff."""
    return {m.word: c for m, c in element.terms.items()}


def engine_to_model(ell, n, terms):
    """Engine terms of model_ring(ell, n) in the oracle's monomial encoding."""
    if ell == 2:
        return {m: c % 2 for m, c in terms.items() if c % 2}
    return {(tuple(m[:n]), tuple(m[n:])): c % ell for m, c in terms.items() if c % ell}
