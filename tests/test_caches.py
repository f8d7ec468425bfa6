"""Process-wide caches stay bounded: every functools.lru_cache in the package
has a finite maxsize, except the tables named below.  And engine state lives
only in lru_caches: no module holds a mutable container of its own."""

import importlib
import inspect
import pkgutil
from collections.abc import MutableMapping, MutableSequence, MutableSet

import steencalc

# Keyed by Adem pairs and by one corpus scenario per (directory, name): their
# size follows the largest degree or the number of files asked for, not the
# number of calls.
UNBOUNDED = {
    "steencalc.steenrod._adem_pp",
    "steencalc.steenrod._adem_pbp",
    "steencalc.corpus._load",
}


# Module-level mutable containers that hold constants, not computed state.
CONSTANT_TABLES = {"steencalc.corpus.EXTRA_CHECKS"}


def _modules():
    for info in pkgutil.iter_modules(steencalc.__path__):
        if info.name != "__main__":  # runs the command line on import
            yield importlib.import_module("steencalc." + info.name)


def _lru_tables():
    """(qualified name, wrapper) of every lru_cache defined in the package,
    at module level or on a class."""
    for module in _modules():
        owners = [module] + [
            cls for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        ]
        for owner in owners:
            for value in vars(owner).values():
                value = getattr(value, "__func__", value)
                if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                    yield "%s.%s" % (module.__name__, value.__qualname__), value


def test_every_lru_cache_is_bounded():
    tables = dict(_lru_tables())
    assert UNBOUNDED <= set(tables), "an allowlisted table was renamed or removed"
    assert {"steencalc.cli._build_parser", "steencalc.cli._build_source",
            "steencalc.runner._answer", "steencalc.steenrod._letter_product"} <= set(tables)
    unbounded = {
        name for name, fn in tables.items() if fn.cache_parameters()["maxsize"] is None
    }
    assert unbounded == UNBOUNDED


def test_no_module_level_mutable_state():
    """Between passes the benchmark empties the lru_cache tables only, so a
    module-level dict, list or set used as a memo would carry work over from
    one pass to the next."""
    found = {
        "%s.%s" % (module.__name__, name)
        for module in [steencalc, *_modules()]
        for name, value in vars(module).items()
        if not name.startswith("__")
        and isinstance(value, (MutableMapping, MutableSequence, MutableSet))
    }
    assert found == CONSTANT_TABLES
