"""Self-check of the benchmark's output checks.

    python3 perfbench/selfcheck.py

For each workload, runs the timed loop once as is and once with a wrong
result planted in the engine (patched in this process only).  Passes when
the clean run has no failed operation and the planted fault makes some
operations fail, so fail_ratio rises.  Exit status 0 on pass, 1 otherwise.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Env  # noqa: E402
from run import fresh_workload, run_loop  # noqa: E402

# Each loop runs about this many seconds' worth of operations.
SECONDS = 2.0


def drop_first_term(element):
    """A RingElement with its first term removed (when it has two or more)."""
    if len(element.terms) < 2:
        return element
    terms = dict(element.terms)
    terms.pop(next(iter(terms)))
    return type(element)(element.parent, terms)


def faults(env):
    """workload -> (description, owner, attribute, replacement factory)."""
    steenrod, rings = env.steenrod, env.rings

    def bad_normalize(original):
        def adem_normalize(self):
            out = original(self)
            # drop a term: still admissible and homogeneous, so only the
            # polynomial model can tell
            if out.terms:
                terms = dict(out.terms)
                terms.pop(next(iter(terms)))
                return steenrod.SteenrodElement(out.prime, terms)
            return out
        return adem_normalize

    def bad_letter(original):
        def apply_letter(self, letter, x):
            return drop_first_term(original(self, letter, x))
        return apply_letter

    def bad_render(original):
        def render_element(self, x):
            text = original(self, x)
            return " + ".join(reversed(text.split(" + ")))
        return render_element

    return {
        "adem": ("adem_normalize drops a term", steenrod.SteenrodElement,
                 "adem_normalize", bad_normalize),
        "cartan-cold": ("apply_letter drops a term", rings.RingPresentation,
                        "apply_letter", bad_letter),
        "session": ("render_element reverses term order", rings.RingPresentation,
                    "render_element", bad_render),
    }


def run_once(env, name, seconds):
    wl = fresh_workload(env, name, 1)
    return run_loop(wl, max(wl.block_unit, round(wl.ops_per_second * seconds)))


def main():
    env = Env()
    ok = True
    for name, (what, owner, attr, factory) in faults(env).items():
        clean = run_once(env, name, SECONDS)
        original = owner.__dict__[attr]
        setattr(owner, attr, factory(original))
        try:
            planted = run_once(env, name, SECONDS)
        finally:
            setattr(owner, attr, original)
        passed = not clean.failed_ops and planted.failed_ops
        ok = ok and passed
        print("%-12s clean fail_ratio %.4f (%d/%d)  planted [%s] fail_ratio %.4f (%d/%d)  %s"
              % (name, len(clean.failed_ops) / len(clean.latencies), len(clean.failed_ops),
                 len(clean.latencies), what, len(planted.failed_ops) / len(planted.latencies),
                 len(planted.failed_ops), len(planted.latencies), "ok" if passed else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
