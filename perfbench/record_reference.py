"""Write session_reference.json: the session workload's query universe and
the exit status and output digest of every query at the current commit.

    python3 perfbench/record_reference.py

The universe comes from a fixed seed, so rerunning this at an unchanged
commit rewrites the same file.  Rerun it only when a change to query output
is intended, and say so: the session workload fails every query whose
output differs from this record.

Queries are run one after another in one process, in universe order; the
benchmark replays them in a seeded order, so a result that depends on what
ran before shows up as a failed operation.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import Env  # noqa: E402
from wl_session import REFERENCE, RINGS_TOKEN, Session, digest, lib_output  # noqa: E402

UNIVERSE_SEED = 20220908
BENCH_RINGS = ("BPROJ6_2", "BPROJ8_2", "BPROJ6_3", "BPROJ8_3", "ROOTS6_2", "ROOTS6_3")
BUNDLES = ("E6_2", "E4_2", "V3_2", "E6_3", "E4_3", "V3_3")
# Adem relations whose admissible form is known, as (word, prime, expect).
KNOWN_ADEM = (
    ("Sq^2 Sq^2", 2, "Sq^3 Sq^1"),
    ("Sq^1 Sq^1", 2, "0"),
    ("Sq^1 Sq^2", 2, "Sq^3"),
    ("Sq^3 Sq^2", 2, "0"),
    ("Sq^2 Sq^3", 2, "Sq^5 + Sq^4 Sq^1"),
    ("Sq^2 Sq^4", 2, "Sq^6 + Sq^5 Sq^1"),
    ("b b", 3, "0"),
    ("P^1 P^1", 3, "2 P^2"),
    ("b b", 5, "0"),
)
FROBENIUS_Q = {2: 3, 3: 2, 5: 2}


def render_poly(pres, terms):
    parts = []
    for m, c in terms:
        body = pres.render_monomial(m)
        parts.append(body if c == 1 else "%d*%s" % (c, body))
    return " + ".join(parts)


def random_class(rng, pres, degrees, max_terms=3):
    degree = rng.choice([d for d in degrees if pres.basis_of_degree(d)])
    basis = pres.basis_of_degree(degree)
    if pres.prime > 2:
        # one twist residue, as the obstruction queries need
        twist = pres.monomial_twist(rng.choice(basis))
        basis = pres.basis_of_degree(degree, twist)
    picks = rng.sample(basis, rng.randint(1, min(max_terms, len(basis))))
    return render_poly(pres, [(m, rng.randint(1, pres.prime - 1)) for m in picks])


def random_word(rng, ell, max_degree=6, max_index=1, max_length=3):
    """Operation text of 1..max_length letters; Sq^i has i <= 4 * max_index."""
    word, left = [], max_degree
    for _ in range(rng.randint(1, max_length)):
        step = 1 if ell == 2 else 2 * (ell - 1)
        if ell > 2 and (not word or word[-1] != "b") and (left < step or rng.random() < 0.4):
            word.append("b")
            left -= 1
        elif ell == 2:
            i = rng.randint(1, min(4 * max_index, left))
            word.append("Sq^%d" % i)
            left -= i
        elif left >= step:
            s = rng.randint(1, min(max_index, left // step))
            word.append("P^%d" % s)
            left -= s * step
        if left < 1:
            break
    return " ".join(word) or ("Sq^1" if ell == 2 else "b")


def raw_poly(rng, pres):
    """Monomials allowed past the rule caps, written as typed."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        exps = []
        for gi, g in enumerate(pres.generators):
            cap = pres.rules[gi][0] + 1 if gi in pres.rules else 2
            exps.append(rng.randint(0, 1 if g.parity == "odd" else cap))
        if any(exps):
            terms.append((tuple(exps), 1))
    return render_poly(pres, terms) or pres.generators[0].name


def universe(env, session):
    """Query specs: dicts with kind, text (library form) and argv (CLI form,
    None where the verb has no single-command form)."""
    rng = env.random(UNIVERSE_SEED)
    corpus, dsl = env.corpus, env.dsl
    shipped = corpus.scenario_names()
    specs = []

    def ring_args(name):
        return ["--ring", name] + (["--rings", RINGS_TOKEN] if name in BENCH_RINGS else [])

    # the shipped scenarios' own queries, with their hand-written expectations
    for name in shipped:
        for q in corpus.get_scenario(name).queries:
            text = dsl.render_query(q)
            kind = text.split()[0]
            specs.append({"kind": kind, "text": text, "argv": None})
    rings = shipped + list(BENCH_RINGS)
    for _ in range(40):
        name = rng.choice(rings)
        pres = session.resolve_ring(name)
        op = random_word(rng, pres.prime)
        poly = random_class(rng, pres, range(1, 7))
        specs.append({"kind": "apply", "text": 'apply "%s" to %s in %s;' % (op, poly, name),
                      "argv": ["apply", op, poly] + ring_args(name)})
    ruled = [n for n in rings if session.resolve_ring(n).rules]
    for _ in range(25):
        name = rng.choice(ruled)
        poly = raw_poly(rng, session.resolve_ring(name))
        specs.append({"kind": "normalize", "text": "normalize %s in %s;" % (poly, name),
                      "argv": ["normalize", poly] + ring_args(name)})
    for op, prime, expect in KNOWN_ADEM:
        tail = "" if prime == 2 else " prime = %d" % prime
        specs.append({"kind": "adem", "text": 'adem "%s"%s expect "%s";' % (op, tail, expect),
                      "argv": ["adem", op, "--prime", str(prime), "--expect", expect]})
    for _ in range(30):
        prime = rng.choice((2, 2, 3, 5))
        op = random_word(rng, prime, max_degree=24, max_index=3, max_length=4)
        tail = "" if prime == 2 else " prime = %d" % prime
        specs.append({"kind": "adem", "text": 'adem "%s"%s;' % (op, tail),
                      "argv": ["adem", op, "--prime", str(prime)]})
    for name in ("BPROJ6_2", "BPROJ8_2", "BPROJ6_3", "BPROJ8_3"):
        n = int(name[5])
        samples = ("w^2", "u", "u*w", "u^2") if name.endswith("_2") else ("v", "v^2")
        for m in sorted({0, 1, n // 2, n}):
            specs.append({"kind": "wu-check",
                          "text": "wu-check --n %d --m %d in %s expect true;" % (n, m, name),
                          "argv": ["wu-check", "--n", str(n), "--m", str(m), "--expect", "true"]
                          + ring_args(name)})
        for y in samples:
            specs.append({"kind": "wu-check",
                          "text": "wu-check --n %d --m 1 in %s y = %s expect true;" % (n, name, y),
                          "argv": ["wu-check", "--n", str(n), "--m", "1", "--y", y,
                                   "--expect", "true"] + ring_args(name)})
    for bundle in BUNDLES:
        for kind in ("w", "wet"):
            specs.append({"kind": "charclass", "bundle": bundle,
                          "text": "charclass %s of %s;" % (kind, bundle),
                          "argv": ["charclass", kind, bundle, "--rings", RINGS_TOKEN]})
    two = [n for n in rings if session.resolve_ring(n).prime == 2
           and session.resolve_ring(n).omega is not None]
    for _ in range(12):
        name = rng.choice(rings)
        pres = session.resolve_ring(name)
        poly = random_class(rng, pres, range(1, 6))
        top = rng.choice((3, 5, 7))
        specs.append({"kind": "obstruct",
                      "text": "obstruct odd --max-degree %d on %s in %s;" % (top, poly, name),
                      "argv": ["obstruct", "odd", poly, "--max-degree", str(top)]
                      + ring_args(name)})
    for _ in range(12):
        name = rng.choice(two)
        poly = random_class(rng, session.resolve_ring(name), range(1, 6))
        codim, which = rng.randint(1, 3), rng.randint(1, 2)
        specs.append({"kind": "obstruct",
                      "text": "obstruct weird --codim %d --which %d on %s in %s;"
                      % (codim, which, poly, name),
                      "argv": ["obstruct", "weird", poly, "--codim", str(codim),
                               "--which", str(which)] + ring_args(name)})
    for name in ("CLASSIFYING2", "CLASSIFYING3", "CLASSIFYING5"):
        pres = session.resolve_ring(name)
        q = FROBENIUS_Q[pres.prime]
        for verb in ("frobenius", "hs"):
            for _ in range(3):
                poly = random_class(rng, pres, (2, 3, 4) if verb == "frobenius" else (2,))
                specs.append({"kind": "obstruct",
                              "text": "obstruct %s --q %d on %s in %s;" % (verb, q, poly, name),
                              "argv": ["obstruct", verb, poly, "--q", str(q)]
                              + ring_args(name)})
    return specs


def main():
    env = Env()
    session = Session(env)
    entries = []

    def add(spec, mode, output):
        data, code = output
        entry = {"id": len(entries), "kind": spec["kind"], "mode": mode,
                 "exit": code, "sha256": digest(data)}
        if "bundle" in spec:
            entry["bundle"] = spec["bundle"]
        entry["text" if mode == "lib" else "argv"] = (
            spec["text"] if mode == "lib" else spec["argv"])
        entries.append(entry)
        return data, code

    specs = []
    for spec in universe(env, session):
        try:
            result = session.run_lib(spec["text"])
        except env.steencalc.SteencalcError as exc:
            print("skipped (%s): %s" % (exc, spec["text"]))
            continue
        specs.append(spec)
        add(spec, "lib", lib_output(result))
        if result.expected is False:
            raise SystemExit("expectation failed: %s" % spec["text"])
        if spec["kind"] == "wu-check" and result.record["result"] != "true":
            raise SystemExit("wu-check not true: %s" % spec["text"])
    # CLI forms: every corpus scenario, in alternating output formats; every
    # third query with a single-command form on the shipped rings and every
    # eighth on the rings file (which each such call parses anew), each in
    # both output formats
    cli_forms = [(["--format", ("text", "json")[k % 2], "corpus", "run", name],
                  {"kind": "corpus"})
                 for k, name in enumerate(env.corpus.scenario_names())]
    with_argv = [s for s in specs if s["argv"]]
    for step, uses_file in ((3, False), (8, True)):
        for spec in [s for s in with_argv if (RINGS_TOKEN in s["argv"]) == uses_file][::step]:
            cli_forms += [(["--format", fmt] + spec["argv"], spec) for fmt in ("text", "json")]
    for argv, spec in cli_forms:
        data, code = add(dict(spec, argv=argv), "cli", session.run_cli(argv))
        if spec["kind"] == "corpus" and code != 0:
            raise SystemExit("corpus scenario failed: %s" % argv)
    for e in entries:
        if e["kind"] == "charclass" and not session.wet_chow_holds(e["bundle"]):
            raise SystemExit("verify_wet_chow fails on %s" % e["bundle"])
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"universe_seed": UNIVERSE_SEED, "entries": entries}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
    print("wrote %d entries to %s" % (len(entries), os.path.relpath(REFERENCE)))


if __name__ == "__main__":
    main()
