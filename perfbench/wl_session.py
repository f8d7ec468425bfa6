"""session: one long-lived process replaying a seeded stream of DSL queries.

The presentations -- the 16 shipped rings and the rings and bundles of
rings/session.steen -- are built once, in set-up.  The query universe and
the output of every query at the commit that recorded it live in
session_reference.json (written by record_reference.py).  The stream walks
through the whole universe in a seeded order, then again in a new order, so
queries repeat; a pass is a whole number of such pairs of cycles, so every
pass runs the same queries, at least half of them repeats, and only their
order depends on the seed.  One pair is more than a sixteenth of a run at
--seconds 16, so session makes fewer, longer passes than the other
workloads (see run.pass_count).  The measured repeat share is reported.

Library queries go through `dsl.parse` and `runner.execute_query`; the
others, a fixed share of the universe, are whole `cli.main` invocations
(text or --format json, stdout captured), which is also the only way
`corpus run NAME` is issued.  Every query must reproduce its recorded exit
status and output bytes; wu-check verdicts must be true, and for every
bundle queried `verify_wet_chow` must hold.
"""

import contextlib
import hashlib
import io
import json
import os

from common import HERE, Op

REFERENCE = os.path.join(HERE, "session_reference.json")
RINGS_FILE = os.path.join(HERE, "rings", "session.steen")
RINGS_TOKEN = "@RINGS@"


def lib_output(result):
    """Bytes and exit status of a library query, with the CLI's exit rule."""
    text = "\n".join(result.lines) + "\n" + json.dumps(result.record, sort_keys=True) + "\n"
    bad = (not result.ok) or (result.fired and result.expected is None)
    return text.encode("utf-8"), 1 if bad else 0


def call_cli(cli, argv):
    """Run cli.main with stdout and stderr captured; (stdout bytes, exit)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue().encode("utf-8"), code


def digest(data):
    return hashlib.sha256(data).hexdigest()


class Session:
    """The long-lived state: presentations built once, and resolvers."""

    def __init__(self, env):
        self.env = env
        for name in env.corpus.scenario_names():
            env.corpus.get_scenario(name)
        with open(RINGS_FILE, encoding="utf-8") as fh:
            self.program = env.dsl.build_program(env.dsl.parse(fh.read()))

    def resolve_ring(self, name):
        if name in self.program.rings:
            return self.program.rings[name]
        return self.env.corpus.resolve_ring(name)

    def resolve_bundle(self, name):
        if name not in self.program.bundles:
            raise self.env.steencalc.UnknownGenerator("no bundle %r in scope" % name)
        decl = self.program.bundles[name]
        return decl, self.resolve_ring(decl.ring)

    def run_lib(self, text):
        query = self.env.dsl.parse(text).queries[0]
        return self.env.runner.execute_query(query, self.resolve_ring, self.resolve_bundle)

    def run_cli(self, argv):
        argv = [RINGS_FILE if a == RINGS_TOKEN else a for a in argv]
        return call_cli(self.env.cli, argv)

    def wet_chow_holds(self, bundle):
        decl, pres = self.resolve_bundle(bundle)
        dsl, cc = self.env.dsl, self.env.steencalc
        v = cc.VirtualBundle(
            decl.rank,
            [dsl.poly_to_element(pres, p) for p in decl.chern],
            [dsl.poly_to_element(pres, p) for p in decl.denom],
            decl.trunc,
        )
        return cc.verify_wet_chow(pres, v)


class Workload:
    name = "session"
    ops_per_second = 390  # nominal; sets the operations per pass

    def __init__(self, env, seed):
        self.env = env
        self.rng = env.random(seed)
        self.seen = set()
        self.repeats = 0
        self.wet_chow = {}

    def setup(self):
        with open(REFERENCE, encoding="utf-8") as fh:
            self.entries = json.load(fh)["entries"]
        self.session = Session(self.env)
        self.block_unit = 2 * len(self.entries)
        self.stream = []
        cli = sum(e["mode"] == "cli" for e in self.entries)
        self.sizes = {"universe": len(self.entries), "cli_share": cli / len(self.entries)}

    def op(self, i):
        while len(self.stream) <= i:
            cycle = list(self.entries)
            self.rng.shuffle(cycle)
            self.stream.extend(cycle)
        entry = self.stream[i]
        if entry["id"] in self.seen:
            self.repeats += 1
        self.seen.add(entry["id"])
        session = self.session
        if entry["mode"] == "lib":
            run = lambda: session.run_lib(entry["text"])  # noqa: E731
        else:
            run = lambda: session.run_cli(entry["argv"])  # noqa: E731
        return Op(i, entry["id"], run, entry)

    def check(self, op, result):
        entry = op.data
        if entry["mode"] == "lib":
            data, code = lib_output(result)
            if entry["kind"] == "wu-check" and result.record.get("result") != "true":
                return False
        else:
            data, code = result
        if code != entry["exit"] or digest(data) != entry["sha256"]:
            return False
        bundle = entry.get("bundle")
        if bundle is not None:
            if bundle not in self.wet_chow:
                self.wet_chow[bundle] = self.session.wet_chow_holds(bundle)
            return self.wet_chow[bundle]
        return True

    def details(self, ops):
        return {"repeat_share": self.repeats / ops if ops else 0.0,
                "wet_chow_checked": sorted(self.wet_chow)}
