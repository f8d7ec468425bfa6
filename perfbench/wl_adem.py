"""adem: Adem normal forms and products in the Steenrod algebra.

Each operation either normalises one seeded random operation word or
multiplies two admissible elements.  Only the `steenrod` layer does work
here, so this workload is the bypass case for changes to `rings` and
`charclasses`.

Input sizes: words of length 1..5 and degree <= 32 at l = 2, 3 and 5; the
factors of a product are sums of 1..3 admissible monomials of degree <= 16.
"""

from functools import partial

from common import Op, model_apply, model_word_terms, table_fill

MAX_DEGREE = 32
MAX_LENGTH = 5
FACTOR_DEGREE = 16
# One round of operations: (prime, kind).  Every round has the same mix.
ROUND = (
    (2, "normalize"), (2, "normalize"), (2, "multiply"), (2, "normalize"),
    (3, "normalize"), (3, "multiply"), (5, "normalize"), (5, "multiply"),
)
# The repeat share is counted over the first REPEAT_WINDOW operations only,
# so its bookkeeping does not grow the process with the run.
REPEAT_WINDOW = 20000
# Every MODEL_EVERY-th operation is also checked against the polynomial model.
MODEL_EVERY = 13
PROBES = {
    2: {(3, 2, 1, 0): 1, (2, 2, 1, 1): 1, (4, 1, 1, 0): 1},
    3: {((1, 1, 0), (2, 1, 0)): 1, ((0, 1, 1), (1, 0, 2)): 2},
    5: {((1, 1, 0), (2, 1, 0)): 1, ((0, 1, 1), (1, 0, 2)): 3},
}


class Workload:
    name = "adem"
    ops_per_second = 40000  # nominal; sets the operations per pass
    block_unit = len(ROUND)
    sizes = {
        "primes": [2, 3, 5],
        "word_degree_max": MAX_DEGREE,
        "word_length_max": MAX_LENGTH,
        "product_factor_degree_max": FACTOR_DEGREE,
        "product_factor_terms": [1, 3],
        "round": ["%d:%s" % r for r in ROUND],
    }

    def __init__(self, env, seed):
        self.env = env
        self.rng = env.random(seed)
        self.seen = set()
        self.repeats = 0

    def setup(self):
        sc = self.env.steencalc
        self.factors = {
            ell: [m.word for m in sc.admissible_monomials(ell, FACTOR_DEGREE) if m.word]
            for ell in (2, 3, 5)
        }
        self.models = {
            2: self.env.oracles.Model2(4),
            3: self.env.oracles.ModelOdd(3, 3),
            5: self.env.oracles.ModelOdd(5, 3),
        }
        self.model_memo = {ell: {} for ell in self.models}
        self.tables = self.env.adem_tables()
        self.entries_seen = self._entries()
        self.table_fill = {"entries_at_start": self.entries_seen, "last_new_entry_op": None}

    def _entries(self):
        return table_fill(self.tables)["entries"]

    # --------------------------------------------------------------- inputs

    def _word(self, ell):
        rng = self.rng
        length = rng.randint(1, MAX_LENGTH)
        if ell == 2:
            degree = rng.randint(length, MAX_DEGREE)
            cuts = sorted(rng.sample(range(1, degree), length - 1))
            return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        step = 2 * (ell - 1)
        word, left = [], MAX_DEGREE
        for _ in range(length):
            if (not word or word[-1]) and rng.random() < 0.3:
                word.append(0)
                left -= 1
            elif left >= step:
                word.append(rng.randint(1, left // step))
                left -= step * word[-1]
        return tuple(word) or (1,)

    def _factor(self, ell):
        rng = self.rng
        words = rng.sample(self.factors[ell], rng.randint(1, 3))
        return {w: rng.randint(1, ell - 1) for w in words}

    def op(self, i):
        ell, kind = ROUND[i % len(ROUND)]
        SteenrodElement = self.env.steencalc.SteenrodElement
        if kind == "normalize":
            word = self._word(ell)
            key = (ell, kind, word)
            raw = {word: 1}
            run = SteenrodElement(ell, raw).adem_normalize
        else:
            a, b = self._factor(ell), self._factor(ell)
            key = (ell, kind, tuple(sorted(a.items())), tuple(sorted(b.items())))
            raw = {}
            for w1, c1 in a.items():
                for w2, c2 in b.items():
                    raw[w1 + w2] = (raw.get(w1 + w2, 0) + c1 * c2) % ell
            run = partial(SteenrodElement(ell, a).multiply, SteenrodElement(ell, b))
        if i < REPEAT_WINDOW:
            if hash(key) in self.seen:
                self.repeats += 1
            self.seen.add(hash(key))
        return Op(i, key, run, (ell, raw))

    # --------------------------------------------------------------- checks

    def check(self, op, result):
        ell, raw = op.data
        entries = self._entries()
        if entries != self.entries_seen:
            self.entries_seen = entries
            self.table_fill["last_new_entry_op"] = op.index
        if result.prime != ell or not result.is_admissible():
            return False
        degrees = {self._degree(ell, w) for w, c in raw.items() if c % ell}
        if any(m.degree() not in degrees for m in result.terms):
            return False
        if op.index % MODEL_EVERY:
            return True
        model, probe, memo = self.models[ell], PROBES[ell], self.model_memo[ell]
        direct = model_apply(model, raw, probe, memo)
        via_normal = model_apply(model, model_word_terms(result), probe, memo)
        return direct == via_normal

    @staticmethod
    def _degree(ell, word):
        if ell == 2:
            return sum(word)
        return sum(1 if s == 0 else 2 * s * (ell - 1) for s in word)

    def details(self, ops):
        end = table_fill(self.tables)
        fill = dict(self.table_fill)
        fill.update({"entries_at_end": end["entries"], "hits": end["hits"],
                     "misses": end["misses"]})
        window = min(ops, REPEAT_WINDOW)
        return {"repeat_share": self.repeats / window if window else 0.0,
                "repeat_share_ops": window, "adem_tables": fill}
