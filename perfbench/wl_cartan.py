"""cartan-cold: one-shot Cartan and Bockstein actions on fresh presentations.

Every operation builds its presentation anew -- `corpus.model_ring(l, n)`,
or a shipped data/*.steen ring through `dsl.parse` + `dsl.build_program` --
and then applies the total operation, an operation word (model rings), a
single letter (shipped rings) or the Bockstein to a seeded random
homogeneous element.  Nothing is reused between
operations: this is what a one-shot query pays on the cold Cartan path.

Each round holds one operation per ring (9 model rings, 16 shipped rings) in
a seeded order.  Which operation and which degree a ring gets cycles with
the round number, so every run sees the same mix; the seed picks the
monomials, coefficients, words and the order.  No input repeats within a
run.
"""

import os

from common import Op, engine_to_model

MODEL_RINGS = tuple((ell, n) for ell in (2, 3, 5) for n in (3, 4, 5))
# Kind, degree and term count cycle with lengths 3 (or 2), 11 and 5, which
# are coprime, so every combination comes round equally often.
DEGREES = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14)
TERMS = (1, 2, 4, 8, 16)
MODEL_KINDS = ("total_sq", "word", "bockstein")
# Shipped rings take the operations whose laws can be checked on any ring
# (not every shipped ring satisfies the Adem relations, so no words there).
CORPUS_KINDS = ("total_sq", "bockstein", "letter")
WORD_DEGREE_MAX = 8


class Workload:
    name = "cartan-cold"
    ops_per_second = 250  # nominal; sets the operations per pass
    sizes = {
        "model_rings": ["model_ring(%d, %d)" % r for r in MODEL_RINGS],
        "shipped_rings": 16,
        "element_degree": list(DEGREES),
        "element_terms_max": list(TERMS),
        "word_degree_max": WORD_DEGREE_MAX,
        "word_length_max": 3,
        "ops_per_round": len(MODEL_RINGS) + 16,
    }

    def __init__(self, env, seed):
        self.env = env
        self.rng = env.random(seed)
        self.seen = set()
        self.repeats = 0
        self.round = []

    def setup(self):
        env = self.env
        self.sources = {}
        names = sorted(f[:-6] for f in os.listdir(env.data_dir) if f.endswith(".steen"))
        for name in names:
            with open(os.path.join(env.data_dir, name + ".steen"), encoding="utf-8") as fh:
                self.sources[name] = fh.read()
        # Templates give the monomial bases the inputs are drawn from; they
        # are never handed to an operation.
        templates = [(("model", r), env.corpus.model_ring(*r)) for r in MODEL_RINGS]
        for name in names:
            program = env.dsl.build_program(env.dsl.parse(self.sources[name]))
            templates.append((("shipped", name), program.rings[name]))
        self.cells = []
        for key, pres in templates:
            bases = {d: pres.basis_of_degree(d) for d in range(1, max(DEGREES) + 1)}
            bases = {d: b for d, b in bases.items() if b}
            self.cells.append((key, pres.prime, len(pres.generators), bases))
        self.block_unit = len(self.cells)
        self.models = {r: (env.oracles.Model2(r[1]) if r[0] == 2
                           else env.oracles.ModelOdd(*r)) for r in MODEL_RINGS}

    # --------------------------------------------------------------- inputs

    def _word(self, ell):
        rng = self.rng
        word, left = [], WORD_DEGREE_MAX
        for _ in range(rng.randint(1, 3)):
            if ell == 2:
                word.append(rng.randint(1, min(4, left)))
                left -= word[-1]
            elif (not word or word[-1]) and rng.random() < 0.4:
                word.append(0)
                left -= 1
            else:
                word.append(rng.randint(1, 2))
                left -= 2 * word[-1] * (ell - 1)
            if left < 1:
                break
        return tuple(word)

    def _plan(self, i):
        r, c = divmod(i, len(self.cells))
        if c == 0:
            self.round = list(range(len(self.cells)))
            self.rng.shuffle(self.round)
        cell = self.round[c]
        j = r + 7 * cell
        key, ell, ngens, bases = self.cells[cell]
        kinds = MODEL_KINDS if key[0] == "model" else CORPUS_KINDS
        target = DEGREES[j % len(DEGREES)]
        degree = max(d for d in bases if d <= target) if min(bases) <= target else min(bases)
        return key, ell, ngens, bases, kinds[j % len(kinds)], degree, TERMS[j % len(TERMS)]

    def op(self, i):
        key, ell, ngens, bases, kind, degree, nterms = self._plan(i)
        rng = self.rng
        degrees = sorted(bases)
        attempt = 0
        while True:
            # a small degree can run out of fresh inputs; go on to the next one
            basis = bases[degree]
            raw = {m: rng.randint(1, ell - 1)
                   for m in rng.sample(basis, min(nterms, len(basis)))}
            if kind == "word":
                word = self._word(ell)
            elif kind == "letter":
                # Sq^k or P^k with k up to the instability bound of the input
                word = (rng.randint(1, max(1, degree if ell == 2 else degree // 2)),)
            else:
                word = None
            ident = (key, kind, word, tuple(sorted(raw.items())))
            if ident not in self.seen:
                break
            attempt += 1
            if attempt % 5 == 0:
                degree = degrees[(degrees.index(degree) + 1) % len(degrees)]
            if attempt > 200:
                self.repeats += 1
                break
        self.seen.add(ident)
        gen = rng.randrange(ngens)
        env = self.env

        def run():
            if key[0] == "model":
                pres = env.corpus.model_ring(*key[1])
            else:
                pres = env.dsl.build_program(env.dsl.parse(self.sources[key[1]])).rings[key[1]]
            x = pres.element(raw)
            if kind == "total_sq":
                out = pres.total_sq(x)
            elif kind == "word":
                out = pres.apply_word(word, x)
            elif kind == "letter":
                out = pres.apply_letter(word[0], x)
            else:
                out = pres.bockstein(x)
            return pres, x, out

        return Op(i, ident, run, (key, kind, word, gen))

    # --------------------------------------------------------------- checks

    def check(self, op, result):
        pres, x, out = result
        key, kind, word, gen = op.data
        if key[0] == "model":
            return self._check_model(key[1], kind, word, x, out)
        ell = pres.prime
        g = pres.gen(pres.generators[gen].name)
        if kind == "total_sq":
            # Cartan law: total(x g) = total(x) total(g)
            tg = pres.total_sq(g)
            conv = {}
            for i, a in out.items():
                for j, b in tg.items():
                    conv[i + j] = conv.get(i + j, pres.zero()) + a * b
            conv = {k: v for k, v in conv.items() if v}
            return conv == pres.total_sq(x * g)
        if kind == "letter":
            # Cartan formula: P^k(x g) = P^k(x) g + sum_{i<k} P^i(x) P^(k-i)(g)
            k = word[0]
            want = out * g + x * pres.apply_letter(k, g)
            for i in range(1, k):
                want = want + pres.apply_letter(i, x) * pres.apply_letter(k - i, g)
            return want == pres.apply_letter(k, x * g)
        # Bockstein is a signed derivation: b(x g) = b(x) g + (-1)^|x| x b(g)
        sign = -1 if ell > 2 and (x.degree() or 0) % 2 else 1
        return pres.bockstein(x * g) == out * g + (x * pres.bockstein(g)).scale(sign)

    def _check_model(self, ring, kind, word, x, out):
        ell, n = ring
        model = self.models[ring]
        cls = engine_to_model(ell, n, x.terms)
        if kind == "total_sq":
            # every component up to one past the instability bound
            degree = x.degree()
            for i in range((degree if ell == 2 else degree // 2) + 2):
                want = cls if i == 0 else model.apply_letter(i, cls)
                got = engine_to_model(ell, n, out[i].terms) if i in out else {}
                if got != want:
                    return False
            return True
        if kind == "word":
            want = model.apply_word(word, cls)
        else:
            want = model.apply_letter(1 if ell == 2 else 0, cls)
        return engine_to_model(ell, n, out.terms) == want

    def details(self, ops):
        return {"repeat_share": self.repeats / ops if ops else 0.0}
