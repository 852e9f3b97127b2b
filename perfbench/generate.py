"""Seeded input generator for the four benchmark workloads.

Every input file is built from ``random.Random(seed)`` alone, so the same
seed and size give byte-identical files. Beside the files the generator
keeps the oracle tallies the checks compare against: planted
(relation, head, dependent) counts, planted malformed sentences, planted
rejected annotators and planted commonsense witnesses.

The vocabulary has the release size (500 verbs, 1,343 nouns, 657
adjectives). It holds the verbs, adjectives and candidate nouns of the
bundled 72 pronoun questions; the rest are synthetic CVCVCV words ending
in ``a`` or ``o``, which the package's lemmatizer leaves unchanged and
whose ``+s``/``+ed``/``+ing`` forms it maps back. Filler words of the
commonsense phrases start with ``q``, a letter no vocabulary word has,
so they can never match a pair.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

RELATIONS = ("dobj", "nsubj", "amod", "dobj_amod", "nsubj_amod")
HEAD_POS = {"dobj": "verb", "nsubj": "verb", "amod": "noun",
            "dobj_amod": "verb", "nsubj_amod": "verb"}
DEP_POS = {"dobj": "noun", "nsubj": "noun", "amod": "adj",
           "dobj_amod": "adj", "nsubj_amod": "adj"}
POOL_SIZES = {"verb": 500, "noun": 1343, "adj": 657}

SIZES = {
    "full": {
        "sentences": 24000, "malformed_share": 0.005,
        "table_instances": 30000, "gold_heads": 30, "pseudo_heads": 6,
        "candidate_heads": 100, "resamples": 200,
        "nn_instances": 4000, "nn_gold_heads": 20, "nn_epochs": 3,
        "surveys_per_relation": 5, "annotators_per_survey": 12,
        "omcs_triplets": 40000,
    },
    "tiny": {
        "sentences": 600, "malformed_share": 0.02,
        "table_instances": 1500, "gold_heads": 6, "pseudo_heads": 3,
        "candidate_heads": 10, "resamples": 30,
        "nn_instances": 400, "nn_gold_heads": 4, "nn_epochs": 1,
        "surveys_per_relation": 1, "annotators_per_survey": 12,
        "omcs_triplets": 800,
    },
}

WORKLOADS = ("corpus-extract", "score-eval", "nn-train", "annotate-omcs")

OMCS_RELATIONS = ("AtLocation", "CapableOf", "Desires", "HasA", "HasProperty",
                  "IsA", "ReceivesAction", "UsedFor")

CONSONANTS = "bcdfghjklmnprtvw"
VOWELS = "aeiou"


def bundled_question_words(src: Path) -> dict[str, list[str]]:
    """Verbs, adjectives and candidate nouns of the bundled questions."""
    doc = json.loads((src / "selpref" / "data" / "wsc72.json").read_text(encoding="utf-8"))
    qs = doc["questions"]
    return {
        "verb": sorted({q["verb"].lower() for q in qs}),
        "adj": sorted({q["adjective"].lower() for q in qs}),
        "noun": sorted({q[k]["lemma"].lower() for q in qs
                        for k in ("candidate_subject", "candidate_object")}),
        "questions": [(q["verb"].lower(), q["adjective"].lower(), q["gold"]) for q in qs],
    }


def _synthetic_words(rng: random.Random, n: int, exclude: set[str], prefix: str = "") -> list[str]:
    out: list[str] = []
    seen = set(exclude)
    while len(out) < n:
        w = prefix + "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(2))
        w += rng.choice(CONSONANTS) + rng.choice("ao")
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


@dataclass
class Vocab:
    pools: dict[str, list[str]]          # pos -> words, sorted
    synthetic: dict[str, list[str]]      # pos -> synthetic words only
    questions: list[tuple[str, str, str]]   # verb, adjective, gold side

    def write_lexicon(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for pos in ("verb", "noun", "adj"):
                for w in self.pools[pos]:
                    fh.write(f"{w}\t{pos}\n")


def build_vocab(src: Path) -> Vocab:
    """Release-sized vocabulary; the same for every seed."""
    q = bundled_question_words(src)
    rng = random.Random(1906)
    reserved = set(q["verb"]) | set(q["adj"]) | set(q["noun"])
    pools, synthetic = {}, {}
    for pos in ("verb", "noun", "adj"):
        synthetic[pos] = _synthetic_words(rng, POOL_SIZES[pos] - len(q[pos]), reserved)
        reserved |= set(synthetic[pos])
        pools[pos] = sorted(q[pos] + synthetic[pos])
    return Vocab(pools, synthetic, q["questions"])


class Zipf:
    """Seeded Zipf(1) draws over a word list in a seed-dependent rank order."""

    def __init__(self, rng: random.Random, words: list[str]):
        self.words = list(words)
        rng.shuffle(self.words)
        acc, self.cum = 0.0, []
        for r in range(1, len(self.words) + 1):
            acc += 1.0 / r
            self.cum.append(acc)

    def ranks(self, rng: random.Random, k: int) -> list[int]:
        return rng.choices(range(len(self.words)), cum_weights=self.cum, k=k)

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return [self.words[i] for i in self.ranks(rng, k)]


def _table_instances(rng: random.Random, vocab: Vocab, per_relation: int) -> Counter:
    """Zipf heads, and per head a Zipf over dependents shifted by a
    head-specific offset, so heads prefer different dependents."""
    tally: Counter = Counter()
    for rel in RELATIONS:
        heads = Zipf(rng, vocab.pools[HEAD_POS[rel]])
        deps = Zipf(rng, vocab.pools[DEP_POS[rel]])
        n_dep = len(deps.words)
        offsets = {h: rng.randrange(n_dep) for h in heads.words}
        for h, r in zip(heads.draw(rng, per_relation), deps.ranks(rng, per_relation)):
            tally[(rel, h, deps.words[(r + offsets[h]) % n_dep])] += 1
    # every question verb gets attested adjectives in both two-hop
    # relations, so ds and nn answer all 72 questions
    for verb, adj, _ in vocab.questions:
        for rel in ("nsubj_amod", "dobj_amod"):
            tally[(rel, verb, adj)] += rng.randint(1, 3)
            tally[(rel, verb, rng.choice(vocab.pools["adj"]))] += 1
    return tally


def write_counts(tally: Counter, path: Path) -> None:
    order = {r: i for i, r in enumerate(RELATIONS)}
    rows = sorted(tally.items(), key=lambda kv: (order[kv[0][0]], kv[0][1], -kv[1], kv[0][2]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("#sp-counts v1\n")
        for (rel, h, d), c in rows:
            fh.write(f"{rel}\t{h}\t{d}\t{c}\n")


def write_vectors(rng: random.Random, vocab: Vocab, path: Path, dim: int = 100) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for pos in ("verb", "noun", "adj"):
            for w in vocab.pools[pos]:
                fh.write(w + " " + " ".join(f"{rng.gauss(0.0, 1.0):.5f}" for _ in range(dim)) + "\n")


def top_heads(tally: Counter, rel: str, k: int) -> list[tuple[str, list[str]]]:
    """The k heads of highest marginal (ties by name) with their attested
    dependents ordered by count desc, then name."""
    marg: Counter = Counter()
    deps: dict[str, list[tuple[int, str]]] = {}
    for (r, h, d), c in tally.items():
        if r == rel:
            marg[h] += c
            deps.setdefault(h, []).append((-c, d))
    heads = sorted(marg, key=lambda h: (-marg[h], h))[:k]
    return [(h, [d for _, d in sorted(deps[h])]) for h in heads]


def gold_pairs(rng: random.Random, vocab: Vocab, tally: Counter, heads_per_rel: int):
    """SP-10K shape: per relation the top heads, each with its 2 most
    frequent and 2 random dependents; ratings uniform on 0-10."""
    out = []
    for rel in RELATIONS:
        pool = vocab.pools[DEP_POS[rel]]
        for head, attested in top_heads(tally, rel, heads_per_rel):
            frequent = attested[:2]
            rand = rng.sample([d for d in pool if d not in frequent], 2)
            for d in frequent + rand:
                out.append((rel, head, d, f"{rng.uniform(0.0, 10.0):.2f}"))
    return out


def write_gold(rows, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("#sp10k v1\n")
        for rel, h, d, v in rows:
            fh.write(f"{rel}\t{h}\t{d}\t{v}\n")


# corpus-extract --------------------------------------------------------

class _Sentence:
    def __init__(self):
        self.rows: list[list[str]] = []   # 10 CoNLL-U columns per token

    def add(self, lemma: str, upos: str, head: int, deprel: str) -> int:
        idx = len(self.rows) + 1
        form = lemma.capitalize() if upos == "PROPN" else lemma
        self.rows.append([str(idx), form, lemma, upos, "_", "_", str(head), deprel, "_", "_"])
        return idx


def _noun_phrase(rng, sent, vocab_z, head_slot, deprel, tally, verb, kind):
    """Append DET ADJ* NOUN|PROPN|PRON and tally its pairs; returns the
    noun's id. ``head_slot`` is the verb id the noun attaches to."""
    if kind == "pron":
        return sent.add(rng.choice(["he", "she", "it", "they"]), "PRON", head_slot, deprel)
    if kind == "propn":
        lemma = vocab_z["noun"].draw(rng, 1)[0].capitalize()
        idx = sent.add(lemma, "PROPN", head_slot, deprel)
        one_hop = {"nsubj": "nsubj", "obj": "dobj", "dobj": "dobj"}.get(deprel)
        if one_hop:
            tally[(one_hop, verb, lemma.lower())] += 1
        return idx
    n_adj = rng.choices((0, 1, 2), weights=(50, 35, 15))[0]
    noun = vocab_z["noun"].draw(rng, 1)[0]
    adjs = vocab_z["adj"].draw(rng, n_adj)
    det = sent.add(rng.choice(["the", "a", "this"]), "DET", 0, "det")
    adj_ids = [sent.add(a, "ADJ", 0, "amod") for a in adjs]
    idx = sent.add(noun, "NOUN", head_slot, deprel)
    for i in [det] + adj_ids:
        sent.rows[i - 1][6] = str(idx)
    one_hop, two_hop = {"nsubj": ("nsubj", "nsubj_amod"), "obj": ("dobj", "dobj_amod"),
                        "dobj": ("dobj", "dobj_amod")}.get(deprel, (None, None))
    if one_hop:
        tally[(one_hop, verb, noun)] += 1
        for a in adjs:
            tally[(two_hop, verb, a)] += 1
    for a in adjs:
        tally[("amod", noun, a)] += 1
    return idx


def _corpus_sentence(rng, vocab_z, tally: Counter) -> _Sentence:
    """One sentence: subject (noun, proper noun, pronoun or passive
    subject), verb, optional object, punctuation. Verb ids are fixed up
    once the verb's position is known."""
    sent = _Sentence()
    verb = vocab_z["verb"].draw(rng, 1)[0]
    subj_kind = rng.choices(("noun", "propn", "pron", "passive"), weights=(60, 10, 15, 15))[0]
    placeholder = 999
    subj_rel = "nsubj:pass" if subj_kind == "passive" else "nsubj"
    _noun_phrase(rng, sent, vocab_z, placeholder, subj_rel, tally, verb,
                 "noun" if subj_kind == "passive" else subj_kind)
    if subj_kind == "passive":
        sent.add("be", "AUX", placeholder, "aux:pass")
    v = sent.add(verb, "VERB", 0, "root")
    if subj_kind != "passive" and rng.random() < 0.8:
        obj_rel = "dobj" if rng.random() < 0.1 else "obj"
        _noun_phrase(rng, sent, vocab_z, v, obj_rel, tally, verb,
                     rng.choices(("noun", "propn"), weights=(90, 10))[0])
    if rng.random() < 0.3:
        sent.add(rng.choice(["quickly", "today", "again"]), "ADV", v, "advmod")
    sent.add(".", "PUNCT", v, "punct")
    for row in sent.rows:
        if row[6] == str(placeholder):
            row[6] = str(v)
    return sent


DEFECTS = ("columns", "head", "selfhead", "gap", "beyond")


def _break(rng, rows: list[list[str]]) -> list[str]:
    """Plant exactly one defect, so the reader logs exactly one warning."""
    defect = rng.choice(DEFECTS)
    lines = ["\t".join(r) for r in rows]
    k = rng.randrange(len(rows) - 1)
    if defect == "columns":
        lines[k] = "\t".join(rows[k][:9])
    elif defect == "head":
        lines[k] = "\t".join(rows[k][:6] + ["x"] + rows[k][7:])
    elif defect == "selfhead":
        lines[k] = "\t".join(rows[k][:6] + [rows[k][0]] + rows[k][7:])
    elif defect == "gap":
        del lines[k]
    else:
        lines[k] = "\t".join(rows[k][:6] + [str(len(rows) + 3)] + rows[k][7:])
    return lines


def gen_corpus(rng: random.Random, vocab: Vocab, size: dict, path: Path) -> dict:
    vocab_z = {pos: Zipf(rng, vocab.pools[pos]) for pos in ("verb", "noun", "adj")}
    tally: Counter = Counter()
    malformed = tokens = 0
    out = io.StringIO()
    for i in range(size["sentences"]):
        bad = rng.random() < size["malformed_share"]
        sent = _corpus_sentence(rng, vocab_z, Counter() if bad else tally)
        out.write(f"# sent_id = {i + 1}\n# text = "
                  + " ".join(r[1] for r in sent.rows) + "\n")
        if bad:
            malformed += 1
            lines = _break(rng, sent.rows)
        else:
            tokens += len(sent.rows)
            lines = ["\t".join(r) for r in sent.rows]
            if rng.random() < 0.05:   # multiword-token range before token 1
                lines.insert(0, "1-2\t" + sent.rows[0][1] + "s\t_\t_\t_\t_\t_\t_\t_\t_")
            if rng.random() < 0.05:   # empty node after the verb
                lines.append(f"{len(sent.rows)}.1\tgo\tgo\tVERB\t_\t_\t_\t_\t_\t_")
        out.write("\n".join(lines) + "\n\n")
    path.write_text(out.getvalue(), encoding="utf-8")
    return {"tally": tally, "malformed": malformed, "sentences": size["sentences"],
            "tokens": tokens}


# annotate-omcs ---------------------------------------------------------

CHECKPOINT_SETS = ("3|4|5", "2|3|4", "1|2|3")   # all accept 3


def gen_ratings(rng: random.Random, vocab: Vocab, size: dict, ratings_path: Path,
                survey_pairs: Path, survey_checkpoints: Path) -> dict:
    """Surveys of 100 distinct pairs + 3 checkpoints, one relation each,
    each rated in full by annotators of its own. Per survey up to two
    annotators are planted to be rejected: one fails a checkpoint, one
    rates everything 3 (zero variance, which passes every checkpoint)."""
    used: set[tuple[str, str, str]] = set()
    ratings, rejected, pair_ratings = [], {}, {}
    surveys = []
    for s in range(size["surveys_per_relation"] * len(RELATIONS)):
        rel = RELATIONS[s % len(RELATIONS)]
        pairs = []
        while len(pairs) < 100:
            p = (rel, rng.choice(vocab.synthetic[HEAD_POS[rel]]),
                 rng.choice(vocab.synthetic[DEP_POS[rel]]))
            if p not in used:
                used.add(p)
                pairs.append(p)
        cps = [((rel, rng.choice(vocab.synthetic[HEAD_POS[rel]]),
                 rng.choice(vocab.synthetic[DEP_POS[rel]])), CHECKPOINT_SETS[i]) for i in range(3)]
        surveys.append((pairs, cps))
        latent = {p: rng.uniform(1.0, 5.0) for p in pairs}
        n_ann = size["annotators_per_survey"]
        plant = rng.sample(range(n_ann), rng.choice((0, 1, 2)))
        for a in range(n_ann):
            ann = f"s{s:03d}a{a:02d}"
            mode = None
            if a in plant:
                mode = "checkpoint" if plant.index(a) == 0 else "constant"
                rejected[ann] = mode
            bad_cp = rng.randrange(3)
            for p in pairs:
                r = 3 if mode == "constant" else min(5, max(1, round(latent[p] + rng.gauss(0, 1))))
                ratings.append((ann, p, r, "0", ""))
                if mode is None:
                    pair_ratings.setdefault(p, []).append((ann, r))
            for i, (p, exp) in enumerate(cps):
                ok = [int(e) for e in exp.split("|")]
                r = 3 if mode == "constant" else rng.choice(ok)
                if mode == "checkpoint" and i == bad_cp:
                    r = 5 if 5 not in ok else 1
                ratings.append((ann, p, r, "1", exp))
    with open(ratings_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["annotator_id", "relation", "head", "dependent",
                    "rating", "is_checkpoint", "expected"])
        for ann, (rel, h, d), r, cp, exp in ratings:
            w.writerow([ann, rel, h, d, r, cp, exp])
    pairs0, cps0 = surveys[0]
    with open(survey_pairs, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{r}\t{h}\t{d}\n" for r, h, d in pairs0)
    with open(survey_checkpoints, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(f"{r}\t{h}\t{d}\t{e}\n" for (r, h, d), e in cps0)
    return {"n_ratings": len(ratings), "rejected": rejected, "pair_ratings": pair_ratings,
            "annotators": len({r[0] for r in ratings}), "survey": surveys[0]}


def _inflect(rng, word: str, pos: str) -> str:
    if pos == "noun":
        return rng.choice((word, word + "s"))
    if pos == "verb":
        return rng.choice((word, word + "s", word + "ed", word + "ing"))
    return word


def gen_omcs(rng: random.Random, vocab: Vocab, size: dict, pairs, path: Path) -> dict:
    """Triplets over inflected multi-word phrases. A third of the pairs
    get an exact witness (one token per side, either orientation, some
    also a partial one), a third only partial witnesses, the rest none.
    Everything else is filler over q-words."""
    fillers = _synthetic_words(random.Random(7), 3000, set(), prefix="q")
    rows, witnesses = [], {}
    for rel, h, d in pairs:
        kind = rng.choice(("exact", "partial", "none"))
        if kind == "none":
            continue
        hw, dw = _inflect(rng, h, HEAD_POS[rel]), _inflect(rng, d, DEP_POS[rel])
        key = frozenset((h, d))
        entry = witnesses.setdefault(key, {"exact": [], "partial": []})
        if kind == "exact":
            t = ((hw,), rng.choice(OMCS_RELATIONS), (dw,))
            rows.append(t if rng.random() < 0.5 else (t[2], t[1], t[0]))
            entry["exact"].append(rows[-1][1])
        for _ in range(rng.randint(1, 2) if kind == "partial" else rng.randint(0, 1)):
            start = (rng.choice(fillers), hw) if rng.random() < 0.5 else (hw,)
            end = (dw, rng.choice(fillers))
            t = (start, rng.choice(OMCS_RELATIONS), end)
            rows.append(t if rng.random() < 0.5 else (t[2], t[1], t[0]))
            entry["partial"].append(rows[-1][1])
    while len(rows) < size["omcs_triplets"]:
        start = tuple(_inflect(rng, rng.choice(fillers), "noun") for _ in range(rng.randint(1, 3)))
        end = tuple(_inflect(rng, rng.choice(fillers), "verb") for _ in range(rng.randint(1, 4)))
        rows.append((start, rng.choice(OMCS_RELATIONS), end))
    rng.shuffle(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for s, r, e in rows:
            fh.write(f"{' '.join(s)}\t{r}\t{' '.join(e)}\n")
    return {"witnesses": witnesses, "n_triplets": len(rows),
            "tokens": [tok for s, _, e in rows for tok in s + e]}


# workloads -------------------------------------------------------------

@dataclass
class Inputs:
    """Generated files (relative to ``root``) plus the oracle tallies."""

    workload: str
    seed: int
    size: dict
    root: Path
    vocab: Vocab
    files: dict[str, str] = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)

    def path(self, key: str) -> Path:
        return self.root / self.files[key]


def generate(workload: str, seed: int, size_name: str, root: Path, src: Path) -> Inputs:
    """Write the inputs of one workload under ``root``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SIZES[size_name]
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    vocab = build_vocab(src)
    inp = Inputs(workload, seed, size, root, vocab)
    inp.files["lexicon"] = "lexicon.tsv"
    vocab.write_lexicon(inp.path("lexicon"))
    if workload == "corpus-extract":
        inp.files["corpus"] = "corpus.conllu"
        inp.oracle = gen_corpus(rng, vocab, size, inp.path("corpus"))
    elif workload in ("score-eval", "nn-train"):
        nn = workload == "nn-train"
        per_rel = size["nn_instances" if nn else "table_instances"] // len(RELATIONS)
        tally = _table_instances(rng, vocab, per_rel)
        inp.files.update(counts="counts.tsv", gold="gold.tsv")
        write_counts(tally, inp.path("counts"))
        gold = gold_pairs(rng, vocab, tally, size["nn_gold_heads" if nn else "gold_heads"])
        write_gold(gold, inp.path("gold"))
        inp.oracle = {"tally": tally, "gold": gold}
        if not nn:
            inp.files.update(vectors="vectors.txt", pseudo="pseudo.tsv")
            write_vectors(rng, vocab, inp.path("vectors"))
            per_rel_gold = 4 * size["pseudo_heads"]
            pseudo = [g for rel in RELATIONS
                      for g in [x for x in gold if x[0] == rel][:per_rel_gold]]
            write_gold(pseudo, inp.path("pseudo"))
            inp.oracle["pseudo"] = [(r, h, d) for r, h, d, _ in pseudo]
    else:
        inp.files.update(ratings="ratings.csv", survey_pairs="survey_pairs.tsv",
                         survey_checkpoints="survey_checkpoints.tsv", omcs="omcs.tsv")
        ann = gen_ratings(rng, vocab, size, inp.path("ratings"), inp.path("survey_pairs"),
                          inp.path("survey_checkpoints"))
        omcs = gen_omcs(rng, vocab, size, sorted(ann["pair_ratings"]), inp.path("omcs"))
        inp.oracle = {**ann, **omcs}
    return inp
