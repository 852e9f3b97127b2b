"""The fast paths checked against the slow references they replaced.

The references below are the earlier implementations, kept verbatim as
test-only code: a count table with one flat ``(head, dependent)`` counter
per relation plus parallel marginal and total counters, the counts reader
that built an ``SPPair`` per row, the scalar ``ds`` loop, the
pseudo-disambiguation loop that re-sorted the pool for every test pair,
and the CoNLL-U pipeline that built a ``Token`` per line, a ``Sentence``
per sentence and an ``SPPair`` per extracted pair.
Counts must match exactly; ``ds`` within 1e-12 (the mat-vec sums in
another order), with the same None / ZeroVectorError outcomes; CoNLL-U
counting with the same error text and the same warnings in order.
"""

import io
import logging
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from selpref.conllu import CorpusFormatError, read_conllu, read_conllu_file
from selpref.core import (
    BadLemmaError,
    Lexicon,
    SelPrefError,
    SPPair,
    SPRelation,
    parse_relation,
)
from selpref.embeddings import (
    EmbeddingError,
    EmbeddingTable,
    ZeroVectorError,
    cosine,
    load_embeddings,
)
from selpref.evaluation import pseudo_disambiguation
from selpref.extract import (
    NOUN_UPOS,
    OBJECT_DEPRELS,
    PASSIVE_SUBJECT_DEPRELS,
    SUBJECT_DEPRELS,
    CountTable,
    CountTableError,
    build_counts,
    count_conllu,
    extract_pairs,
    read_counts,
    write_counts,
)
from selpref.scorers import DSModel, LookupModel, PPModel, ds_score

FIXTURE = Path(__file__).parent / "data" / "fixture.conllu"
RELATIONS = list(SPRelation)


class FlatCountTable:
    def __init__(self):
        self._pairs = {r: Counter() for r in SPRelation}
        self._marginals = {r: Counter() for r in SPRelation}
        self._totals = Counter()

    def _add(self, pair, count=1):
        if count < 1:
            raise CountTableError(f"count must be >= 1, got {count}")
        self._pairs[pair.relation][(pair.head, pair.dependent)] += count
        self._marginals[pair.relation][pair.head] += count
        self._totals[pair.relation] += count

    @classmethod
    def from_pairs(cls, pairs):
        table = cls()
        for pair in pairs:
            table._add(pair)
        return table

    def count(self, relation, head, dependent):
        return self._pairs[relation][(head, dependent)]

    def marginal(self, relation, head):
        return self._marginals[relation][head]

    def total(self, relation):
        return self._totals[relation]

    def unique_pairs(self, relation):
        return len(self._pairs[relation])

    def dependents_of(self, relation, head):
        return {
            d: c for (h, d), c in self._pairs[relation].items() if h == head
        }

    def heads(self, relation):
        return list(self._marginals[relation])

    def items(self, relation):
        for (head, dep), count in self._pairs[relation].items():
            yield head, dep, count

    def merge(self, other):
        out = FlatCountTable()
        for table in (self, other):
            for rel in SPRelation:
                out._pairs[rel].update(table._pairs[rel])
                out._marginals[rel].update(table._marginals[rel])
            out._totals.update(table._totals)
        return out


def flat_read_counts(fh, source="<stream>"):
    table = FlatCountTable()
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise CountTableError(f"{source}:{lineno}: expected 4 columns, got {len(fields)}")
        rel_name, head, dep, count_text = fields
        try:
            count = int(count_text)
        except ValueError:
            raise CountTableError(f"{source}:{lineno}: bad count {count_text!r}") from None
        if count < 1:
            raise CountTableError(f"{source}:{lineno}: count must be >= 1, got {count}")
        table._add(SPPair(parse_relation(rel_name), head, dep), count)
    return table


def scalar_ds_score(counts, emb, pair):
    target = emb.get(pair.dependent)
    if target is None:
        return None
    attested = counts.dependents_of(pair.relation, pair.head)
    if not attested:
        return None
    num = 0.0
    z = 0.0
    for dep, weight in attested.items():
        vec = emb.get(dep)
        if vec is None:
            continue
        num += weight * cosine(target, vec)
        z += weight
    if z == 0.0:
        return None
    return num / z


def scalar_pseudo_disambiguation(model, test_pairs, vocab, seed=0):
    positives = set(test_pairs)
    rng = random.Random(seed)
    total = 0.0
    for pair in test_pairs:
        pool = sorted(vocab.dependents_for(pair.relation))
        usable = [
            d for d in pool
            if SPPair(pair.relation, pair.head, d) not in positives
        ]
        confounder = rng.choice(usable)
        pos = model.score(pair)
        neg = model.score(SPPair(pair.relation, pair.head, confounder))
        if pos is None or neg is None or pos == neg:
            total += 0.5
        elif pos > neg:
            total += 1.0
    return total / len(test_pairs)


def random_pairs(rng, n, heads=6, deps=12, relations=RELATIONS):
    return [
        SPPair(rng.choice(relations), f"h{rng.randrange(heads)}",
               f"d{rng.randrange(deps)}")
        for _ in range(n)
    ]


def assert_same_table(new, old, ordered_items=False):
    for rel in SPRelation:
        assert new.total(rel) == old.total(rel)
        assert new.unique_pairs(rel) == old.unique_pairs(rel)
        assert new.heads(rel) == old.heads(rel)
        new_items, old_items = list(new.items(rel)), list(old.items(rel))
        if ordered_items:
            assert new_items == old_items
        else:
            assert sorted(new_items) == sorted(old_items)
        for head in old.heads(rel) + ["never-seen"]:
            assert new.marginal(rel, head) == old.marginal(rel, head)
            # same dependents, counts and first-seen order
            assert list(new.dependents_of(rel, head).items()) == list(
                old.dependents_of(rel, head).items())
        for head, dep, _ in old_items:
            assert new.count(rel, head, dep) == old.count(rel, head, dep)
        assert new.count(rel, "never-seen", "d0") == 0


class TestCountTable:
    def test_accessors_match_flat_reference(self):
        rng = random.Random(101)
        for trial in range(60):
            pairs = random_pairs(rng, rng.randrange(0, 120))
            new = CountTable.from_pairs(pairs)
            assert_same_table(new, FlatCountTable.from_pairs(pairs))
            new.validate()

    def test_merge_matches_flat_reference(self):
        rng = random.Random(202)
        for trial in range(40):
            a = random_pairs(rng, rng.randrange(0, 80))
            b = random_pairs(rng, rng.randrange(0, 80), heads=9)
            merged = CountTable.from_pairs(a).merge(CountTable.from_pairs(b))
            ref = FlatCountTable.from_pairs(a).merge(FlatCountTable.from_pairs(b))
            assert_same_table(merged, ref)
            assert_same_table(merged, FlatCountTable.from_pairs(a + b))
            merged.validate()

    def test_dependents_of_is_a_read_only_view(self):
        table = CountTable.from_pairs([SPPair(SPRelation.DOBJ, "eat", "fish")])
        with pytest.raises(TypeError):
            table.dependents_of(SPRelation.DOBJ, "eat")["rock"] = 1
        with pytest.raises(TypeError):
            table.dependents_of(SPRelation.DOBJ, "drink")["rock"] = 1
        assert table.heads(SPRelation.DOBJ) == ["eat"]

    def test_validate_rejects_what_the_store_can_still_break(self):
        table = CountTable.from_pairs([SPPair(SPRelation.DOBJ, "eat", "fish")])
        table._heads[SPRelation.DOBJ]["eat"]["fish"] = 0
        with pytest.raises(CountTableError):
            table.validate()
        table._heads[SPRelation.DOBJ]["eat"] = Counter()
        with pytest.raises(CountTableError):
            table.validate()


class TestReadCounts:
    def roundtrip(self, table):
        buf = io.StringIO()
        write_counts(table, buf, config={"seed": 1})
        return buf.getvalue()

    def test_fixture_table_matches_reference_in_order(self):
        text = self.roundtrip(build_counts(read_conllu_file(FIXTURE)))
        new = read_counts(io.StringIO(text))
        old = flat_read_counts(io.StringIO(text))
        # the order items() yields is what train-nn sees
        assert_same_table(new, old, ordered_items=True)
        assert self.roundtrip(new) == text

    def test_random_written_tables_match_reference_in_order(self):
        rng = random.Random(303)
        for trial in range(30):
            text = self.roundtrip(CountTable.from_pairs(random_pairs(rng, 150)))
            assert_same_table(read_counts(io.StringIO(text)),
                              flat_read_counts(io.StringIO(text)),
                              ordered_items=True)

    def test_unsorted_mixed_case_rows_match_reference(self):
        rng = random.Random(404)
        names = ["dobj", "DOBJ", " nsubj", "Amod ", "dobj_amod", "nsubj_amod"]
        for trial in range(30):
            rows = ["#sp-counts v1", ""]
            for _ in range(rng.randrange(1, 60)):
                head = rng.choice(["eat", "EAT", "Drink", "see"])
                dep = rng.choice(["fish", "Fish", "worm", "STONE"])
                rows.append(f"{rng.choice(names)}\t{head}\t{dep}\t{rng.randint(1, 9)}")
            text = "\n".join(rows) + "\n"
            assert_same_table(read_counts(io.StringIO(text)),
                              flat_read_counts(io.StringIO(text)))

    @pytest.mark.parametrize("row", [
        "dobj\teat\tfish",
        "dobj\teat\tfish\t1\textra",
        "dobj\teat\tfish\tmany",
        "dobj\teat\tfish\t0",
        "dobj\teat\tfish\t-3",
        "bogus\teat\tfish\t1",
        "dobj\t\tfish\t1",
        "dobj\teat\t\t1",
        "dobj\t  \tfish\t1",
        "dobj\teat\t \t1",
        "dobj\te\rat\tfish\t1",
        "dobj\teat\tfi\rsh\t1",
    ])
    def test_bad_row_fails_like_reference_with_coordinates(self, row):
        text = f"#sp-counts v1\ndobj\teat\tworm\t2\n{row}\n"
        with pytest.raises(SelPrefError) as old:
            flat_read_counts(io.StringIO(text), source="t.tsv")
        with pytest.raises(CountTableError) as new:
            read_counts(io.StringIO(text), source="t.tsv")
        message = str(old.value)
        if not message.startswith("t.tsv:3: "):
            message = "t.tsv:3: " + message
        assert str(new.value) == message


def random_embeddings(rng, words, dim, with_zero):
    vectors = {}
    for w in words:
        roll = rng.random()
        if roll < 0.2:
            continue  # no vector
        if roll < 0.35:
            # small integer components: parallel and tied vectors
            vec = np.array([rng.choice([-2, -1, 0, 1, 2]) for _ in range(dim)], dtype=float)
            if not vec.any():
                vec[0] = 1.0
        else:
            vec = np.array([rng.gauss(0, 1) for _ in range(dim)])
        vectors[w] = vec
    if with_zero:
        vectors[rng.choice(words)] = np.zeros(dim)
    if not vectors:
        vectors[words[0]] = np.ones(dim)
    return EmbeddingTable(vectors)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroVectorError:
        return ZeroVectorError


class TestDS:
    def test_matches_scalar_reference(self):
        rng = random.Random(505)
        words = [f"d{i}" for i in range(14)]
        checked = {"value": 0, "none": 0, "zero": 0}
        for trial in range(150):
            emb = random_embeddings(rng, words, rng.randint(1, 6),
                                    with_zero=trial % 3 == 0)
            pairs = []
            for h in range(rng.randint(1, 5)):
                degree = rng.choice([1, 1, 2, 4, 9])  # single-dependent heads too
                for dep in rng.sample(words, degree):
                    # few distinct weights, so ties are common
                    pairs += [SPPair(SPRelation.DOBJ, f"h{h}", dep)] * rng.choice([1, 1, 3])
            table = CountTable.from_pairs(pairs)
            flat = FlatCountTable.from_pairs(pairs)
            for head in [f"h{h}" for h in range(6)]:  # h5 is never seen
                for dep in words + ["no-vector"]:
                    pair = SPPair(SPRelation.DOBJ, head, dep)
                    want = outcome(scalar_ds_score, flat, emb, pair)
                    got = outcome(ds_score, table, emb, pair)
                    if want is None or want is ZeroVectorError:
                        assert got is want, (trial, pair)
                        checked["none" if want is None else "zero"] += 1
                    else:
                        assert isinstance(got, float)
                        assert abs(got - want) <= 1e-12, (trial, pair, got, want)
                        checked["value"] += 1
        assert min(checked.values()) > 100, checked

    def test_unseen_head_with_zero_norm_target_is_missing(self):
        emb = EmbeddingTable({"zero": np.zeros(2), "fish": np.ones(2)})
        table = CountTable.from_pairs([SPPair(SPRelation.DOBJ, "eat", "fish")])
        pair = SPPair(SPRelation.DOBJ, "drink", "zero")
        assert scalar_ds_score(table, emb, pair) is None
        assert ds_score(table, emb, pair) is None

    def test_zero_norm_target_raises_only_with_an_embedded_attested(self):
        emb = EmbeddingTable({"zero": np.zeros(2), "fish": np.ones(2)})
        table = CountTable.from_pairs([
            SPPair(SPRelation.DOBJ, "eat", "fish"),
            SPPair(SPRelation.DOBJ, "drink", "no-vector"),
        ])
        with pytest.raises(ZeroVectorError):
            ds_score(table, emb, SPPair(SPRelation.DOBJ, "eat", "zero"))
        assert ds_score(table, emb, SPPair(SPRelation.DOBJ, "drink", "zero")) is None

    def test_embedding_rows_are_the_given_vectors(self):
        rng = np.random.default_rng(7)
        vectors = {f"w{i}": rng.normal(size=5) for i in range(20)}
        emb = EmbeddingTable(vectors)
        for w, v in vectors.items():
            assert np.array_equal(emb.get(w), v)
            assert emb.norms[emb.index[w]] == pytest.approx(np.linalg.norm(v), rel=1e-15)
        assert emb.get("absent") is None
        with pytest.raises(ValueError):
            emb.get("w0")[0] = 1.0


    def test_loaded_matrix_matches_per_word_vectors(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2 3\nb 0 0 0\na 9 9 9\nc -1.5 2e-3 4\n")
        emb = load_embeddings(path)
        ref = EmbeddingTable({"a": np.array([1.0, 2, 3]), "b": np.zeros(3),
                              "c": np.array([-1.5, 2e-3, 4])})
        assert emb.index == ref.index
        assert np.array_equal(emb.matrix, ref.matrix)
        assert np.allclose(emb.norms, [np.linalg.norm(v) for v in ref.matrix],
                           rtol=1e-15, atol=0)

    def test_non_finite_component_names_the_word(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("a 1 2\nb 1 inf\n")
        with pytest.raises(EmbeddingError, match="'b'"):
            load_embeddings(path)
        with pytest.raises(EmbeddingError, match="'c'"):
            EmbeddingTable({"a": np.ones(2), "c": np.array([np.nan, 1.0])})


class TestPseudoDisambiguation:
    def test_matches_reference_loop(self):
        rng = random.Random(606)
        nouns = [f"n{i}" for i in range(25)]
        adjs = [f"a{i}" for i in range(15)]
        vocab = Lexicon(verbs=frozenset(f"v{i}" for i in range(6)),
                        nouns=frozenset(nouns), adjectives=frozenset(adjs))
        rels = [SPRelation.DOBJ, SPRelation.NSUBJ, SPRelation.DOBJ_AMOD]
        for trial in range(6):
            train = [SPPair(r, f"v{rng.randrange(6)}",
                            rng.choice(adjs if r is SPRelation.DOBJ_AMOD else nouns))
                     for r in rng.choices(rels, k=300)]
            table = CountTable.from_pairs(train)
            emb = EmbeddingTable({w: np.array([rng.gauss(0, 1) for _ in range(4)])
                                  for w in nouns + adjs if rng.random() < 0.8})
            lookup = LookupModel({p: float(rng.randint(0, 3)) for p in set(train)})
            tests = list(dict.fromkeys(train))[:40]
            for model in (PPModel(table), DSModel(table, emb), lookup):
                for seed in range(4):
                    assert pseudo_disambiguation(model, tests, vocab, seed=seed) == \
                        scalar_pseudo_disambiguation(model, tests, vocab, seed=seed)


# The CoNLL-U pipeline that count_conllu replaced, verbatim but for names.

old_log = logging.getLogger("reference.conllu")

N_COLUMNS = 10


@dataclass(frozen=True)
class OldToken:
    index: int          # 1-based position within the sentence
    lemma: str
    upos: str
    head_index: int     # 0 = root
    deprel: str

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"token index must be >= 1, got {self.index}")
        if self.head_index < 0:
            raise ValueError(f"head index must be >= 0, got {self.head_index}")
        if self.head_index == self.index:
            raise ValueError(f"token {self.index} is its own head")


class OldSentence:
    """An ordered, contiguously indexed token list."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        for pos, tok in enumerate(self.tokens, 1):
            if tok.index != pos:
                raise ValueError(f"token indices not contiguous at position {pos}")
            if tok.head_index > len(self.tokens):
                raise ValueError(
                    f"token {tok.index} points at head {tok.head_index} beyond sentence end"
                )

    def __len__(self):
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def token_at(self, index):
        return self.tokens[index - 1]


def old_parse_token_line(line, source, lineno):
    fields = line.split("\t")
    if len(fields) != N_COLUMNS:
        raise CorpusFormatError(
            source, lineno, f"expected {N_COLUMNS} tab-separated columns, got {len(fields)}"
        )
    tok_id = fields[0]
    if "-" in tok_id or "." in tok_id:
        return None  # multiword-token range or empty node
    try:
        index = int(tok_id)
    except ValueError:
        raise CorpusFormatError(source, lineno, f"bad token id {tok_id!r}") from None
    try:
        head = int(fields[6])
    except ValueError:
        raise CorpusFormatError(source, lineno, f"bad head index {fields[6]!r}") from None
    try:
        return OldToken(index=index, lemma=fields[2], upos=fields[3], head_index=head,
                        deprel=fields[7])
    except ValueError as exc:
        raise CorpusFormatError(source, lineno, str(exc)) from None


def old_read_conllu(fh, source="<stream>", skip_malformed=False):
    tokens = []
    start_line = 1
    bad = False

    def flush():
        nonlocal tokens, bad
        out = None
        if tokens and not bad:
            try:
                out = OldSentence(tokens)
            except ValueError as exc:
                if not skip_malformed:
                    raise CorpusFormatError(source, start_line, str(exc)) from None
                old_log.warning("%s:%d: skipping sentence: %s", source, start_line, exc)
        tokens = []
        bad = False
        return out

    lineno = 0
    for lineno, line in enumerate(fh, 1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            sent = flush()
            start_line = lineno + 1
            if sent is not None:
                yield sent
            continue
        if line.startswith("#"):
            continue
        try:
            tok = old_parse_token_line(line, source, lineno)
        except CorpusFormatError as exc:
            if not skip_malformed:
                raise
            old_log.warning("skipping sentence with malformed line: %s", exc)
            bad = True
            continue
        if tok is not None:
            tokens.append(tok)
    sent = flush()
    if sent is not None:
        yield sent


def old_extract_pairs(sentence, include_passive=False):
    pairs = []
    # amod children per noun index, in token order
    amods = defaultdict(list)
    for tok in sentence:
        if tok.deprel == "amod" and tok.upos == "ADJ" and tok.head_index > 0:
            noun = sentence.token_at(tok.head_index)
            if noun.upos in NOUN_UPOS:
                amods[noun.index].append(tok.lemma)

    subject_deprels = SUBJECT_DEPRELS | (PASSIVE_SUBJECT_DEPRELS if include_passive else set())
    for tok in sentence:
        if tok.head_index == 0 or tok.upos not in NOUN_UPOS:
            continue
        head = sentence.token_at(tok.head_index)
        if head.upos != "VERB":
            continue
        if tok.deprel in OBJECT_DEPRELS:
            one_hop, two_hop = SPRelation.DOBJ, SPRelation.DOBJ_AMOD
        elif tok.deprel in subject_deprels:
            one_hop, two_hop = SPRelation.NSUBJ, SPRelation.NSUBJ_AMOD
        else:
            continue
        pairs.append(SPPair(one_hop, head.lemma, tok.lemma))
        for adj in amods[tok.index]:
            pairs.append(SPPair(two_hop, head.lemma, adj))

    for noun_index, adjs in sorted(amods.items()):
        noun = sentence.token_at(noun_index)
        for adj in adjs:
            pairs.append(SPPair(SPRelation.AMOD, noun.lemma, adj))
    return pairs


def old_build_counts(corpus, include_passive=False):
    table = CountTable()
    for sentence in corpus:
        for pair in old_extract_pairs(sentence, include_passive=include_passive):
            table._add(pair)
    return table


# Random corpora.  Token 1 of every sentence carries the sentence's marker
# lemma, so a sentence the old reader yields can be matched to the lines
# its tokens were written on.

LEMMAS = {
    "NOUN": ["fish", "Worm", "door", "TABLE"], "PROPN": ["Paris", "anna"],
    "PRON": ["she", "it"], "VERB": ["eat", "Open", "break", "SELL"],
    "ADJ": ["small", "Red", "sad"], "DET": ["the", "a"], "ADV": ["fast"],
}
ARGUMENT_DEPRELS = ["obj", "dobj", "nsubj", "nsubjpass", "nsubj:pass", "obl", "ccomp"]
LINE_FAULTS = ["columns", "id", "head", "index0", "negative_head", "self_head"]
SENTENCE_FAULTS = ["gap", "beyond"]
LEMMA_FAULTS = ["", " ", "  ", "fi\rsh"]


def _bad_lemma(lemma):
    return not lemma.strip() or "\r" in lemma


def random_sentence(rng, marker):
    """Token columns [id, form, lemma, upos, head, deprel] of one sentence."""
    n = rng.randint(1, 9)
    upos = ["X"] + [rng.choice(list(LEMMAS)) for _ in range(n - 1)]
    verbs = [i for i, u in enumerate(upos, 1) if u == "VERB"]
    nouns = [i for i, u in enumerate(upos, 1) if u in ("NOUN", "PROPN")]
    toks = []
    for i, u in enumerate(upos, 1):
        others = [j for j in range(0, n + 1) if j != i]
        if u in ("NOUN", "PROPN", "PRON") and verbs and rng.random() < 0.85:
            head, deprel = rng.choice([v for v in verbs if v != i] or [0]), rng.choice(
                ARGUMENT_DEPRELS)
        elif u == "ADJ" and nouns and rng.random() < 0.85:
            head, deprel = rng.choice(nouns), rng.choice(["amod"] * 4 + ["conj"])
        else:
            head, deprel = rng.choice(others), rng.choice(["root", "det", "amod", "obj"])
        lemma = marker if i == 1 else rng.choice(LEMMAS[u])
        toks.append([str(i), lemma.upper(), lemma, u, str(head), deprel])
    return toks


def plant(rng, toks, fault):
    """Make one kind of fault in a sentence's token columns."""
    n = len(toks)
    tok = rng.choice(toks)
    if fault == "id":
        tok[0] = "x" + tok[0]
    elif fault == "head":
        tok[4] = "_"
    elif fault == "index0":
        tok[0] = "0"
    elif fault == "negative_head":
        tok[4] = "-1"
    elif fault == "self_head":
        tok[4] = tok[0]
    elif fault == "gap":
        for later in toks[rng.randrange(n):]:
            later[0] = str(int(later[0]) + 1)
    elif fault == "beyond":
        tok[4] = str(n + rng.randint(1, 3))
    elif fault == "columns":
        tok.append("extra")
    else:  # a bad lemma, never on the marker
        if n > 1:
            rng.choice(toks[1:])[2] = fault


def random_corpus(rng, n_sentences):
    """CoNLL-U text and {marker: {token id: line}} for its sentences."""
    crlf = rng.random() < 0.3
    out, lines_of = [], {}

    def emit(line):
        out.append(line + ("\r\n" if crlf and rng.random() < 0.7 else "\n"))
        return len(out)

    for k in range(n_sentences):
        marker = f"s{k}"
        toks = random_sentence(rng, marker)
        roll = rng.random()
        if roll < 0.12:
            plant(rng, toks, rng.choice(LINE_FAULTS))
        elif roll < 0.16:
            for fault in rng.sample(LINE_FAULTS, 2):  # two bad lines
                plant(rng, toks, fault)
        elif roll < 0.24:
            plant(rng, toks, rng.choice(SENTENCE_FAULTS))
        elif roll < 0.40:
            plant(rng, toks, rng.choice(LEMMA_FAULTS))
        if rng.random() < 0.5:
            emit(f"# sent_id = {k}")
        lines_of[marker] = lines = {}
        for pos, cols in enumerate(toks):
            if pos == 1 and rng.random() < 0.2:
                emit(f"{pos}-{pos + 1}\tdon't\t_\t_\t_\t_\t_\t_\t_\t_")
            if rng.random() < 0.05:
                emit("# a comment inside the sentence")
            form, lemma, upos, head, deprel = cols[1:6]
            extra = cols[6:]
            line = emit("\t".join([cols[0], form, lemma, upos, "_", "_", head, deprel,
                                   "_", "_", *extra]))
            if pos == 2 and rng.random() < 0.2:
                emit(f"{pos}.1\tgone\tgo\tVERB\t_\t_\t_\t_\t{pos}:conj\t_")
            lines[cols[0]] = line
        if k < n_sentences - 1 or rng.random() < 0.7:  # maybe no final blank line
            emit("")
            if rng.random() < 0.1:
                emit("")
    return "".join(out), lines_of


def old_count(text, source, skip_malformed, include_passive, lines_of):
    """The old pipeline, where a bad lemma in a pair ends its sentence like
    any other malformed one, at the line of its token."""
    def lemma_checked(sentences):
        for sentence in sentences:
            try:
                old_extract_pairs(sentence, include_passive)
            except BadLemmaError as err:
                (bad,) = [t.index for t in sentence if _bad_lemma(t.lemma)]
                line = lines_of[sentence.token_at(1).lemma][str(bad)]
                if not skip_malformed:
                    raise CorpusFormatError(source, line, str(err)) from None
                old_log.warning("%s:%d: skipping sentence: %s", source, line, err)
                continue
            yield sentence

    sentences = old_read_conllu(io.StringIO(text), source, skip_malformed)
    return old_build_counts(lemma_checked(sentences), include_passive)


def written(table):
    buf = io.StringIO()
    write_counts(table, buf, config={"seed": None})
    return buf.getvalue()


def run_logged(caplog, fn):
    """(what fn returns or its error text, warning messages in order)."""
    caplog.clear()
    try:
        with caplog.at_level(logging.WARNING):
            result = fn()
    except CorpusFormatError as err:
        result = ("error", str(err))
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    return result, warnings


class TestCountConllu:
    @pytest.mark.parametrize("include_passive", [False, True])
    def test_fixture_matches_reference(self, include_passive):
        text = FIXTURE.read_text(encoding="utf-8")
        want = written(old_build_counts(old_read_conllu(io.StringIO(text)), include_passive))
        got = count_conllu(io.StringIO(text), include_passive=include_passive)
        assert written(got) == want

    def test_random_corpora_match_reference(self, caplog):
        rng = random.Random(707)
        seen = Counter()
        for trial in range(150):
            text, lines_of = random_corpus(rng, rng.randint(1, 12))
            for skip in (False, True):
                for passive in (False, True):
                    want = run_logged(caplog, lambda: written(old_count(
                        text, "c.conllu", skip, passive, lines_of)))
                    got = run_logged(caplog, lambda: written(count_conllu(
                        io.StringIO(text), "c.conllu", skip, passive)))
                    assert got == want, (trial, skip, passive, text)
                    result, warnings = want
                    seen["error" if isinstance(result, tuple) else "table"] += 1
                    seen["lemma"] += sum("lemma" in w for w in warnings)
                    seen["line"] += sum("malformed line" in w for w in warnings)
                    seen["sentence"] += sum(
                        "contiguous" in w or "beyond" in w for w in warnings)
                    seen["pairs"] += result.count("\n") if isinstance(result, str) else 0
        assert min(seen.values()) > 20, seen

    def test_readers_and_rules_match_reference(self, caplog):
        rng = random.Random(808)
        for trial in range(100):
            text, _ = random_corpus(rng, rng.randint(1, 12))
            for skip in (False, True):
                def sentences(reader):
                    return lambda: [
                        [(t.index, t.lemma, t.upos, t.head_index, t.deprel) for t in s]
                        for s in reader(io.StringIO(text), "c.conllu", skip)]
                want = run_logged(caplog, sentences(old_read_conllu))
                got = run_logged(caplog, sentences(read_conllu))
                assert got == want, (trial, skip, text)
                if isinstance(want[0], tuple):
                    continue
                for old, new in zip(old_read_conllu(io.StringIO(text), "c", skip),
                                    read_conllu(io.StringIO(text), "c", skip)):
                    for passive in (False, True):
                        try:
                            want_pairs = old_extract_pairs(old, passive)
                        except BadLemmaError as err:
                            with pytest.raises(BadLemmaError) as new_err:
                                extract_pairs(new, passive)
                            assert str(new_err.value) == str(err)
                        else:
                            assert extract_pairs(new, passive) == want_pairs

    def test_build_counts_over_read_conllu_matches_reference(self):
        rng = random.Random(909)
        for trial in range(60):
            text, _ = random_corpus(rng, rng.randint(1, 12))
            outcomes = []
            for reader, build in ((old_read_conllu, old_build_counts),
                                  (read_conllu, build_counts)):
                try:
                    outcomes.append(written(build(reader(io.StringIO(text), "c", True))))
                except BadLemmaError as err:
                    outcomes.append(("lemma", str(err)))
            assert outcomes[0] == outcomes[1], (trial, text)
