import io
import random

import pytest

from selpref.commonsense import (
    GroupStats,
    MatchKind,
    OMCSFormatError,
    OMCSIndex,
    OMCSTriplet,
    PlausibilityGroup,
    classify_plausibility,
    coverage_by_group,
    coverage_table,
    import_conceptnet_csv,
    match_pair,
    read_omcs,
    relation_matrix,
    write_omcs,
)
from selpref.core import SPPair, SPRelation
from selpref.evaluation import GoldSet
from selpref.lemmatize import lemmatize, lemmatize_phrase

R = SPRelation.DOBJ


def trip(start, rel, end):
    return OMCSTriplet(tuple(start.split()), rel, tuple(end.split()))


class TestLemmatize:
    def test_fixed_points(self):
        for w in ["eat", "song", "fish", "use", "sing", "red", "water",
                  "paper", "news", "bus", "kiss", "morning"]:
            assert lemmatize(w) == w, w

    def test_plural_nouns(self):
        assert lemmatize("cats") == "cat"
        assert lemmatize("boxes") == "box"
        assert lemmatize("dishes") == "dish"
        assert lemmatize("churches") == "church"
        assert lemmatize("classes") == "class"
        assert lemmatize("bodies") == "body"
        assert lemmatize("knives") == "knife"
        assert lemmatize("tomatoes") == "tomato"
        assert lemmatize("shoes") == "shoe"
        assert lemmatize("children") == "child"

    def test_verb_forms(self):
        assert lemmatize("eating") == "eat"
        assert lemmatize("ate") == "eat"
        assert lemmatize("eaten") == "eat"
        assert lemmatize("running") == "run"
        assert lemmatize("stopped") == "stop"
        assert lemmatize("walked") == "walk"
        assert lemmatize("carried") == "carry"
        assert lemmatize("used") == "use"
        assert lemmatize("was") == "be"
        assert lemmatize("singing") == "sing"

    def test_short_words_protected(self):
        assert lemmatize("gas") == "gas"
        assert lemmatize("bed") == "bed"
        assert lemmatize("red") == "red"
        assert lemmatize("his") == "his"

    def test_case_folding(self):
        assert lemmatize("Eating") == "eat"
        assert lemmatize("CATS") == "cat"

    def test_phrase(self):
        assert lemmatize_phrase("Eating fresh Apples") == ["eat", "fresh", "apple"]


class TestMatching:
    def index(self):
        return OMCSIndex([
            trip("song", "UsedFor", "sing"),
            trip("eat", "MotivatedByGoal", "are hungry"),
            trip("knife", "UsedFor", "cutting bread"),
            trip("bird", "CapableOf", "fly"),
        ])

    def test_exact_either_orientation(self):
        r = match_pair(SPPair(R, "sing", "song"), self.index())
        assert r.kind is MatchKind.EXACT
        assert r.witness.relation == "UsedFor"
        # same words reversed in the pair
        r = match_pair(SPPair(SPRelation.NSUBJ, "song", "sing"), self.index())
        assert r.kind is MatchKind.EXACT

    def test_partial_token_containment(self):
        r = match_pair(SPPair(SPRelation.NSUBJ_AMOD, "eat", "hungry"), self.index())
        assert r.kind is MatchKind.PARTIAL
        assert r.witness.relation == "MotivatedByGoal"

    def test_partial_with_inflection(self):
        # "cutting" in the end phrase lemmatizes to "cut"
        r = match_pair(SPPair(R, "cut", "knife"), self.index())
        assert r.kind is MatchKind.PARTIAL
        assert r.witness.relation == "UsedFor"

    def test_both_words_in_one_phrase_do_not_match(self):
        # partial needs one word per side, not two in the same phrase
        r = match_pair(SPPair(R, "cut", "bread"), self.index())
        assert r.kind is MatchKind.NONE

    def test_no_substring_matching(self):
        index = OMCSIndex([trip("start", "RelatedTo", "begin")])
        r = match_pair(SPPair(R, "art", "begin"), index)
        assert r.kind is MatchKind.NONE

    def test_empty_index(self):
        r = match_pair(SPPair(R, "eat", "mail"), OMCSIndex([]))
        assert r.kind is MatchKind.NONE
        assert r.witness is None

    def test_exact_shortcircuits_partial(self):
        index = OMCSIndex([
            trip("sing loud song", "HasSubevent", "sing"),  # partial only
            trip("song", "UsedFor", "sing"),                # exact
        ])
        r = match_pair(SPPair(R, "sing", "song"), index)
        assert r.kind is MatchKind.EXACT

    def test_witness_is_first_in_input_order(self):
        index = OMCSIndex([
            trip("song", "CreatedBy", "sing"),
            trip("song", "UsedFor", "sing"),
        ])
        r = match_pair(SPPair(R, "sing", "song"), index)
        assert r.witness.relation == "CreatedBy"

    def test_brute_force_oracle(self):
        """Index-based matching agrees with a direct scan of all triplets."""

        def oracle(pair, triplets):
            h, d = lemmatize(pair.head), lemmatize(pair.dependent)
            exact = [
                t for t in triplets
                if len(t.start) == 1 and len(t.end) == 1
                and {lemmatize(t.start[0]), lemmatize(t.end[0])} == {h, d}
                and (
                    (lemmatize(t.start[0]) == h and lemmatize(t.end[0]) == d)
                    or (lemmatize(t.start[0]) == d and lemmatize(t.end[0]) == h)
                )
            ]
            if exact:
                return MatchKind.EXACT
            for t in triplets:
                s = [lemmatize(x) for x in t.start]
                e = [lemmatize(x) for x in t.end]
                if (h in s and d in e) or (d in s and h in e):
                    return MatchKind.PARTIAL
            return MatchKind.NONE

        rng = random.Random(6)
        words = [f"w{i}" for i in range(12)]
        rels = ["UsedFor", "CapableOf", "HasProperty"]
        for trial in range(40):
            triplets = []
            for _ in range(rng.randint(0, 25)):
                start = " ".join(rng.sample(words, rng.randint(1, 3)))
                end = " ".join(rng.sample(words, rng.randint(1, 3)))
                triplets.append(trip(start, rng.choice(rels), end))
            index = OMCSIndex(triplets)
            for _ in range(20):
                pair = SPPair(R, rng.choice(words), rng.choice(words))
                assert match_pair(pair, index).kind == oracle(pair, triplets), (
                    pair, triplets,
                )


class TestGroups:
    def test_boundaries(self):
        assert classify_plausibility(10.0) is PlausibilityGroup.PERFECT
        assert classify_plausibility(8.0) is PlausibilityGroup.PERFECT
        assert classify_plausibility(7.999) is PlausibilityGroup.GOOD
        assert classify_plausibility(6.0) is PlausibilityGroup.GOOD
        assert classify_plausibility(4.0) is PlausibilityGroup.NORMAL
        assert classify_plausibility(2.0) is PlausibilityGroup.UNUSUAL
        assert classify_plausibility(1.999) is PlausibilityGroup.IMPOSSIBLE
        assert classify_plausibility(0.0) is PlausibilityGroup.IMPOSSIBLE

    def test_partition_is_total_and_exclusive(self):
        rng = random.Random(14)
        values = [rng.uniform(0, 10) for _ in range(500)] + [
            0.0, 2.0, 4.0, 6.0, 8.0, 10.0
        ]
        for v in values:
            groups = [
                g for g, (lo, hi) in {
                    PlausibilityGroup.PERFECT: (8.0, 10.0 + 1e-9),
                    PlausibilityGroup.GOOD: (6.0, 8.0),
                    PlausibilityGroup.NORMAL: (4.0, 6.0),
                    PlausibilityGroup.UNUSUAL: (2.0, 4.0),
                    PlausibilityGroup.IMPOSSIBLE: (0.0, 2.0),
                }.items() if lo <= v < hi or (g is PlausibilityGroup.PERFECT and v == 10.0)
            ]
            assert len(groups) == 1
            assert classify_plausibility(v) is groups[0]

    def test_out_of_range_rejected(self):
        with pytest.raises(Exception):
            classify_plausibility(10.5)


class TestCoverage:
    def gold(self):
        return GoldSet([
            (SPPair(R, "sing", "song"), 9.0),    # exact
            (SPPair(R, "cut", "knife"), 8.5),    # partial
            (SPPair(R, "eat", "mail"), 1.0),     # none
            (SPPair(R, "fly", "bird"), 0.5),     # exact (reversed orientation)
        ])

    def index(self):
        return OMCSIndex([
            trip("song", "UsedFor", "sing"),
            trip("knife", "UsedFor", "cutting bread"),
            trip("bird", "CapableOf", "fly"),
        ])

    def test_counts(self):
        stats = coverage_by_group(self.gold(), self.index())
        perfect = stats[PlausibilityGroup.PERFECT]
        assert perfect.n_pairs == 2
        assert perfect.n_exact == 1
        assert perfect.n_partial == 1
        imp = stats[PlausibilityGroup.IMPOSSIBLE]
        assert imp.n_pairs == 2
        assert imp.n_exact == 1
        assert imp.n_partial == 0
        assert stats[PlausibilityGroup.GOOD].n_pairs == 0

    def test_rates_match_recount(self):
        stats = coverage_by_group(self.gold(), self.index())
        for s in stats.values():
            if s.n_pairs:
                assert abs(s.exact_rate - s.n_exact / s.n_pairs) < 1e-4
                assert abs(s.partial_rate - s.n_partial / s.n_pairs) < 1e-4

    def test_empty_index_zeroes_matches_only(self):
        stats = coverage_by_group(self.gold(), OMCSIndex([]))
        assert sum(s.n_pairs for s in stats.values()) == 4
        assert sum(s.n_exact + s.n_partial for s in stats.values()) == 0

    def test_table_rendering(self):
        text = coverage_table(coverage_by_group(self.gold(), self.index()))
        assert "perfect" in text
        assert "50.00" in text


class TestMatrix:
    def test_single_tuple(self):
        gold = GoldSet([(SPPair(R, "sing", "song"), 9.0)])
        index = OMCSIndex([trip("song", "UsedFor", "sing")])
        m = relation_matrix(gold, index)
        assert m.cell(MatchKind.EXACT, R, "UsedFor") == 1
        assert m.total() == 1

    def test_pair_contributes_once_per_witness(self):
        gold = GoldSet([(SPPair(R, "sing", "song"), 9.0)])
        index = OMCSIndex([
            trip("song", "UsedFor", "sing"),
            trip("song", "CreatedBy", "sing"),
            trip("sing favorite song", "HasSubevent", "sing"),  # partial, masked
        ])
        m = relation_matrix(gold, index)
        assert m.cell(MatchKind.EXACT, R, "UsedFor") == 1
        assert m.cell(MatchKind.EXACT, R, "CreatedBy") == 1
        assert m.cell(MatchKind.PARTIAL, R, "HasSubevent") == 0
        assert m.total() == 2

    def test_partial_tuples_counted_without_exact(self):
        gold = GoldSet([(SPPair(R, "cut", "knife"), 8.0)])
        index = OMCSIndex([
            trip("knife", "UsedFor", "cutting bread"),
            trip("cut", "HasPrerequisite", "sharp knife"),
        ])
        m = relation_matrix(gold, index)
        assert m.cell(MatchKind.PARTIAL, R, "UsedFor") == 1
        assert m.cell(MatchKind.PARTIAL, R, "HasPrerequisite") == 1

    def test_csv_and_json(self):
        gold = GoldSet([
            (SPPair(R, "sing", "song"), 9.0),
            (SPPair(SPRelation.NSUBJ, "fly", "bird"), 8.0),
        ])
        index = OMCSIndex([
            trip("song", "UsedFor", "sing"),
            trip("bird", "CapableOf", "fly"),
        ])
        m = relation_matrix(gold, index)
        csv_text = m.to_csv(MatchKind.EXACT)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "sp_relation,CapableOf,UsedFor"
        assert "dobj,0,1" in lines
        assert "nsubj,1,0" in lines
        doc = m.to_dict()
        assert doc["exact"]["dobj"]["UsedFor"] == 1


class TestIO:
    def test_roundtrip(self):
        triplets = [
            trip("song", "UsedFor", "sing"),
            trip("eat", "MotivatedByGoal", "are hungry"),
        ]
        buf = io.StringIO()
        write_omcs(triplets, buf)
        buf.seek(0)
        assert read_omcs(buf) == triplets

    def test_bad_column_count(self):
        with pytest.raises(OMCSFormatError) as exc:
            read_omcs(io.StringIO("a\tb\n"), source="x.tsv")
        assert "x.tsv:1" in str(exc.value)

    def test_empty_phrase_rejected(self):
        with pytest.raises(OMCSFormatError):
            read_omcs(io.StringIO("\tUsedFor\tsing\n"))

    def test_conceptnet_adapter(self):
        dump = "\n".join([
            # kept: English OMCS edge
            "/a/x\t/r/UsedFor\t/c/en/song\t/c/en/sing\t"
            '{"dataset": "/d/conceptnet/4/en", "sources": ["/s/contributor/omcs/dev"]}',
            # dropped: non-English
            "/a/x\t/r/UsedFor\t/c/fr/chanson\t/c/fr/chanter\t"
            '{"sources": ["/s/contributor/omcs/dev"]}',
            # dropped: not OMCS-sourced
            "/a/x\t/r/UsedFor\t/c/en/axe\t/c/en/chop\t"
            '{"sources": ["/s/resource/wiktionary"]}',
            # kept: multiword concept with part-of-speech suffix path
            "/a/x\t/r/MotivatedByGoal\t/c/en/eat\t/c/en/are_hungry\t"
            '{"sources": ["/s/contributor/omcs/someone"]}',
        ]) + "\n"
        triplets = import_conceptnet_csv(io.StringIO(dump))
        assert triplets == [
            trip("song", "UsedFor", "sing"),
            trip("eat", "MotivatedByGoal", "are hungry"),
        ]

    def test_conceptnet_adapter_keep_all(self):
        dump = (
            "/a/x\t/r/UsedFor\t/c/en/axe\t/c/en/chop\t"
            '{"sources": ["/s/resource/wiktionary"]}\n'
        )
        assert len(import_conceptnet_csv(io.StringIO(dump), require_omcs=False)) == 1
