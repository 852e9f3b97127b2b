import ast
from pathlib import Path

import pytest

import selpref
from selpref.core import (
    BadLemmaError,
    Lexicon,
    LexiconError,
    PlausibilityRangeError,
    SPPair,
    SPRelation,
    UnknownRelationError,
    check_plausibility,
    parse_relation,
)


def test_relation_values():
    assert [r.value for r in SPRelation] == [
        "dobj", "nsubj", "amod", "dobj_amod", "nsubj_amod",
    ]


def test_parse_relation_case_insensitive():
    assert parse_relation("dobj") is SPRelation.DOBJ
    assert parse_relation("DOBJ") is SPRelation.DOBJ
    assert parse_relation("Nsubj_Amod") is SPRelation.NSUBJ_AMOD


def test_parse_relation_rejects_unknown():
    with pytest.raises(UnknownRelationError):
        parse_relation("iobj")
    with pytest.raises(UnknownRelationError):
        parse_relation("")


def test_pos_classes():
    assert SPRelation.DOBJ.head_pos == "verb"
    assert SPRelation.NSUBJ.head_pos == "verb"
    assert SPRelation.AMOD.head_pos == "noun"
    assert SPRelation.DOBJ_AMOD.head_pos == "verb"
    assert SPRelation.DOBJ.dependent_pos == "noun"
    assert SPRelation.NSUBJ.dependent_pos == "noun"
    assert SPRelation.AMOD.dependent_pos == "adj"
    assert SPRelation.NSUBJ_AMOD.dependent_pos == "adj"


def test_pair_lowercases():
    p = SPPair(SPRelation.DOBJ, "Eat", "FISH")
    assert p.head == "eat"
    assert p.dependent == "fish"


def test_pair_equality_and_hash():
    a = SPPair(SPRelation.AMOD, "apple", "fresh")
    b = SPPair(SPRelation.AMOD, "APPLE", "Fresh")
    assert a == b
    assert len({a, b}) == 1


def test_pair_rejects_bad_lemmas():
    for bad in ["", "a\tb", "a\nb", " "]:
        with pytest.raises(BadLemmaError):
            SPPair(SPRelation.DOBJ, bad, "fish")
        with pytest.raises(BadLemmaError):
            SPPair(SPRelation.DOBJ, "eat", bad)


def test_plausibility_bounds():
    check_plausibility(0.0)
    check_plausibility(10.0)
    check_plausibility(7.5)
    for bad in [-0.1, 10.1, float("nan")]:
        with pytest.raises(PlausibilityRangeError):
            check_plausibility(bad)


class TestLexicon:
    def make(self):
        return Lexicon(
            verbs=frozenset({"eat", "run"}),
            nouns=frozenset({"fish", "rock"}),
            adjectives=frozenset({"fresh", "heavy"}),
        )

    def test_pools(self):
        lex = self.make()
        assert lex.pool("verb") == frozenset({"eat", "run"})
        assert lex.pool("noun") == frozenset({"fish", "rock"})
        assert lex.pool("adj") == frozenset({"fresh", "heavy"})

    def test_dependents_for(self):
        lex = self.make()
        assert lex.dependents_for(SPRelation.DOBJ) == frozenset({"fish", "rock"})
        assert lex.dependents_for(SPRelation.AMOD) == frozenset({"fresh", "heavy"})
        assert lex.dependents_for(SPRelation.NSUBJ_AMOD) == frozenset({"fresh", "heavy"})

    def test_overlap_rejected(self):
        with pytest.raises(LexiconError):
            Lexicon(
                verbs=frozenset({"fish"}),
                nouns=frozenset({"fish"}),
                adjectives=frozenset(),
            )

    def test_from_tsv(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("eat\tverb\nfish\tnoun\nfresh\tadj\n")
        lex = Lexicon.from_tsv(path)
        assert lex.verbs == frozenset({"eat"})
        assert lex.nouns == frozenset({"fish"})
        assert lex.adjectives == frozenset({"fresh"})

    def test_from_tsv_lemma_in_two_classes_names_its_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# lemma\tpos\nfish\tnoun\neat\tverb\nFish\tverb\n")
        with pytest.raises(LexiconError) as exc:
            Lexicon.from_tsv(path)
        assert str(exc.value) == f"{path}:4: 'fish' is both noun and verb"

    def test_from_tsv_bad_pos(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("eat\tVB\n")
        with pytest.raises(LexiconError):
            Lexicon.from_tsv(path)


def unused_imports(source: str) -> list[str]:
    """Names a module imports (``__future__`` aside) and never reads;
    a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    src = Path(selpref.__file__).parent
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8"))
              for p in sorted(src.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_imports_sees_imports_annotations_and_all():
    assert unused_imports(
        "from __future__ import annotations\nimport os.path\nimport json as j\n"
        "from typing import Optional, TextIO\nfrom .core import SPPair\n"
        "__all__ = ['SPPair']\ndef f(fh: TextIO): return os.path.join('a')\n"
    ) == ["Optional", "j"]
