import ast
import re
from pathlib import Path

import pytest

import selpref
from selpref.core import (
    BadLemmaError,
    EmptyPoolError,
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

    def test_heads_for(self):
        lex = self.make()
        assert lex.heads_for(SPRelation.DOBJ) == frozenset({"eat", "run"})
        assert lex.heads_for(SPRelation.AMOD) == frozenset({"fish", "rock"})

    def test_empty_pool_names_its_class_and_role(self):
        lex = Lexicon(verbs=frozenset({"eat"}), nouns=frozenset(), adjectives=frozenset())
        assert lex.heads_for(SPRelation.DOBJ_AMOD) == frozenset({"eat"})
        with pytest.raises(EmptyPoolError) as exc:
            lex.dependents_for(SPRelation.DOBJ_AMOD)
        assert str(exc.value) == "no adj entries, needed for dobj_amod dependents"
        with pytest.raises(EmptyPoolError) as exc:
            lex.heads_for(SPRelation.AMOD)
        assert str(exc.value) == "no noun entries, needed for amod heads"

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

    @pytest.mark.parametrize("blank", ["", " "])
    def test_from_tsv_blank_lemma_names_its_line(self, tmp_path, blank):
        path = tmp_path / "lex.tsv"
        path.write_text(f"eat\tverb\n{blank}\tnoun\n")
        with pytest.raises(LexiconError) as exc:
            Lexicon.from_tsv(path)
        assert str(exc.value) == f"{path}:2: lemma is empty"

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


def test_no_module_builds_an_object_around_its_constructor():
    """Every object is built by its class's one constructor, which checks
    what it is given: no module names ``__new__``."""
    src = Path(selpref.__file__).parent
    found = [f"{p.name}:{node.lineno}" for p in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
             if "__new__" in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None))]
    assert found == []


def public_definitions(source: str) -> list[str]:
    """A module's public top-level functions and classes, as ``name``,
    and the public methods of its classes, as ``Class.method``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


def named_identifiers(source: str) -> set[str]:
    """Every identifier a module reads or imports, plus the parts of each
    string constant that is a dotted identifier (a span name such as
    ``"nn.NNModel.save"``); a ``def`` or ``class`` does not name itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value)):
            names.update(node.value.split("."))
    return names


# public symbols that neither a subcommand nor a perfbench stage names
NAMED_NOWHERE_ON_PURPOSE = {
    "evaluation.import_sp10k_directory": "the SP10K_DIR acceptance adapter",
    "extract.CountTable.from_pairs": "the in-memory constructor for tests",
}


def test_every_public_symbol_is_named_in_the_package_or_perfbench():
    src = Path(selpref.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    named = set()
    for path in [*src.glob("*.py"), *bench.rglob("*.py")]:
        named |= named_identifiers(path.read_text(encoding="utf-8"))
    unnamed = [f"{p.stem}.{name}" for p in sorted(src.glob("*.py"))
               for name in public_definitions(p.read_text(encoding="utf-8"))
               if name.rsplit(".", 1)[-1] not in named]
    assert sorted(set(unnamed) - NAMED_NOWHERE_ON_PURPOSE.keys()) == []
    assert sorted(NAMED_NOWHERE_ON_PURPOSE.keys() - set(unnamed)) == []


def test_public_definitions_and_named_identifiers():
    source = ("import os.path\nfrom .core import SPPair as P\nclass A:\n"
              "    def run(self): return os.path.join(P, self.go, 'nn.NNModel.save', 'a b')\n"
              "    def _hidden(self): pass\n"
              "def f(): pass\ndef _g(): pass\n")
    assert public_definitions(source) == ["A", "A.run", "f"]
    assert named_identifiers(source) == {"os", "path", "SPPair", "join", "P", "self", "go",
                                         "nn", "NNModel", "save"}


def load_time_imports(source: str) -> set[str]:
    """Modules a module imports as it is loaded, relative ones with their
    leading dots: imports inside functions and under ``if TYPE_CHECKING:``
    are left out."""
    names = set()

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add("." * node.level + node.module.split(".")[0])
            elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                visit(node.orelse)
            else:
                visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return names


# the modules that compute with numpy at every call, and so load it with themselves
NUMPY_MODULES = {"embeddings", "nn"}


def test_only_the_numeric_modules_load_numpy_with_themselves():
    src = Path(selpref.__file__).parent
    loaders = {"numpy", *("." + m for m in NUMPY_MODULES)}
    loading = {p.stem: sorted(load_time_imports(p.read_text(encoding="utf-8")) & loaders)
               for p in sorted(src.glob("*.py"))}
    assert {name: found for name, found in loading.items() if found} == {
        "embeddings": ["numpy"], "nn": ["numpy"]}


def test_load_time_imports_skip_functions_and_type_checking():
    assert load_time_imports(
        "import os.path\nfrom typing import TYPE_CHECKING\nfrom .core import SPPair\n"
        "if TYPE_CHECKING:\n    import numpy\nelse:\n    import json\n"
        "try:\n    import gzip\nexcept ImportError:\n    pass\n"
        "class A:\n    from .nn import NNModel\n"
        "def f():\n    import numpy as np\n    from .embeddings import EmbeddingTable\n"
    ) == {"os", "typing", ".core", "json", "gzip", ".nn"}


def test_unused_imports_sees_imports_annotations_and_all():
    assert unused_imports(
        "from __future__ import annotations\nimport os.path\nimport json as j\n"
        "from typing import Optional, TextIO\nfrom .core import SPPair\n"
        "__all__ = ['SPPair']\ndef f(fh: TextIO): return os.path.join('a')\n"
    ) == ["Optional", "j"]
