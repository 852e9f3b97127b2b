import ast
import csv
import io
import json
import os
import pkgutil
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import selpref
from selpref.annotate import RATINGS_COLUMNS, read_ratings
from selpref.core import (
    BadLemmaError,
    Lexicon,
    LexiconError,
    SelPrefError,
    SPPair,
    SPRelation,
    UnknownRelationError,
    _check_lemma,
    check_plausibility,
    open_output,
    parse_relation,
)
from selpref.evaluation import load_gold
from selpref.extract import count_conllu, read_counts, read_pairs


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


@pytest.mark.parametrize("relation", list(SPRelation))
def test_equal_pairs_built_apart_find_each_other(relation):
    # each pair keeps its hash; the relation hashes by identity
    a = SPPair(relation, "Apple", "fresh")
    b = SPPair(SPRelation(relation.value), "apple".upper(), "FRESH".lower())
    assert a == b and a is not b and hash(a) == hash(b)
    assert {a: 1}[b] == 1 and b in {a} and a in {b}
    assert hash(relation) == hash(parse_relation(relation.value.upper()))
    assert SPPair(relation, "apple", "stale") not in {a}


def test_pair_rejects_bad_lemmas():
    for bad in ["", "a\tb", "a\nb", " "]:
        with pytest.raises(BadLemmaError):
            SPPair(SPRelation.DOBJ, bad, "fish")
        with pytest.raises(BadLemmaError):
            SPPair(SPRelation.DOBJ, "eat", bad)


def _dobj(lemma, role):
    """(head, dependent) of a dobj pair with ``lemma`` in the ``role`` slot."""
    return (lemma, "fish") if role == "head" else ("eat", lemma)


def _slot(head, dep, role):
    return head if role == "head" else dep


def _via_read_counts(lemma, role, tmp_path):
    text = "dobj\t{}\t{}\t1\n".format(*_dobj(lemma, role))
    (head, dep, _), = read_counts(io.StringIO(text)).items(SPRelation.DOBJ)
    return _slot(head, dep, role)


def _via_count_conllu(lemma, role, tmp_path):
    verb, noun = _dobj(lemma, role)
    text = (f"1\t_\t{verb}\tVERB\t_\t_\t0\troot\t_\t_\n"
            f"2\t_\t{noun}\tNOUN\t_\t_\t1\tobj\t_\t_\n")
    (head, dep, _), = count_conllu(io.StringIO(text)).items(SPRelation.DOBJ)
    return _slot(head, dep, role)


def _via_read_pairs(lemma, role, tmp_path):
    pair, = read_pairs(io.StringIO("dobj\t{}\t{}\n".format(*_dobj(lemma, role))))
    return _slot(pair.head, pair.dependent, role)


def _via_load_gold(lemma, role, tmp_path):
    gold = load_gold(io.StringIO("dobj\t{}\t{}\t5\n".format(*_dobj(lemma, role))))
    pair, = gold.pairs()
    return _slot(pair.head, pair.dependent, role)


def _via_read_ratings(lemma, role, tmp_path):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n", quoting=csv.QUOTE_ALL)  # \r stays in its field
    writer.writerows([RATINGS_COLUMNS, ["a1", "dobj", *_dobj(lemma, role), "3", "0", ""]])
    rating, = read_ratings(io.StringIO(text.getvalue()))
    return _slot(rating.pair.head, rating.pair.dependent, role)


def _via_lexicon(lemma, role, tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(f"{lemma}\tnoun\n", encoding="utf-8")
    noun, = Lexicon.from_tsv(path).nouns
    return noun


# blank, padded (by an ASCII or a Unicode space, or a separator that
# str.strip removes), an inner CR, and mixed case that lowercases unevenly
DIFF_LEMMAS = ["", " ", "   ", " eat", "eat ", "\xa0", "fish\xa0", "\u2003fish", "\x1c",
               "fi\x1csh", "ice cream", "e\rat", "EaT", "İzmir", "STRAßE", "Fußball"]
LEMMA_READERS = [(_via_read_counts, "head"), (_via_read_counts, "dependent"),
                 (_via_count_conllu, "head"), (_via_count_conllu, "dependent"),
                 (_via_read_pairs, "head"), (_via_read_pairs, "dependent"),
                 (_via_load_gold, "head"), (_via_load_gold, "dependent"),
                 (_via_read_ratings, "head"), (_via_read_ratings, "dependent"),
                 (_via_lexicon, "")]
# a file opened with universal newlines ends a line at an inner \r, so the
# lexicon never sees such a lemma
LEMMA_CASES = [(reader, role, lemma) for reader, role in LEMMA_READERS for lemma in DIFF_LEMMAS
               if not (reader is _via_lexicon and "\r" in lemma)]


@pytest.mark.parametrize("reader, role, lemma", LEMMA_CASES,
                         ids=[f"{r.__name__[5:]}-{role or 'lemma'}-{lemma!r}"
                              for r, role, lemma in LEMMA_CASES])
def test_every_lemma_reader_agrees_with_check_lemma(tmp_path, reader, role, lemma):
    try:
        want = _check_lemma(role, lemma)
    except BadLemmaError as bad:
        with pytest.raises(SelPrefError) as err:
            reader(lemma, role, tmp_path)
        assert str(err.value).endswith(str(bad))
    else:
        assert reader(lemma, role, tmp_path) == want


def test_plausibility_bounds():
    check_plausibility(0.0)
    check_plausibility(10.0)
    check_plausibility(7.5)
    for bad in [-0.1, 10.1, float("nan")]:
        with pytest.raises(SelPrefError, match="^plausibility .* outside \\[0.0, 10.0\\]$"):
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
        with pytest.raises(LexiconError) as exc:
            lex.dependents_for(SPRelation.DOBJ_AMOD)
        assert str(exc.value) == "no adj entries, needed for dobj_amod dependents"
        with pytest.raises(LexiconError) as exc:
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


class TestOpenOutput:
    def test_a_new_file_gets_the_mode_open_gives_and_a_file_keeps_its_own(self, tmp_path):
        with open(tmp_path / "plain", "w"):
            pass
        out = tmp_path / "out"
        with open_output(out) as fh:
            fh.write("one")
        assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode
        out.chmod(0o640)
        with open_output(out) as fh:
            fh.write("two")
        assert out.read_text() == "two" and stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_a_raising_block_leaves_the_file_and_no_temporary_one(self, tmp_path):
        out = tmp_path / "out"
        out.write_text("old")
        with pytest.raises(SelPrefError, match="midway"), open_output(out) as fh:
            fh.write("new")
            raise SelPrefError("midway")
        assert out.read_text() == "old" and os.listdir(tmp_path) == ["out"]

    @pytest.mark.parametrize("where", ["missing/out", "file/out", "."])
    def test_an_unwritable_path_fails_as_open_does(self, tmp_path, where):
        (tmp_path / "file").write_text("")
        path = tmp_path / where
        with pytest.raises(OSError) as direct:
            open(path, "w")
        with pytest.raises(OSError) as exc, open_output(path):
            pass
        assert (type(exc.value), str(exc.value)) == (type(direct.value), str(direct.value))
        assert sorted(os.listdir(tmp_path)) == ["file"]

    def test_a_symlink_is_written_through(self, tmp_path):
        (tmp_path / "target").write_text("old")
        (tmp_path / "link").symlink_to("target")
        with open_output(tmp_path / "link") as fh:
            fh.write("new")
        assert (tmp_path / "link").is_symlink() and (tmp_path / "target").read_text() == "new"

    def test_a_file_that_is_not_regular_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with open_output(fifo, "wb") as fh:
                fh.write(b"through")
            assert os.read(reader, 16) == b"through"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)


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


def error_subclasses(sources: list[str]) -> set[str]:
    """The classes of the modules that derive from ``SelPrefError``, at
    any depth."""
    classes = [(node.name, {getattr(b, "id", None) or getattr(b, "attr", None)
                            for b in node.bases})
               for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]
    errors = {"SelPrefError"}
    while grown := {name for name, bases in classes if bases & errors} - errors:
        errors |= grown
    return errors - {"SelPrefError"}


def caught_names(source: str) -> set[str]:
    """The classes a module's ``except`` clauses and ``_naming(path, error)``
    calls name."""
    given = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            given += node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_naming":
            given += node.args[1:]
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in given}


def test_every_error_subclass_is_caught_by_name():
    """A package error class other than ``SelPrefError`` is kept only
    where code tells it apart: by an ``except`` clause or a
    ``_naming(...)`` call in the package."""
    src = Path(selpref.__file__).parent
    sources = [p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))]
    caught = set().union(*map(caught_names, sources))
    assert sorted(error_subclasses(sources) - caught) == []
    assert issubclass(SelPrefError, ValueError)  # so every package error is one


def test_error_subclasses_and_caught_names():
    source = ("class SelPrefError(Exception): pass\n"
              "class A(SelPrefError, ValueError): pass\n"
              "class B(A): pass\nclass C(B, ArithmeticError): pass\nclass D(ValueError): pass\n"
              "try: f()\nexcept (B, m.C) as err: pass\nexcept OSError: pass\n"
              "with _naming(path.x, A): pass\n")
    assert error_subclasses([source]) == {"A", "B", "C"}
    assert caught_names(source) == {"B", "C", "OSError", "A"}


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
NUMPY_MODULES = {"nn"}


def test_only_the_numeric_modules_load_numpy_with_themselves():
    src = Path(selpref.__file__).parent
    loaders = {"numpy", *("." + m for m in NUMPY_MODULES)}
    loading = {p.stem: sorted(load_time_imports(p.read_text(encoding="utf-8")) & loaders)
               for p in sorted(src.glob("*.py"))}
    assert {name: found for name, found in loading.items() if found} == {"nn": ["numpy"]}


NUMPY_FREE_PROBE = """\
import importlib, json, sys
for name in sys.argv[2:]:
    importlib.import_module("selpref." + name)
    assert "numpy" not in sys.modules, name
from selpref.embeddings import load_embeddings
emb = load_embeddings(sys.argv[1])
print(json.dumps(["numpy" in sys.modules, emb.matrix.tolist(), emb.norms.tolist(), emb.index]))
"""


def test_importing_any_module_but_nn_leaves_numpy_out(tmp_path):
    # a fresh interpreter sees what the AST gate cannot: a module that
    # loads numpy through another one
    modules = sorted(m.name for m in pkgutil.iter_modules(selpref.__path__)
                     if m.name not in NUMPY_MODULES)
    assert "embeddings" in modules and "cli" in modules
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("a 3 4\nb 1 0\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_PROBE, str(vectors), *modules],
        capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": str(Path(selpref.__file__).parent.parent)})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [True, [[3.0, 4.0], [1.0, 0.0]], [5.0, 1.0],
                                       {"a": 0, "b": 1}]


def test_rank_correlation_imports_nothing_at_call_time():
    # so iaa and eval with pp or lookup never load numpy
    source = (Path(selpref.__file__).parent / "evaluation.py").read_text(encoding="utf-8")
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    for name in ("_average_ranks", "spearman"):
        assert not [node for node in ast.walk(functions[name])
                    if isinstance(node, (ast.Import, ast.ImportFrom))], name


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
