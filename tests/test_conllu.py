import io

import pytest

from selpref.conllu import CorpusFormatError, read_conllu

GOOD = """\
# sent_id = 1
1\tThe\tthe\tDET\t_\t_\t2\tdet\t_\t_
2\tcat\tcat\tNOUN\t_\t_\t3\tnsubj\t_\t_
3\tsleeps\tsleep\tVERB\t_\t_\t0\troot\t_\t_

1\tBirds\tbird\tNOUN\t_\t_\t2\tnsubj\t_\t_
2\tsing\tsing\tVERB\t_\t_\t0\troot\t_\t_
"""


def parse(text, **kwargs):
    return list(read_conllu(io.StringIO(text), source="<test>", **kwargs))


def test_reads_two_sentences():
    sents = parse(GOOD)
    assert len(sents) == 2
    assert [row[1] for row in sents[0]] == ["the", "cat", "sleep"]
    assert sents[1][1] == (2, "sing", "VERB", 0, "root", 7)


def test_no_trailing_blank_line_needed():
    sents = parse(GOOD.rstrip("\n"))
    assert len(sents) == 2


def test_multiword_ranges_and_empty_nodes_skipped():
    text = (
        "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "1\tdo\tdo\tAUX\t_\t_\t2\taux\t_\t_\n"
        "2\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
        "2.1\twent\tgo\tVERB\t_\t_\t_\t_\t0:root\t_\n"
    )
    (sent,) = parse(text)
    assert [(row[0], row[5]) for row in sent] == [(1, 2), (2, 3)]


def test_column_count_error_carries_coordinates():
    text = "1\tcat\tcat\tNOUN\t2\tnsubj\n"
    with pytest.raises(CorpusFormatError) as exc:
        parse(text)
    assert "<test>" in str(exc.value)
    assert ":1" in str(exc.value)


def test_bad_head_index():
    text = (
        "1\tcat\tcat\tNOUN\t_\t_\t9\tnsubj\t_\t_\n"
        "2\tsleeps\tsleep\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(CorpusFormatError,
                       match="^<test>:1: token 1 points at head 9 beyond sentence end$"):
        parse(text)


def test_self_loop_rejected():
    text = (
        "1\tcat\tcat\tNOUN\t_\t_\t0\troot\t_\t_\n"
        "2\tx\tx\tNOUN\t_\t_\t2\tdep\t_\t_\n"
    )
    with pytest.raises(CorpusFormatError, match="^<test>:2: token 2 is its own head$"):
        parse(text)


def test_non_contiguous_ids_rejected():
    text = (
        "1\ta\ta\tDET\t_\t_\t2\tdet\t_\t_\n"
        "3\tcat\tcat\tNOUN\t_\t_\t0\troot\t_\t_\n"
    )
    with pytest.raises(CorpusFormatError,
                       match="^<test>:1: token indices not contiguous at position 2$"):
        parse(text)


def test_skip_malformed_drops_only_bad_sentence():
    text = (
        "1\tcat\tcat\tNOUN\t_\t_\t9\tnsubj\t_\t_\n"
        "\n"
        "1\tBirds\tbird\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
        "2\tsing\tsing\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    sents = parse(text, skip_malformed=True)
    assert len(sents) == 2
    assert sents[0] is None
    assert sents[1][0][1] == "bird"


def test_comments_ignored():
    sents = parse("# text = hi\n# more\n" + GOOD)
    assert len(sents) == 2


def test_sentence_is_sized_iterable():
    (s,) = parse(GOOD.split("\n\n")[1] + "\n")
    assert s == [(1, "bird", "NOUN", 2, "nsubj", 1), (2, "sing", "VERB", 0, "root", 2)]
