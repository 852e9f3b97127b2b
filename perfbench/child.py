"""Child process for the work the benchmark does not send through the CLI.

    child.py [--spans FILE --run ID --stage NAME] MODE ARGS...

Modes:
  setup WORKLOAD DIR          fresh-interpreter set-up: ``import
                              selpref.cli`` plus the workload's public
                              loaders; prints {"setup_s": ...}
  cli SUBCOMMAND ARGS...      ``selpref.cli.main`` on the arguments
  significance PP DS GOLD RESAMPLES SEED OUT TIMING
                              in-process ``evaluation.significance`` of
                              two score files on the gold pairs; the
                              p-value goes to OUT, the call's seconds to
                              TIMING
  probe-dependents COUNTS GOLD OUT
                              ``CountTable.dependents_of`` timed per gold
                              pair's head
  probe-lemmatize OMCS OUT    ``lemmatize`` over every triplet token

With ``--spans`` the package's public callables are traced (see
``tracer.py``) and the spans are written to FILE when the child ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path


def _setup(workload: str, root: Path) -> dict:
    t = time.perf_counter()
    import selpref.cli  # noqa: F401  (the import is part of set-up)
    from selpref.annotate import read_ratings
    from selpref.commonsense import read_omcs
    from selpref.conllu import read_conllu
    from selpref.core import Lexicon
    from selpref.embeddings import load_embeddings
    from selpref.evaluation import load_gold_file
    from selpref.extract import read_counts, read_pairs

    if workload == "corpus-extract":
        with open(root / "corpus.conllu", encoding="utf-8") as fh:
            next(read_conllu(fh, source="corpus.conllu", skip_malformed=True))
    elif workload in ("score-eval", "nn-train"):
        with open(root / "counts.tsv", encoding="utf-8") as fh:
            read_counts(fh, source="counts.tsv")
        Lexicon.from_tsv(root / "lexicon.tsv")
        load_gold_file(root / "gold.tsv")
        if workload == "score-eval":
            load_embeddings(root / "vectors.txt")
    else:
        with open(root / "ratings.csv", encoding="utf-8") as fh:
            read_ratings(fh, source="ratings.csv")
        with open(root / "omcs.tsv", encoding="utf-8") as fh:
            read_omcs(fh, source="omcs.tsv")
        with open(root / "survey_pairs.tsv", encoding="utf-8") as fh:
            read_pairs(fh, source="survey_pairs.tsv")
    return {"setup_s": time.perf_counter() - t}


def _significance(pp: str, ds: str, gold_path: str, resamples: str, seed: str, out: str,
                  timing: str) -> None:
    from oracles import read_scores
    from selpref import evaluation

    gold = evaluation.load_gold_file(gold_path)
    a, b = read_scores(pp), read_scores(ds)
    keys = [(p.relation.value, p.head, p.dependent) for p in gold.pairs()]
    g = [gold.value(p) for p in gold.pairs()]
    t = time.perf_counter()
    p = evaluation.significance([a[k] for k in keys], [b[k] for k in keys], g,
                                resamples=int(resamples), seed=int(seed))
    seconds = time.perf_counter() - t
    doc = {"p": p, "n": len(keys), "resamples": int(resamples)}
    Path(out).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    Path(timing).write_text(json.dumps({"seconds": seconds}) + "\n", encoding="utf-8")


def _percentiles_us(samples: list[float]) -> dict:
    import numpy as np

    us = np.asarray(samples) * 1e6
    return {"p50": float(np.percentile(us, 50)), "p99": float(np.percentile(us, 99)),
            "n": len(samples)}


def _probe_dependents(counts: str, gold: str, out: str) -> dict:
    from selpref.core import parse_relation
    from selpref.extract import read_counts

    with open(counts, encoding="utf-8") as fh:
        table = read_counts(fh, source=counts)
    queries = []
    for line in Path(gold).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            rel, head = line.split("\t")[:2]
            queries.append((parse_relation(rel), head))
    samples = []
    clock = time.perf_counter
    for rel, head in queries:
        t = clock()
        table.dependents_of(rel, head)
        samples.append(clock() - t)
    doc = _percentiles_us(samples)
    Path(out).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return doc


def _probe_lemmatize(omcs: str, out: str) -> dict:
    from selpref.lemmatize import lemmatize

    tokens = [tok.lower() for line in Path(omcs).read_text(encoding="utf-8").splitlines()
              for side in line.split("\t")[0::2] for tok in side.split()]
    rates = []
    for _ in range(3):
        t = time.perf_counter()
        for tok in tokens:
            lemmatize(tok)
        rates.append(len(tokens) / (time.perf_counter() - t))
    doc = {"tokens": len(tokens), "tokens_per_s": statistics.median(rates)}
    Path(out).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return doc


def main(argv: list[str]) -> int:
    spans = run_id = stage = None
    while argv and argv[0].startswith("--"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--spans":
            spans = value
        elif flag == "--run":
            run_id = value
        elif flag == "--stage":
            stage = value
        else:
            print(f"child.py: unknown flag {flag}", file=sys.stderr)
            return 2
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        print(json.dumps(_setup(args[0], Path(args[1]))))
        return 0

    t = time.perf_counter()
    import selpref.cli
    import_s = time.perf_counter() - t
    tracer = None
    if spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            return selpref.cli.main(args)
        handlers = {"significance": _significance, "probe-dependents": _probe_dependents,
                    "probe-lemmatize": _probe_lemmatize}
        handlers[mode](*args)
        return 0
    finally:
        if tracer is not None:
            tracer.dump(spans, {"run": run_id, "stage": stage, "import_s": import_s})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
