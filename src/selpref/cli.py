"""Command line entry point.

One executable, twelve subcommands, wiring corpora, count tables,
scorers, gold ratings, surveys, commonsense matching and the pronoun
resolver together. Every run is seeded and config-driven; the resolved
configuration is echoed into each output artifact so results can be
traced back to the exact invocation.

Option precedence: command line flags beat the --config file, which
beats built-in defaults. The only environment override is
SELPREF_LOG_LEVEL. Subcommands that draw random numbers refuse to run
without an explicit --seed.
"""

from __future__ import annotations

import argparse
import gzip
import json
import logging
import math
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import Optional, TextIO

from . import __version__
from .annotate import (
    aggregate,
    filter_annotations,
    generate_survey,
    iaa,
    read_ratings,
)
from .commonsense import (
    OMCSIndex,
    coverage_by_group,
    coverage_table,
    import_conceptnet_csv,
    read_omcs,
    relation_matrix,
)
from .core import Lexicon, SelPrefError, SPPair, SPRelation, parse_relation
from .embeddings import load_embeddings
from .evaluation import (
    GOLD_HEADER,
    GoldFormatError,
    evaluate,
    load_gold_file,
    pseudo_disambiguation,
)
from .extract import (
    CANDIDATES_HEADER,
    COUNTS_HEADER,
    count_conllu,
    generate_candidates,
    read_counts,
    read_pairs,
    write_candidates,
    write_counts,
)
from .nn import NNConfig, NNModel, nn_train
from .scorers import DSModel, LookupModel, PPModel, ScoreModel
from .winograd import (
    SCHEMA_VERSION,
    bundled_questions,
    load_questions_file,
    resolve,
    score_accuracy,
    summary_json,
    write_predictions,
)

log = logging.getLogger("selpref")

SCORES_HEADER = "#sp-scores v1"

DEFAULTS = {
    "log_level": "warning",
    "include_passive": False,
    "skip_malformed": False,
    "missing": "floor",
    "heads_per_relation": 500,
    "frequent_per_head": 2,
    "random_per_head": 2,
    "min_ratings": 10,
    "embedding_dim": 50,
    "hidden_dim": 100,
    "margin": 1.0,
    "negatives": 1,
    "epochs": 10,
    "learning_rate": 0.01,
    "backend": "pp",
    "kind": "exact",
}

# keys a --config file may set; anything else is treated as a typo
CONFIG_KEYS = frozenset(DEFAULTS)


class ConfigError(SelPrefError, ValueError):
    pass


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}: invalid JSON: {err.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return doc


def _resolve(args: argparse.Namespace, keys: list[str]) -> dict:
    """flags > config file > defaults, for the listed option keys."""
    file_cfg = _load_config_file(getattr(args, "config", None))
    out = {}
    for k in keys:
        v = getattr(args, k, None)
        if v is None:
            v = file_cfg.get(k, DEFAULTS.get(k))
        out[k] = v
    return out


def _log_level(args: argparse.Namespace, resolved: dict) -> str:
    # the one environment override: flag > env > config file > default
    if getattr(args, "log_level", None) is not None:
        return args.log_level
    env = os.environ.get("SELPREF_LOG_LEVEL")
    if env:
        return env.lower()
    return resolved.get("log_level", DEFAULTS["log_level"])


def _meta(config: dict) -> dict:
    return {
        "tool": f"selpref {__version__}",
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": config,
    }


@contextmanager
def _open_out(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _open_in(path: str) -> TextIO:
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def _read_scores_tsv(path: str) -> dict[SPPair, float]:
    """4-column relation/head/dependent/value table; values may be any
    finite float, so model outputs and gold ratings both qualify."""
    table: dict[SPPair, float] = {}
    with _open_in(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise GoldFormatError(
                    f"{path}:{lineno}: expected 4 columns, got {len(fields)}"
                )
            try:
                pair = SPPair(parse_relation(fields[0]), fields[1], fields[2])
                value = float(fields[3])
            except (SelPrefError, ValueError) as err:
                raise GoldFormatError(f"{path}:{lineno}: {err}") from None
            if not math.isfinite(value):
                raise GoldFormatError(f"{path}:{lineno}: non-finite value {fields[3]!r}")
            if pair in table:
                raise GoldFormatError(f"{path}:{lineno}: duplicate pair {pair}")
            table[pair] = value
    return table


def _read_checkpoints(path: str) -> list[tuple[SPPair, frozenset]]:
    """relation/head/dependent/expected rows; expected is |-joined ratings."""
    out = []
    with _open_in(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise GoldFormatError(
                    f"{path}:{lineno}: expected 4 columns, got {len(fields)}"
                )
            try:
                pair = SPPair(parse_relation(fields[0]), fields[1], fields[2])
                expected = frozenset(int(v) for v in fields[3].split("|"))
            except (SelPrefError, ValueError) as err:
                raise GoldFormatError(f"{path}:{lineno}: {err}") from None
            out.append((pair, expected))
    return out


def _build_model(args: argparse.Namespace, parser: argparse.ArgumentParser,
                 resolved: dict) -> ScoreModel:
    backend = resolved["backend"]
    if backend == "pp":
        if not args.counts:
            parser.error("backend pp requires --counts")
        with _open_in(args.counts) as fh:
            return PPModel(read_counts(fh, source=args.counts))
    if backend == "ds":
        if not (args.counts and args.embeddings):
            parser.error("backend ds requires --counts and --embeddings")
        with _open_in(args.counts) as fh:
            counts = read_counts(fh, source=args.counts)
        return DSModel(counts, load_embeddings(args.embeddings))
    if backend == "nn":
        if not args.model:
            parser.error("backend nn requires --model")
        return NNModel.load(args.model)
    if backend == "lookup":
        if not args.scores:
            parser.error("backend lookup requires --scores")
        return LookupModel(_read_scores_tsv(args.scores))
    parser.error(f"unknown backend {backend!r}")


def _load_omcs_index(args: argparse.Namespace,
                     parser: argparse.ArgumentParser) -> OMCSIndex:
    if bool(args.omcs) == bool(args.conceptnet):
        parser.error("exactly one of --omcs / --conceptnet is required")
    if args.omcs:
        with _open_in(args.omcs) as fh:
            triplets = read_omcs(fh, source=args.omcs)
    else:
        with _open_in(args.conceptnet) as fh:
            triplets = import_conceptnet_csv(fh)
    return OMCSIndex(triplets)


# subcommand handlers

def cmd_extract(args, parser) -> int:
    resolved = _resolve(args, ["include_passive", "skip_malformed"])
    config = {"subcommand": "extract", "in": args.infile, "out": args.out,
              "seed": None, **resolved}
    with _open_in(args.infile) as fh:
        table = count_conllu(fh, source=args.infile,
                             skip_malformed=resolved["skip_malformed"],
                             include_passive=resolved["include_passive"])
    with _open_out(args.out) as out:
        write_counts(table, out, config=config)
    return 0


def cmd_candidates(args, parser) -> int:
    resolved = _resolve(args, ["heads_per_relation", "frequent_per_head",
                               "random_per_head"])
    relation = parse_relation(args.relation)
    config = {"subcommand": "candidates", "counts": args.counts,
              "lexicon": args.lexicon, "relation": relation.value,
              "out": args.out, "seed": args.seed, **resolved}
    with _open_in(args.counts) as fh:
        counts = read_counts(fh, source=args.counts)
    lexicon = Lexicon.from_tsv(args.lexicon)
    cands = generate_candidates(
        counts, lexicon, relation,
        heads_per_relation=resolved["heads_per_relation"],
        frequent_per_head=resolved["frequent_per_head"],
        random_per_head=resolved["random_per_head"],
        seed=args.seed,
    )
    with _open_out(args.out) as out:
        write_candidates(cands, out, config=config)
    return 0


def cmd_score(args, parser) -> int:
    resolved = _resolve(args, ["backend"])
    config = {"subcommand": "score", "pairs": args.pairs, "out": args.out,
              "seed": None, "counts": args.counts,
              "embeddings": args.embeddings, "model": args.model,
              "scores": args.scores, **resolved}
    model = _build_model(args, parser, resolved)
    with _open_in(args.pairs) as fh:
        pairs = read_pairs(fh, source=args.pairs)
    with _open_out(args.out) as out:
        out.write(SCORES_HEADER + "\n")
        out.write("#config " + json.dumps(config, sort_keys=True) + "\n")
        for pair in pairs:
            value = model.score(pair)
            text = "NA" if value is None else repr(value)
            out.write(f"{pair.relation.value}\t{pair.head}\t"
                      f"{pair.dependent}\t{text}\n")
    return 0


def cmd_train_nn(args, parser) -> int:
    resolved = _resolve(args, ["embedding_dim", "hidden_dim", "margin",
                               "negatives", "epochs", "learning_rate"])
    nn_config = NNConfig(
        embedding_dim=resolved["embedding_dim"],
        hidden_dim=resolved["hidden_dim"],
        margin=resolved["margin"],
        negatives_per_positive=resolved["negatives"],
        epochs=resolved["epochs"],
        learning_rate=resolved["learning_rate"],
        seed=args.seed,
    )
    with _open_in(args.counts) as fh:
        counts = read_counts(fh, source=args.counts)
    vocab = Lexicon.from_tsv(args.lexicon)

    def instances():
        for rel in SPRelation:
            for head, dep, count in counts.items(rel):
                for _ in range(count):
                    yield SPPair(rel, head, dep)

    model = nn_train(instances(), nn_config, vocab)
    model.save(args.out)
    for rel, losses in sorted(model.epoch_losses.items(),
                              key=lambda kv: kv[0].value):
        if losses:
            log.info("train-nn %s: loss %.4f -> %.4f",
                     rel.value, losses[0], losses[-1])
    return 0


def cmd_eval(args, parser) -> int:
    resolved = _resolve(args, ["backend", "missing"])
    config = {"subcommand": "eval", "gold": args.gold, "out": args.out,
              "seed": None, "counts": args.counts,
              "embeddings": args.embeddings, "model": args.model,
              "scores": args.scores, **resolved}
    model = _build_model(args, parser, resolved)
    gold = load_gold_file(args.gold)
    report = evaluate(model, gold, missing_policy=resolved["missing"])
    print(report.to_table())
    if args.out:
        with _open_out(args.out) as out:
            out.write(report.to_json(**_meta(config)) + "\n")
    return 0


def cmd_pseudo(args, parser) -> int:
    resolved = _resolve(args, ["backend"])
    config = {"subcommand": "pseudo", "pairs": args.pairs,
              "lexicon": args.lexicon, "out": args.out, "seed": args.seed,
              "counts": args.counts, "embeddings": args.embeddings,
              "model": args.model, "scores": args.scores, **resolved}
    model = _build_model(args, parser, resolved)
    with _open_in(args.pairs) as fh:
        pairs = read_pairs(fh, source=args.pairs)
    vocab = Lexicon.from_tsv(args.lexicon)
    accuracy = pseudo_disambiguation(model, pairs, vocab, seed=args.seed)
    doc = {"accuracy": accuracy, "n_pairs": len(pairs), "meta": _meta(config)}
    with _open_out(args.out) as out:
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_aggregate(args, parser) -> int:
    resolved = _resolve(args, ["min_ratings"])
    config = {"subcommand": "aggregate", "ratings": args.ratings,
              "out": args.out, "report": args.report, "seed": None,
              **resolved}
    with _open_in(args.ratings) as fh:
        ratings = read_ratings(fh, source=args.ratings)
    kept, rejections = filter_annotations(ratings)
    scores, underrated = aggregate(kept, min_ratings=resolved["min_ratings"])
    with _open_out(args.out) as out:
        out.write(GOLD_HEADER + "\n")
        out.write("#config " + json.dumps(config, sort_keys=True) + "\n")
        for pair in sorted(scores, key=lambda p: (p.relation.value, p.head,
                                                  p.dependent)):
            out.write(f"{pair.relation.value}\t{pair.head}\t"
                      f"{pair.dependent}\t{scores[pair]:.2f}\n")
    if args.report:
        doc = {
            "pairs_scored": len(scores),
            "underrated": {
                f"{p.relation.value}/{p.head}/{p.dependent}": n
                for p, n in sorted(underrated.items(),
                                   key=lambda kv: (kv[0].relation.value,
                                                   kv[0].head, kv[0].dependent))
            },
            "rejections": [
                {"annotator_id": r.annotator_id, "reason": r.reason}
                for r in rejections
            ],
            "meta": _meta(config),
        }
        with _open_out(args.report) as out:
            out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log.info("aggregate: %d pairs scored, %d rejected annotators",
             len(scores), len(rejections))
    return 0


def cmd_iaa(args, parser) -> int:
    config = {"subcommand": "iaa", "ratings": args.ratings, "out": args.out,
              "seed": None}
    with _open_in(args.ratings) as fh:
        ratings = read_ratings(fh, source=args.ratings)
    kept, rejections = filter_annotations(ratings)
    per_relation, overall = iaa(kept)
    doc = {
        "per_relation": {r.value: v for r, v in sorted(
            per_relation.items(), key=lambda kv: kv[0].value)},
        "overall": overall,
        "annotators_kept": len({r.annotator_id for r in kept}),
        "annotators_rejected": len(rejections),
        "meta": _meta(config),
    }
    with _open_out(args.out) as out:
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_survey(args, parser) -> int:
    config = {"subcommand": "survey", "pairs": args.pairs,
              "checkpoints": args.checkpoints, "out": args.out,
              "seed": args.seed}
    with _open_in(args.pairs) as fh:
        pairs = read_pairs(fh, source=args.pairs)
    checkpoints = _read_checkpoints(args.checkpoints)
    survey = generate_survey(pairs, checkpoints, seed=args.seed)
    with _open_out(args.out) as out:
        out.write(survey.to_json(**_meta(config)) + "\n")
    return 0


def cmd_omcs_match(args, parser) -> int:
    config = {"subcommand": "omcs-match", "gold": args.gold,
              "omcs": args.omcs, "conceptnet": args.conceptnet,
              "out": args.out, "seed": None}
    gold = load_gold_file(args.gold)
    index = _load_omcs_index(args, parser)
    stats = coverage_by_group(gold, index)
    print(coverage_table(stats))
    if args.out:
        doc = {
            "groups": {
                group.value: {
                    "pairs": st.n_pairs,
                    "exact": st.n_exact,
                    "partial": st.n_partial,
                    "exact_rate": st.exact_rate,
                    "partial_rate": st.partial_rate,
                }
                for group, st in stats.items()
            },
            "meta": _meta(config),
        }
        with _open_out(args.out) as out:
            out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_omcs_matrix(args, parser) -> int:
    resolved = _resolve(args, ["kind"])
    config = {"subcommand": "omcs-matrix", "gold": args.gold,
              "omcs": args.omcs, "conceptnet": args.conceptnet,
              "out": args.out, "json": args.json_out, "seed": None,
              **resolved}
    gold = load_gold_file(args.gold)
    index = _load_omcs_index(args, parser)
    matrix = relation_matrix(gold, index)
    with _open_out(args.out) as out:
        out.write("#config " + json.dumps(config, sort_keys=True) + "\n")
        out.write(matrix.to_csv(resolved["kind"]))
    if args.json_out:
        with _open_out(args.json_out) as out:
            out.write(matrix.to_json(**_meta(config)) + "\n")
    return 0


def cmd_winograd(args, parser) -> int:
    resolved = _resolve(args, ["backend"])
    if args.gold:
        resolved["backend"] = "lookup"
    config = {"subcommand": "winograd", "questions": args.questions,
              "gold": args.gold, "out": args.out,
              "predictions": args.predictions, "seed": None,
              "counts": args.counts, "embeddings": args.embeddings,
              "model": args.model, "scores": args.scores, **resolved}
    if args.gold:
        model = LookupModel(_read_scores_tsv(args.gold))
    else:
        model = _build_model(args, parser, resolved)
    if args.questions:
        questions = load_questions_file(args.questions)
    else:
        questions = bundled_questions()
    predictions = [resolve(q, model) for q in questions]
    summary = score_accuracy(predictions)
    if args.predictions:
        with _open_out(args.predictions) as out:
            write_predictions(predictions, out)
    with _open_out(args.out) as out:
        out.write(summary_json(summary, **_meta(config)) + "\n")
    return 0


# parser assembly

def _add_backend_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--backend", choices=["pp", "ds", "nn", "lookup"],
                     help="scoring backend (default: pp)")
    sub.add_argument("--counts", help="counts TSV (pp and ds backends)")
    sub.add_argument("--embeddings", help="word vector text file (ds backend)")
    sub.add_argument("--model", help="trained .npz model (nn backend)")
    sub.add_argument("--scores", help="pair score TSV (lookup backend)")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags win over it")
    sub.add_argument("--log-level", dest="log_level",
                     choices=["debug", "info", "warning", "error"],
                     help="also settable via SELPREF_LOG_LEVEL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selpref",
        description="selectional preference toolkit: extraction, scoring, "
                    "evaluation, annotation and analysis",
    )
    formats = (f"formats: counts '{COUNTS_HEADER}', candidates "
               f"'{CANDIDATES_HEADER}', scores '{SCORES_HEADER}', gold "
               f"'{GOLD_HEADER}', questions schema {SCHEMA_VERSION}")
    parser.add_argument("--version", action="version",
                        version=f"selpref {__version__} ({formats})")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("extract", help="CoNLL-U corpus to pair counts TSV")
    p.add_argument("--in", dest="infile", required=True,
                   help="CoNLL-U file (.gz allowed)")
    p.add_argument("--out", help="counts TSV path (default: stdout)")
    p.add_argument("--include-passive", dest="include_passive",
                   action=argparse.BooleanOptionalAction)
    p.add_argument("--skip-malformed", dest="skip_malformed",
                   action=argparse.BooleanOptionalAction)
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("candidates",
                        help="pick annotation candidates from counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--lexicon", required=True,
                   help="lemma<TAB>pos vocabulary file")
    p.add_argument("--relation", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--heads-per-relation", dest="heads_per_relation", type=int)
    p.add_argument("--frequent-per-head", dest="frequent_per_head", type=int)
    p.add_argument("--random-per-head", dest="random_per_head", type=int)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_candidates)

    p = subs.add_parser("score", help="score a pair list with a backend")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out")
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_score)

    p = subs.add_parser("train-nn", help="train the neural scorer on counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="model .npz path")
    p.add_argument("--embedding-dim", dest="embedding_dim", type=int)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int)
    p.add_argument("--margin", type=float)
    p.add_argument("--negatives", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_train_nn)

    p = subs.add_parser("eval", help="correlate a backend with gold ratings")
    p.add_argument("--gold", required=True)
    p.add_argument("--missing", choices=["drop", "floor"])
    p.add_argument("--out", help="JSON report path")
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("pseudo",
                        help="pseudo-disambiguation accuracy of a backend")
    p.add_argument("--pairs", required=True, help="positive test pairs")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_pseudo)

    p = subs.add_parser("aggregate",
                        help="filter ratings and aggregate to plausibility")
    p.add_argument("--ratings", required=True, help="ratings CSV")
    p.add_argument("--min-ratings", dest="min_ratings", type=int)
    p.add_argument("--out", help="gold-format TSV path")
    p.add_argument("--report", help="JSON rejection/underrated report path")
    _add_common(p)
    p.set_defaults(func=cmd_aggregate)

    p = subs.add_parser("iaa", help="leave-one-out annotator agreement")
    p.add_argument("--ratings", required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_iaa)

    p = subs.add_parser("survey", help="build a shuffled rating survey")
    p.add_argument("--pairs", required=True, help="100 pairs, one relation")
    p.add_argument("--checkpoints", required=True,
                   help="3 checkpoint rows with expected ratings")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_survey)

    p = subs.add_parser("omcs-match",
                        help="match gold pairs against commonsense triplets")
    p.add_argument("--gold", required=True)
    p.add_argument("--omcs", help="triplet TSV")
    p.add_argument("--conceptnet", help="raw ConceptNet CSV dump (.gz allowed)")
    p.add_argument("--out", help="JSON group coverage path")
    _add_common(p)
    p.set_defaults(func=cmd_omcs_match)

    p = subs.add_parser("omcs-matrix",
                        help="relation-by-relation match count matrix")
    p.add_argument("--gold", required=True)
    p.add_argument("--omcs")
    p.add_argument("--conceptnet")
    p.add_argument("--kind", choices=["exact", "partial"])
    p.add_argument("--out", help="CSV path")
    p.add_argument("--json", dest="json_out", help="JSON path")
    _add_common(p)
    p.set_defaults(func=cmd_omcs_matrix)

    p = subs.add_parser("winograd",
                        help="resolve bundled or custom schema questions")
    p.add_argument("--questions", help="questions JSON (default: bundled set)")
    p.add_argument("--gold",
                   help="pair score TSV used directly as a lookup backend")
    p.add_argument("--predictions", help="per-question CSV path")
    p.add_argument("--out", help="JSON summary path")
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_winograd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved_for_log = _resolve(args, ["log_level"])
        logging.basicConfig(
            level=getattr(logging, _log_level(args, resolved_for_log).upper(),
                          logging.WARNING),
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return args.func(args, parser)
    except (SelPrefError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
