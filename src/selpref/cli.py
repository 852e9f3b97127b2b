"""Command line entry point.

One executable, twelve subcommands, wiring corpora, count tables,
scorers, gold ratings, surveys, commonsense matching and the pronoun
resolver together. Every run is seeded and config-driven. Each artifact
but the trained model and the winograd predictions CSV echoes the resolved
config, so results can be traced back to the exact invocation: a JSON
artifact in its meta block, a TSV or CSV artifact in a #config line.

Option precedence: command line flags beat the --config file, which
beats built-in defaults. The only environment override is
SELPREF_LOG_LEVEL. Subcommands that draw random numbers refuse to run
without an explicit --seed.

The numpy-backed modules (embeddings, nn) are imported where a handler
builds their objects, so a run that computes nothing with numpy never
loads it.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import Optional

from . import __version__
from .annotate import (
    AnnotationError,
    InsufficientOverlapError,
    aggregate,
    filter_annotations,
    generate_survey,
    iaa,
    read_checkpoints,
    read_ratings,
    read_survey_pairs,
)
from .commonsense import (
    OMCSIndex,
    coverage_by_group,
    coverage_table,
    import_conceptnet_csv,
    read_omcs,
    relation_matrix,
)
from .core import (
    EmptyPoolError,
    Lexicon,
    SelPrefError,
    SPPair,
    SPRelation,
    _clip,
    _load_json,
    _shown,
    open_input,
    parse_relation,
)
from .evaluation import (
    GOLD_HEADER,
    NoTestPairsError,
    evaluate,
    load_gold_file,
    load_scores_file,
    pseudo_disambiguation,
    write_gold,
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
from .scorers import DSModel, LookupModel, PPModel, ScoreModel
from .winograd import (
    SCHEMA_VERSION,
    bundled_questions,
    load_questions,
    resolve,
    score_accuracy,
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

# the choices of these flags bind --config values too
CHOICES = {
    "log_level": ["debug", "info", "warning", "error"],
    "missing": ["drop", "floor"],
    "backend": ["pp", "ds", "nn", "lookup"],
    "kind": ["exact", "partial"],
}

# JSON types a --config value may have, by the type of its default; a
# bool is not an int, and an int is a float
_CONFIG_TYPES = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
                 float: ((int, float), "a number"), str: ((str,), "a string")}


class ConfigError(SelPrefError, ValueError):
    pass


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    doc = _read(_load_json, path, error=ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {_shown(', '.join(unknown))}")
    for key, value in doc.items():
        types, wanted = _CONFIG_TYPES[type(DEFAULTS[key])]
        if type(value) in types:
            if key not in CHOICES or value in CHOICES[key]:
                continue
            wanted = f"one of {', '.join(CHOICES[key])}"
        raise ConfigError(f"{path}: key {key!r} must be {wanted}, "
                          f"got {_shown(json.dumps(value))}")
    return doc


def _resolve(args: argparse.Namespace) -> None:
    """Fill in place every option the flags left unset: the --config
    file first, then the default. The log level alone reads
    SELPREF_LOG_LEVEL, after the flag and before the file."""
    file_cfg = _load_config_file(args.config)
    env = os.environ.get("SELPREF_LOG_LEVEL")
    if args.log_level is None and env:
        if env.lower() not in CHOICES["log_level"]:
            raise ConfigError(f"SELPREF_LOG_LEVEL: must be one of "
                              f"{', '.join(CHOICES['log_level'])}, got {_clip(env)}")
        args.log_level = env.lower()
    for key in DEFAULTS.keys() & vars(args).keys():
        if getattr(args, key) is None:
            setattr(args, key, file_cfg.get(key, DEFAULTS[key]))


# namespace entries that steer the run but are not echoed, and the echo
# names of the flags whose dest differs from their name
_NOT_ECHOED = ("func", "config", "log_level")
_ECHO_NAMES = {"infile": "in", "json_out": "json"}


def _config(args: argparse.Namespace) -> dict:
    """The run config echoed into artifacts: the subcommand, its seed
    (None without --seed) and every flag under its name."""
    config = {"seed": None}
    for key, value in vars(args).items():
        if key not in _NOT_ECHOED:
            config[_ECHO_NAMES.get(key, key)] = value
    return config


@contextmanager
def _open_out(path: Optional[str]):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _write_json(path: Optional[str], doc: dict, args: argparse.Namespace) -> None:
    meta = {"tool": f"selpref {__version__}",
            "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "config": _config(args)}
    with _open_out(path) as out:
        out.write(json.dumps({**doc, "meta": meta}, indent=2, sort_keys=True) + "\n")


@contextmanager
def _open_echoed(path: Optional[str], args: argparse.Namespace,
                 header: Optional[str] = None):
    """Open an output with its format header, if any, and #config line written."""
    with _open_out(path) as out:
        if header:
            out.write(header + "\n")
        out.write("#config " + json.dumps(_config(args), sort_keys=True) + "\n")
        yield out


@contextmanager
def _naming(path: str, error: type[SelPrefError]):
    """Put ``path`` before an ``error`` raised in the block, for the
    library calls that are handed an input's contents but not its name."""
    try:
        yield
    except error as err:
        raise type(err)(f"{path}: {err}") from None


def _read(reader, path: str, **kwargs):
    """reader's result on the opened input, its errors naming that path."""
    with open_input(path) as fh:
        return reader(fh, source=path, **kwargs)


def _build_model(args: argparse.Namespace, parser: argparse.ArgumentParser) -> ScoreModel:
    backend = args.backend
    if backend == "pp":
        if not args.counts:
            parser.error("backend pp requires --counts")
        return PPModel(_read(read_counts, args.counts))
    if backend == "ds":
        if not (args.counts and args.embeddings):
            parser.error("backend ds requires --counts and --embeddings")
        from .embeddings import load_embeddings

        return DSModel(_read(read_counts, args.counts), load_embeddings(args.embeddings))
    if backend == "nn":
        if not args.model:
            parser.error("backend nn requires --model")
        from .nn import NNModel

        return NNModel.load(args.model)
    if backend == "lookup":
        if not args.scores:
            parser.error("backend lookup requires --scores")
        return LookupModel(load_scores_file(args.scores))
    parser.error(f"unknown backend {backend!r}")


def _load_omcs_index(args: argparse.Namespace,
                     parser: argparse.ArgumentParser) -> OMCSIndex:
    if bool(args.omcs) == bool(args.conceptnet):
        parser.error("exactly one of --omcs / --conceptnet is required")
    if args.omcs:
        triplets = _read(read_omcs, args.omcs)
    else:
        with open_input(args.conceptnet) as fh:
            triplets = import_conceptnet_csv(fh)
    return OMCSIndex(triplets)


# subcommand handlers

def cmd_extract(args, parser) -> int:
    table = _read(count_conllu, args.infile, skip_malformed=args.skip_malformed,
                  include_passive=args.include_passive)
    with _open_echoed(args.out, args, COUNTS_HEADER) as out:
        write_counts(table, out)
    return 0


def cmd_candidates(args, parser) -> int:
    relation = parse_relation(args.relation)
    args.relation = relation.value  # echoed normalized
    counts = _read(read_counts, args.counts)
    lexicon = Lexicon.from_tsv(args.lexicon)
    with _naming(args.lexicon, EmptyPoolError):
        cands = generate_candidates(
            counts, lexicon, relation,
            heads_per_relation=args.heads_per_relation,
            frequent_per_head=args.frequent_per_head,
            random_per_head=args.random_per_head,
            seed=args.seed,
        )
    with _open_echoed(args.out, args, CANDIDATES_HEADER) as out:
        write_candidates(cands, out)
    return 0


def cmd_score(args, parser) -> int:
    model = _build_model(args, parser)
    pairs = _read(read_pairs, args.pairs)
    with _open_echoed(args.out, args, SCORES_HEADER) as out:
        for pair in pairs:
            value = model.score(pair)
            text = "NA" if value is None else repr(value)
            out.write(f"{pair.relation.value}\t{pair.head}\t"
                      f"{pair.dependent}\t{text}\n")
    return 0


def cmd_train_nn(args, parser) -> int:
    from .nn import NNConfig, nn_train

    nn_config = NNConfig(
        embedding_dim=args.embedding_dim,
        hidden_dim=args.hidden_dim,
        margin=args.margin,
        negatives_per_positive=args.negatives,
        epochs=args.epochs,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    counts = _read(read_counts, args.counts)
    vocab = Lexicon.from_tsv(args.lexicon)

    def instances():
        for rel in SPRelation:
            for head, dep, count in counts.items(rel):
                for _ in range(count):
                    yield SPPair(rel, head, dep)

    with _naming(args.lexicon, EmptyPoolError):
        model = nn_train(instances(), nn_config, vocab)
    model.save(args.out)
    for rel, losses in sorted(model.epoch_losses.items()):
        if losses:
            log.info("train-nn %s: loss %.4f -> %.4f", rel, losses[0], losses[-1])
    return 0


def cmd_eval(args, parser) -> int:
    model = _build_model(args, parser)
    gold = load_gold_file(args.gold)
    report = evaluate(model, gold, missing_policy=args.missing)
    print(report.to_table())
    if args.out:
        _write_json(args.out, report.to_dict(), args)
    return 0


def cmd_pseudo(args, parser) -> int:
    model = _build_model(args, parser)
    pairs = _read(read_pairs, args.pairs)
    vocab = Lexicon.from_tsv(args.lexicon)
    with _naming(args.pairs, NoTestPairsError), _naming(args.lexicon, EmptyPoolError):
        accuracy = pseudo_disambiguation(model, pairs, vocab, seed=args.seed)
    _write_json(args.out, {"accuracy": accuracy, "n_pairs": len(pairs)}, args)
    return 0


def cmd_aggregate(args, parser) -> int:
    kept, rejections = filter_annotations(_read(read_ratings, args.ratings))
    scores, underrated = aggregate(kept, min_ratings=args.min_ratings)
    with _open_echoed(args.out, args, GOLD_HEADER) as out:
        write_gold(scores, out)
    if args.report:
        doc = {
            "pairs_scored": len(scores),
            "underrated": {f"{p.relation}/{p.head}/{p.dependent}": n
                           for p, n in sorted(underrated.items())},
            "rejections": [{"annotator_id": r.annotator_id, "reason": r.reason}
                           for r in rejections],
        }
        _write_json(args.report, doc, args)
    log.info("aggregate: %d pairs scored, %d rejected annotators",
             len(scores), len(rejections))
    return 0


def cmd_iaa(args, parser) -> int:
    kept, rejections = filter_annotations(_read(read_ratings, args.ratings))
    with _naming(args.ratings, InsufficientOverlapError):
        per_relation, overall = iaa(kept)
    _write_json(args.out, {
        "per_relation": {r.value: v for r, v in sorted(per_relation.items())},
        "overall": overall,
        "annotators_kept": len({r.annotator_id for r in kept}),
        "annotators_rejected": len(rejections),
    }, args)
    return 0


def cmd_survey(args, parser) -> int:
    pairs = _read(read_survey_pairs, args.pairs)
    checkpoints = _read(read_checkpoints, args.checkpoints,
                        relation=pairs[0].relation if pairs else None)
    with _naming(args.pairs, AnnotationError):  # the readers checked all but the pair count
        survey = generate_survey(pairs, checkpoints, seed=args.seed)
    _write_json(args.out, survey.to_dict(), args)
    return 0


def cmd_omcs_match(args, parser) -> int:
    gold = load_gold_file(args.gold)
    index = _load_omcs_index(args, parser)
    stats = coverage_by_group(gold, index)
    print(coverage_table(stats))
    if args.out:
        _write_json(args.out, {"groups": {
            group.value: {
                "pairs": st.n_pairs,
                "exact": st.n_exact,
                "partial": st.n_partial,
                "exact_rate": st.exact_rate,
                "partial_rate": st.partial_rate,
            }
            for group, st in stats.items()
        }}, args)
    return 0


def cmd_omcs_matrix(args, parser) -> int:
    gold = load_gold_file(args.gold)
    index = _load_omcs_index(args, parser)
    matrix = relation_matrix(gold, index)
    with _open_echoed(args.out, args) as out:
        out.write(matrix.to_csv(args.kind))
    if args.json_out:
        _write_json(args.json_out, matrix.to_dict(), args)
    return 0


def cmd_winograd(args, parser) -> int:
    if args.gold:  # a score TSV used directly, echoed as backend lookup
        args.backend = "lookup"
        model = LookupModel(load_scores_file(args.gold))
    else:
        model = _build_model(args, parser)
    if args.questions:
        questions = _read(load_questions, args.questions)
    else:
        questions = bundled_questions()
    predictions = [resolve(q, model) for q in questions]
    summary = score_accuracy(predictions)
    if args.predictions:
        with _open_out(args.predictions) as out:
            write_predictions(predictions, out)
    _write_json(args.out, summary.to_dict(), args)
    return 0


# parser assembly

def _typed(convert):
    """An argparse type= that clips the rejected value argparse would echo whole."""
    def parse(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {_clip(text)}") from None
    return parse


_int, _float = _typed(int), _typed(float)


def _add_backend_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--backend", choices=CHOICES["backend"],
                     help="scoring backend (default: pp)")
    sub.add_argument("--counts", help="counts TSV (pp and ds backends)")
    sub.add_argument("--embeddings", help="word vector text file (ds backend)")
    sub.add_argument("--model", help="trained .npz model (nn backend)")
    sub.add_argument("--scores", help="pair score TSV (lookup backend)")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags win over it")
    sub.add_argument("--log-level", dest="log_level",
                     choices=CHOICES["log_level"],
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
    p.add_argument("--seed", type=_int, required=True)
    p.add_argument("--heads-per-relation", dest="heads_per_relation", type=_int)
    p.add_argument("--frequent-per-head", dest="frequent_per_head", type=_int)
    p.add_argument("--random-per-head", dest="random_per_head", type=_int)
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
    p.add_argument("--seed", type=_int, required=True)
    p.add_argument("--out", required=True, help="model .npz path")
    p.add_argument("--embedding-dim", dest="embedding_dim", type=_int)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=_int)
    p.add_argument("--margin", type=_float)
    p.add_argument("--negatives", type=_int)
    p.add_argument("--epochs", type=_int)
    p.add_argument("--learning-rate", dest="learning_rate", type=_float)
    _add_common(p)
    p.set_defaults(func=cmd_train_nn)

    p = subs.add_parser("eval", help="correlate a backend with gold ratings")
    p.add_argument("--gold", required=True)
    p.add_argument("--missing", choices=CHOICES["missing"])
    p.add_argument("--out", help="JSON report path")
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("pseudo",
                        help="pseudo-disambiguation accuracy of a backend")
    p.add_argument("--pairs", required=True, help="positive test pairs")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--seed", type=_int, required=True)
    p.add_argument("--out")
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_pseudo)

    p = subs.add_parser("aggregate",
                        help="filter ratings and aggregate to plausibility")
    p.add_argument("--ratings", required=True, help="ratings CSV")
    p.add_argument("--min-ratings", dest="min_ratings", type=_int)
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
    p.add_argument("--seed", type=_int, required=True)
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
    p.add_argument("--kind", choices=CHOICES["kind"])
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
        _resolve(args)
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(levelname)s %(name)s: %(message)s",
            stream=sys.stderr,
        )
        return args.func(args, parser)
    except (SelPrefError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
