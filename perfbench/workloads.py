"""The four workloads: their stages, their oracle checks and the
throughput each one reports.

Stages run in the workload's directory, reading the generated inputs
there and writing artifacts under ``out/``. A stage is a ``selpref``
subcommand or a ``child.py`` mode.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path

import oracles
from generate import DEP_POS, RELATIONS, Inputs

# the end-to-end metrics named for users; all but the first four belong
# to one workload each
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
    "extract_sentences_per_s": "1/s", "candidates_heads_per_s": "1/s",
    "ds_pairs_per_s": "1/s", "eval_pairs_per_s": "1/s", "pseudo_pairs_per_s": "1/s",
    "significance_resamples_per_s": "1/s", "train_instances_per_s": "1/s",
    "iaa_ratings_per_s": "1/s", "omcs_pairs_per_s": "1/s",
}


@dataclass(frozen=True)
class Stage:
    name: str                 # unique in the workload, e.g. "score-ds"
    mode: str                 # "cli" or a child.py mode
    args: tuple[str, ...]

    @property
    def command(self) -> str:
        """The subcommand for CLI stages, else the child mode."""
        return self.args[0] if self.mode == "cli" else self.mode


def _cli(name: str, *args: str) -> Stage:
    return Stage(name, "cli", args)


def _median(walls: dict[str, list[float]], *names: str) -> float:
    """Median over iterations of the summed wall of the named stages."""
    per_iter = [sum(walls[n][i] for n in names) for i in range(len(walls[names[0]]))]
    return statistics.median(per_iter)


class Workload:
    name = ""
    why = ""
    key = ""      # the end-to-end throughput gated as key_items_per_s

    def stages(self, inp: Inputs) -> list[Stage]:
        raise NotImplementedError

    def checks(self, inp: Inputs, stderr: dict[str, str]):
        """Yield (check name, ok, detail) for one iteration's artifacts."""
        raise NotImplementedError

    def timings(self, root: Path) -> dict[str, float]:
        """Timings a stage reports itself, read after each iteration."""
        return {}

    def throughput(self, inp: Inputs, walls: dict[str, list[float]]) -> dict:
        raise NotImplementedError


class CorpusExtract(Workload):
    name = "corpus-extract"
    why = ("parsing, pattern rules, CountTable writes and TSV output do the work; "
           "no scorer runs")
    key = "extract_sentences_per_s"

    def stages(self, inp):
        return [_cli("extract", "extract", "--in", "corpus.conllu", "--skip-malformed",
                     "--out", "out/counts.tsv")]

    def checks(self, inp, stderr):
        out = inp.root / "out"
        yield ("counts", *oracles.check_counts(out / "counts.tsv", inp.oracle["tally"]))
        yield ("skipped", *oracles.check_skipped(stderr["extract"], inp.oracle["malformed"]))

    def throughput(self, inp, walls):
        return {"extract_sentences_per_s": inp.oracle["sentences"] / _median(walls, "extract")}


DS = ("--counts", "counts.tsv", "--embeddings", "vectors.txt")


class ScoreEval(Workload):
    name = "score-eval"
    why = ("count-table reads, scorers, embeddings and evaluation do the work on a "
           "table large against head degree; nothing is parsed")
    key = "ds_pairs_per_s"

    def stages(self, inp):
        seed = str(inp.seed)
        heads = str(inp.size["candidate_heads"])
        out = [_cli(f"candidates-{rel}", "candidates", "--counts", "counts.tsv",
                    "--lexicon", "lexicon.tsv", "--relation", rel, "--seed", seed,
                    "--heads-per-relation", heads, "--out", f"out/candidates-{rel}.tsv")
               for rel in RELATIONS]
        out += [
            _cli("score-pp", "score", "--backend", "pp", "--counts", "counts.tsv",
                 "--pairs", "gold.tsv", "--out", "out/scores-pp.tsv"),
            _cli("score-ds", "score", "--backend", "ds", *DS, "--pairs", "gold.tsv",
                 "--out", "out/scores-ds.tsv"),
            _cli("eval-pp", "eval", "--backend", "pp", "--counts", "counts.tsv",
                 "--gold", "gold.tsv", "--out", "out/eval-pp.json"),
            _cli("eval-ds", "eval", "--backend", "ds", *DS, "--gold", "gold.tsv",
                 "--out", "out/eval-ds.json"),
            _cli("pseudo-ds", "pseudo", "--backend", "ds", *DS, "--pairs", "pseudo.tsv",
                 "--lexicon", "lexicon.tsv", "--seed", seed, "--out", "out/pseudo-ds.json"),
            _cli("winograd-ds", "winograd", "--backend", "ds", *DS,
                 "--out", "out/winograd-ds.json", "--predictions", "out/winograd-ds.csv"),
            Stage("significance", "significance",
                  ("out/scores-pp.tsv", "out/scores-ds.tsv", "gold.tsv",
                   str(inp.size["resamples"]), seed, "out/significance.json",
                   "significance-timing.json")),
        ]
        return out

    def checks(self, inp, stderr):
        out, tally, gold = inp.root / "out", inp.oracle["tally"], inp.oracle["gold"]
        pools = inp.vocab.pools
        for rel in RELATIONS:
            yield (f"candidates-{rel}", *oracles.check_candidates(
                out / f"candidates-{rel}.tsv", tally, rel, inp.size["candidate_heads"],
                pools[DEP_POS[rel]]))
        pp = oracles.pp_oracle(tally)
        ds = oracles.ds_oracle(tally, oracles.read_vectors(inp.root / "vectors.txt"))
        yield ("score-pp", *oracles.check_scores(out / "scores-pp.tsv", gold, pp))
        yield ("score-ds", *oracles.check_scores(out / "scores-ds.tsv", gold, ds, oracles.TOL))
        yield ("eval-pp", *oracles.check_eval(out / "eval-pp.json", gold, pp))
        yield ("eval-ds", *oracles.check_eval(out / "eval-ds.json", gold, ds))
        yield ("pseudo-ds", *oracles.check_pseudo(
            out / "pseudo-ds.json", inp.oracle["pseudo"], lambda rel: pools[DEP_POS[rel]],
            ds, inp.seed))
        yield ("winograd-ds", *oracles.check_winograd(
            out / "winograd-ds.json", out / "winograd-ds.csv", inp.vocab.questions, ds))
        yield ("significance", *oracles.check_significance(
            out / "significance.json", [pp(*g[:3]) for g in gold], [ds(*g[:3]) for g in gold],
            [float(g[3]) for g in gold], inp.size["resamples"], inp.seed))

    def timings(self, root):
        doc = json.loads((root / "significance-timing.json").read_text(encoding="utf-8"))
        return {"significance.call": doc["seconds"]}

    def throughput(self, inp, walls):
        heads = sum(min(inp.size["candidate_heads"],
                        len({h for r, h, _ in inp.oracle["tally"] if r == rel}))
                    for rel in RELATIONS)
        n_gold, resamples = len(inp.oracle["gold"]), inp.size["resamples"]
        return {
            "candidates_heads_per_s": heads / _median(walls, *(f"candidates-{r}" for r in RELATIONS)),
            "ds_pairs_per_s": n_gold / _median(walls, "score-ds"),
            "eval_pairs_per_s": 2 * n_gold / _median(walls, "eval-pp", "eval-ds"),
            "pseudo_pairs_per_s": len(inp.oracle["pseudo"]) / _median(walls, "pseudo-ds"),
            "significance_resamples_per_s": resamples / _median(walls, "significance.call"),
        }


class NNTrain(Workload):
    name = "nn-train"
    why = ("the NN forward/backward pass, SGD and model save/load do the work; "
           "the table is only iterated and nothing is parsed")
    key = "train_instances_per_s"

    def stages(self, inp):
        nn = ("--backend", "nn", "--model", "out/model.npz")
        return [
            _cli("train-nn", "train-nn", "--counts", "counts.tsv", "--lexicon", "lexicon.tsv",
                 "--seed", str(inp.seed), "--epochs", str(inp.size["nn_epochs"]),
                 "--out", "out/model.npz"),
            _cli("score-nn", "score", *nn, "--pairs", "gold.tsv", "--out", "out/scores-nn.tsv"),
            _cli("eval-nn", "eval", *nn, "--gold", "gold.tsv", "--out", "out/eval-nn.json"),
            _cli("winograd-nn", "winograd", *nn, "--out", "out/winograd-nn.json",
                 "--predictions", "out/winograd-nn.csv"),
        ]

    def checks(self, inp, stderr):
        out, gold = inp.root / "out", inp.oracle["gold"]
        nn = oracles.nn_oracle(out / "model.npz")
        yield ("score-nn", *oracles.check_scores(out / "scores-nn.tsv", gold, nn, oracles.TOL))
        yield ("eval-nn", *oracles.check_eval(out / "eval-nn.json", gold, nn))
        yield ("winograd-nn", *oracles.check_winograd(
            out / "winograd-nn.json", out / "winograd-nn.csv", inp.vocab.questions, nn))

    def throughput(self, inp, walls):
        steps = sum(inp.oracle["tally"].values()) * inp.size["nn_epochs"]
        return {"train_instances_per_s": steps / _median(walls, "train-nn"),
                "eval_pairs_per_s": len(inp.oracle["gold"]) / _median(walls, "eval-nn")}


OMCS = ("--gold", "out/gold.tsv", "--omcs", "omcs.tsv")


class AnnotateOMCS(Workload):
    name = "annotate-omcs"
    why = ("annotation filtering, aggregation, leave-one-out agreement, the "
           "lemmatizer and commonsense matching do the work; no count table is read")
    key = "omcs_pairs_per_s"

    def stages(self, inp):
        return [
            _cli("survey", "survey", "--pairs", "survey_pairs.tsv",
                 "--checkpoints", "survey_checkpoints.tsv", "--seed", str(inp.seed),
                 "--out", "out/survey.json"),
            _cli("aggregate", "aggregate", "--ratings", "ratings.csv", "--out", "out/gold.tsv",
                 "--report", "out/aggregate.json"),
            _cli("iaa", "iaa", "--ratings", "ratings.csv", "--out", "out/iaa.json"),
            _cli("omcs-match", "omcs-match", *OMCS, "--out", "out/omcs-match.json"),
            # --kind partial: the CLI writes the partial matrix whatever
            # --kind says (see test_omcs_matrix_exact_csv in tests/)
            _cli("omcs-matrix", "omcs-matrix", *OMCS, "--kind", "partial",
                 "--out", "out/omcs-matrix.csv",
                 "--json", "out/omcs-matrix.json"),
        ]

    def checks(self, inp, stderr):
        out, o = inp.root / "out", inp.oracle
        pairs, checkpoints = o["survey"]
        yield ("survey", *oracles.check_survey(out / "survey.json", pairs, checkpoints))
        yield ("aggregate", *oracles.check_aggregate(
            out / "gold.tsv", out / "aggregate.json", o["pair_ratings"], o["rejected"]))
        yield ("iaa", *oracles.check_iaa(out / "iaa.json", o["pair_ratings"], len(o["rejected"])))
        yield ("omcs-match", *oracles.check_omcs_match(
            out / "omcs-match.json", out / "gold.tsv", o["witnesses"]))
        yield ("omcs-matrix-json", *oracles.check_omcs_matrix_json(
            out / "omcs-matrix.json", out / "gold.tsv", o["witnesses"]))
        yield ("omcs-matrix-csv", *oracles.check_omcs_matrix_csv(
            out / "omcs-matrix.csv", out / "gold.tsv", o["witnesses"], "partial"))

    def throughput(self, inp, walls):
        return {"iaa_ratings_per_s": inp.oracle["n_ratings"] / _median(walls, "iaa"),
                "omcs_pairs_per_s": len(inp.oracle["pair_ratings"])
                / _median(walls, "omcs-match", "omcs-matrix")}


WORKLOADS = {w.name: w for w in (CorpusExtract(), ScoreEval(), NNTrain(), AnnotateOMCS())}
