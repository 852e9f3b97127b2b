"""Per-layer metrics of a traced run.

Layers are the modules under ``src/selpref``. Times come from the spans
the traced stages wrote (``tracer.py``); counts come from span sizes, from
the artifacts, or from the generator's tally where the program reports
none. A layer the workload does not exercise reads 0.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from generate import RELATIONS, Inputs

CLI_COMMANDS = ("extract", "candidates", "score", "eval", "pseudo", "winograd", "train-nn",
                "survey", "aggregate", "iaa", "omcs-match", "omcs-matrix")
LAYERS = ("cli", "core", "conllu", "extract", "embeddings", "scorers", "evaluation", "nn",
          "winograd", "annotate", "commonsense", "lemmatize")
BACKENDS = ("pp", "ds", "nn")


def _units() -> dict[str, str]:
    u = {"cli.import_s": "s"}
    for c in CLI_COMMANDS:
        u[f"cli.{c}_s"] = "s"
        u[f"cli.{c}.peak_rss_mb"] = "MB"
    u.update({f"{layer}.self_s": "s" for layer in LAYERS})
    u.update({"conllu.parse_s": "s", "conllu.sentences": "count", "conllu.tokens": "count",
              "conllu.skipped": "count",
              "extract.rules_s": "s", "extract.accumulate_s": "s", "extract.write_s": "s",
              "extract.rows": "count"})
    u.update({f"extract.pairs.{rel}": "count" for rel in RELATIONS})
    u.update({"extract.read_counts_s": "s", "extract.read_rows_per_s": "1/s",
              "extract.dependents_of_us.p50": "us", "extract.dependents_of_us.p99": "us",
              "extract.candidates_s": "s", "embeddings.load_s": "s", "embeddings.vectors": "count",
              "scorers.pp_us.p50": "us", "scorers.pp_us.p99": "us",
              "scorers.ds_us.p50": "us", "scorers.ds_us.p99": "us"})
    u.update({f"scorers.na.{b}": "count" for b in BACKENDS})
    u.update({"scorers.ds_attested": "count", "scorers.ds_ns_per_attested": "ns",
              "evaluation.load_gold_s": "s"})
    u.update({f"evaluation.evaluate_s.{b}": "s" for b in BACKENDS})
    u.update({"evaluation.spearman_us": "us", "evaluation.significance_s": "s",
              "evaluation.pseudo_s": "s",
              "nn.train_s": "s", "nn.instances": "count", "nn.save_s": "s", "nn.load_s": "s",
              "nn.model_bytes": "count", "nn.score_us.p50": "us", "nn.score_us.p99": "us",
              "winograd.resolve_us.p50.ds": "us", "winograd.resolve_us.p50.nn": "us",
              "winograd.answered": "count", "winograd.na": "count",
              "annotate.read_ratings_s": "s", "annotate.ratings": "count",
              "annotate.filter_s": "s", "annotate.rejected": "count",
              "annotate.aggregate_s": "s", "annotate.iaa_s": "s",
              "annotate.annotators": "count", "annotate.survey_s": "s",
              "commonsense.read_omcs_s": "s", "commonsense.triplets": "count",
              "commonsense.index_s": "s", "commonsense.match_s": "s",
              "commonsense.matrix_s": "s", "commonsense.exact": "count",
              "commonsense.partial": "count", "lemmatize.tokens_per_s": "1/s",
              "trace_overhead_s": "s"})
    return u


UNITS = _units()


class Spans:
    """The spans of every traced stage of one run, with self times."""

    def __init__(self, records):
        self.stages = []
        for header, cols in records:
            dur = (cols["end"] - cols["start"]).astype(np.float64) * 1e-9
            has_parent = cols["parent"] >= 0
            covered = np.bincount(cols["parent"][has_parent], weights=dur[has_parent],
                                  minlength=len(dur))
            names = np.array(header["names"] or [""], dtype=object)[cols["name"]] \
                if len(dur) else np.array([], dtype=object)
            self.stages.append((header, names, dur, dur - covered, cols["size"]))

    def select(self, name: str, stage: str | None = None):
        """(durations s, self times s, sizes) of spans called ``name``."""
        parts = [(d[n == name], s[n == name], z[n == name])
                 for h, n, d, s, z in self.stages if stage is None or h["stage"] == stage]
        if not parts:
            return np.array([]), np.array([]), np.array([], dtype=np.int64)
        return tuple(np.concatenate(p) for p in zip(*parts))

    def total(self, name: str, stage: str | None = None) -> float:
        return float(self.select(name, stage)[0].sum())

    def self_total(self, name: str) -> float:
        return float(self.select(name)[1].sum())

    def us(self, name: str, q: float, stage: str | None = None) -> float:
        d = self.select(name, stage)[0]
        return float(np.percentile(d, q) * 1e6) if len(d) else 0.0

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for _, names, _, self_s, _ in self.stages:
            for name in set(names):
                layer = name.split(".", 1)[0]
                if layer in out:
                    out[layer] += float(self_s[names == name].sum())
        return out

    def import_s(self) -> float:
        return float(np.median([h["import_s"] for h, *_ in self.stages]))


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def _data_rows(path: Path) -> list[list[str]]:
    if not path.is_file():
        return []
    return [l.split("\t") for l in path.read_text(encoding="utf-8").splitlines()
            if l and not l.startswith("#")]


def layer_metrics(inp: Inputs, stages, spans: Spans, untraced: dict, traced: dict,
                  probes: dict, overhead_s: float) -> dict[str, float]:
    """Every per-layer metric; ``untraced``/``traced`` map stage name to
    its Outcome, ``probes`` holds the direct-probe results."""
    m = dict.fromkeys(UNITS, 0.0)
    out = inp.root / "out"
    m["cli.import_s"] = spans.import_s()
    for st in stages:
        if st.mode == "cli":
            oc = untraced[st.name]
            m[f"cli.{st.command}_s"] += oc.wall
            key = f"cli.{st.command}.peak_rss_mb"
            m[key] = max(m[key], oc.rss_mb)
    for layer, v in spans.layer_self().items():
        m[f"{layer}.self_s"] = v

    _, _, sizes = spans.select("conllu.read_conllu")
    m["conllu.parse_s"] = spans.self_total("conllu.read_conllu")
    m["conllu.sentences"] = int((sizes >= 0).sum())
    m["conllu.tokens"] = int(sizes[sizes >= 0].sum())
    if "extract" in traced:
        m["conllu.skipped"] = traced["extract"].stderr.count("skipping sentence")
    m["extract.rules_s"] = spans.self_total("extract.extract_pairs")
    m["extract.accumulate_s"] = spans.self_total("extract.build_counts")
    m["extract.write_s"] = spans.total("extract.write_counts")
    if inp.workload == "corpus-extract":
        counts = _data_rows(out / "counts.tsv")
        m["extract.rows"] = len(counts)
        for rel, _, _, c in counts:
            m[f"extract.pairs.{rel}"] += int(c)

    reads = len(spans.select("extract.read_counts")[0])
    m["extract.read_counts_s"] = spans.total("extract.read_counts")
    if reads:
        rows = len(_data_rows(inp.root / "counts.tsv"))
        m["extract.read_rows_per_s"] = rows * reads / m["extract.read_counts_s"]
    if "dependents" in probes:
        m["extract.dependents_of_us.p50"] = probes["dependents"]["p50"]
        m["extract.dependents_of_us.p99"] = probes["dependents"]["p99"]
    m["extract.candidates_s"] = spans.total("extract.generate_candidates")

    d, _, sizes = spans.select("embeddings.load_embeddings")
    m["embeddings.load_s"] = float(d.sum())
    m["embeddings.vectors"] = int(sizes.max()) if len(sizes) else 0
    for name, fn in (("pp", "scorers.pp_score"), ("ds", "scorers.ds_score"),
                     ("nn", "nn.NNModel.score")):
        prefix = "nn.score_us" if name == "nn" else f"scorers.{name}_us"
        m[f"{prefix}.p50"] = spans.us(fn, 50)
        m[f"{prefix}.p99"] = spans.us(fn, 99)
    for b in BACKENDS:
        m[f"scorers.na.{b}"] = sum(r[3] == "NA" for r in _data_rows(out / f"scores-{b}.tsv"))
    if inp.workload == "score-eval":
        degree = {}
        for (rel, h, _), _c in inp.oracle["tally"].items():
            degree[(rel, h)] = degree.get((rel, h), 0) + 1
        m["scorers.ds_attested"] = sum(degree.get((r, h), 0) for r, h, *_ in inp.oracle["gold"])
        m["scorers.ds_ns_per_attested"] = (spans.total("scorers.ds_score", "score-ds") * 1e9
                                           / m["scorers.ds_attested"])

    m["evaluation.load_gold_s"] = spans.total("evaluation.load_gold")
    for b in BACKENDS:
        m[f"evaluation.evaluate_s.{b}"] = spans.total("evaluation.evaluate", f"eval-{b}")
    m["evaluation.spearman_us"] = spans.us("evaluation.spearman", 50)
    m["evaluation.significance_s"] = spans.total("evaluation.significance")
    m["evaluation.pseudo_s"] = spans.total("evaluation.pseudo_disambiguation")

    m["nn.train_s"] = spans.total("nn.nn_train")
    m["nn.save_s"] = spans.total("nn.NNModel.save")
    m["nn.load_s"] = spans.total("nn.NNModel.load")
    if inp.workload == "nn-train":
        m["nn.instances"] = sum(inp.oracle["tally"].values())
        m["nn.model_bytes"] = (out / "model.npz").stat().st_size
    for b in ("ds", "nn"):
        m[f"winograd.resolve_us.p50.{b}"] = spans.us("winograd.resolve", 50, f"winograd-{b}")
        doc = _json(out / f"winograd-{b}.json")
        m["winograd.answered"] += doc.get("correct", 0) + doc.get("wrong", 0)
        m["winograd.na"] += doc.get("na", 0)

    d, _, sizes = spans.select("annotate.read_ratings")
    m["annotate.read_ratings_s"] = float(d.sum())
    m["annotate.ratings"] = int(sizes.max()) if len(sizes) else 0
    m["annotate.filter_s"] = spans.total("annotate.filter_annotations")
    m["annotate.rejected"] = len(_json(out / "aggregate.json").get("rejections", []))
    m["annotate.aggregate_s"] = spans.total("annotate.aggregate")
    m["annotate.iaa_s"] = spans.total("annotate.iaa")
    iaa = _json(out / "iaa.json")
    m["annotate.annotators"] = iaa.get("annotators_kept", 0) + iaa.get("annotators_rejected", 0)
    m["annotate.survey_s"] = spans.total("annotate.generate_survey")

    d, _, sizes = spans.select("commonsense.read_omcs")
    m["commonsense.read_omcs_s"] = float(d.sum())
    m["commonsense.triplets"] = int(sizes.max()) if len(sizes) else 0
    m["commonsense.index_s"] = spans.total("commonsense.OMCSIndex.__init__")
    m["commonsense.match_s"] = spans.total("commonsense.coverage_by_group")
    m["commonsense.matrix_s"] = spans.total("commonsense.relation_matrix")
    groups = _json(out / "omcs-match.json").get("groups", {})
    m["commonsense.exact"] = sum(g["exact"] for g in groups.values())
    m["commonsense.partial"] = sum(g["partial"] for g in groups.values())
    if "lemmatize" in probes:
        m["lemmatize.tokens_per_s"] = probes["lemmatize"]["tokens_per_s"]
    m["trace_overhead_s"] = overhead_s
    return m
