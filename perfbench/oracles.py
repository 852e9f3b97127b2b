"""Brute-force oracles for the benchmark's outputs.

Each check reads an artifact with its own minimal parser, recomputes the
expected content from the generator's tallies with plain Python or
numpy, and returns ``(ok, detail)``. None of them imports the package.

Tolerances: ``pp`` scores, extracted counts, aggregated means, rejected
annotators, commonsense counts and winograd answers must match exactly;
``ds``, ``nn`` and every Spearman rho match within ``TOL`` absolute,
because their sums run in another order; a bootstrap p-value may differ by
one resample in ``resamples``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np

from generate import top_heads

TOL = 1e-9

GROUPS = (("perfect", 8.0), ("good", 6.0), ("normal", 4.0), ("unusual", 2.0),
          ("impossible", float("-inf")))


def rows(path: Path, ncols: int | None = None) -> list[list[str]]:
    """Tab-separated data rows, skipping blank and ``#`` lines."""
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            fields = line.split("\t")
            out.append(fields[:ncols] if ncols else fields)
    return out


def read_scores(path: Path) -> dict[tuple[str, str, str], float | None]:
    return {(r, h, d): None if v == "NA" else float(v) for r, h, d, v in rows(path, 4)}


def read_vectors(path: Path) -> dict[str, np.ndarray]:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        word, *vals = line.split(" ")
        out.setdefault(word, np.array([float(v) for v in vals]))
    return out


def artifact_digest(path: Path) -> str:
    """sha256 of a file, ignoring lines that carry ``generated_at``."""
    data = Path(path).read_bytes()
    if not path.suffix == ".npz":
        data = b"\n".join(l for l in data.split(b"\n") if b'"generated_at"' not in l)
    return hashlib.sha256(data).hexdigest()


def average_ranks(values) -> np.ndarray:
    a = np.asarray(values, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    starts = np.r_[0, np.flatnonzero(sorted_a[1:] != sorted_a[:-1]) + 1]
    ends = np.r_[starts[1:], len(a)]
    ranks = np.empty(len(a))
    ranks[order] = np.repeat((starts + ends - 1) / 2.0 + 1.0, ends - starts)
    return ranks


def rank_pearson(x, y) -> float | None:
    """Spearman as Pearson over average ranks; None for constant input."""
    rx, ry = average_ranks(x), average_ranks(y)
    sx, sy = rx - rx.mean(), ry - ry.mean()
    vx, vy = float(sx @ sx), float(sy @ sy)
    if vx == 0.0 or vy == 0.0:
        return None
    return float(sx @ sy / np.sqrt(vx * vy))


# corpus-extract --------------------------------------------------------

def check_counts(path: Path, tally: Counter) -> tuple[bool, str]:
    got = Counter()
    for rel, h, d, c in rows(path, 4):
        got[(rel, h, d)] += int(c)
    if got == tally:
        return True, f"{len(got)} pair types equal the tally"
    diff = (got - tally) + (tally - got)
    return False, f"{len(diff)} pair types differ, e.g. {sorted(diff)[:3]}"


def check_skipped(stderr: str, planted: int) -> tuple[bool, str]:
    n = stderr.count("skipping sentence")
    return n == planted, f"{n} skipped, {planted} planted"


# score-eval and nn-train -------------------------------------------------

def by_head(tally: Counter) -> dict[tuple[str, str], dict[str, int]]:
    out: dict[tuple[str, str], dict[str, int]] = {}
    for (rel, h, d), c in tally.items():
        out.setdefault((rel, h), {})[d] = c
    return out


def pp_oracle(tally: Counter):
    heads = by_head(tally)

    def score(rel, h, d):
        deps = heads.get((rel, h))
        return None if not deps else deps.get(d, 0) / sum(deps.values())
    return score


def ds_oracle(tally: Counter, vectors: dict[str, np.ndarray]):
    """Count-weighted mean cosine, as a matrix product over unit rows."""
    heads = by_head(tally)
    unit = {w: v / np.linalg.norm(v) for w, v in vectors.items()}

    def score(rel, h, d):
        deps = heads.get((rel, h))
        if d not in unit or not deps:
            return None
        words = [w for w in deps if w in unit]
        if not words:
            return None
        weights = np.array([deps[w] for w in words], dtype=np.float64)
        cos = np.clip(np.stack([unit[w] for w in words]) @ unit[d], -1.0, 1.0)
        return float(weights @ cos / weights.sum())
    return score


def nn_oracle(model_path: Path):
    """Forward pass of the saved per-relation networks."""
    with np.load(model_path, allow_pickle=False) as z:
        nets = {}
        for rel in json.loads(str(z["meta__relations"])):
            nets[rel] = ({w: i for i, w in enumerate(z[f"{rel}__heads"].tolist())},
                         {w: i for i, w in enumerate(z[f"{rel}__deps"].tolist())},
                         *(z[f"{rel}__{k}"] for k in ("emb_head", "emb_dep", "w1", "b1", "w2", "b2")))

    def score(rel, h, d):
        hidx, didx, eh, ed, w1, b1, w2, b2 = nets[rel]
        if h not in hidx or d not in didx:
            return None
        x = np.concatenate([eh[hidx[h]], ed[didx[d]]])
        return float(w2 @ np.tanh(w1 @ x + b1) + b2)
    return score


def _close(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def check_scores(path: Path, pairs, oracle, tol: float = 0.0) -> tuple[bool, str]:
    got = read_scores(path)
    if list(got) != [tuple(p[:3]) for p in pairs]:
        return False, "scored pairs differ from the query list"
    bad = [p for p, v in got.items() if not _close(v, oracle(*p), tol)]
    return not bad, f"{len(bad)} of {len(got)} scores off the oracle (tol {tol})"


def eval_oracle(gold_rows, oracle) -> dict[str, float | None]:
    """Per-relation rho with the floor policy, and the overall mean."""
    out = {}
    for rel in dict.fromkeys(r for r, *_ in gold_rows):
        mine = [g for g in gold_rows if g[0] == rel]
        scores = [oracle(r, h, d) for r, h, d, _ in mine]
        present = [s for s in scores if s is not None]
        floor = min(present, default=0.0) - 1.0
        out[rel] = rank_pearson([floor if s is None else s for s in scores],
                                [float(v) for *_, v in mine])
    rhos = [v for v in out.values() if v is not None]
    out["overall"] = sum(rhos) / len(rhos) if rhos else None
    return out


def check_eval(path: Path, gold_rows, oracle) -> tuple[bool, str]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    want = eval_oracle(gold_rows, oracle)
    got = {rel: r["rho"] for rel, r in doc["relations"].items()}
    got["overall"] = doc["overall_rho"]
    bad = [k for k in want if not _close(got.get(k), want[k], TOL)]
    return not bad and set(got) == set(want), f"rho off the oracle for {bad or 'none'}"


def check_candidates(path: Path, tally: Counter, rel: str, n_heads: int, pool) -> tuple[bool, str]:
    got = rows(path, 4)
    want_heads = top_heads(tally, rel, n_heads)
    expected = []
    for head, attested in want_heads:
        expected += [(rel, head, d, "frequent") for d in attested[:2]]
        expected += [(rel, head, "*", "random")] * 2
    pool = set(pool)
    ok = len(got) == len(expected) and all(
        tuple(g[:2]) == e[:2] and g[3] == e[3] and (g[2] == e[2] if e[3] == "frequent"
                                                     else g[2] in pool)
        for g, e in zip(got, expected))
    return ok, f"{len(got)} candidates, {len(expected)} expected"


def check_pseudo(path: Path, pairs, pool_of, oracle, seed: int) -> tuple[bool, str]:
    """Replays the documented draw: one confounder per pair, uniform over
    the sorted pool minus the head's other test dependents."""
    positives = {tuple(p) for p in pairs}
    rng = random.Random(seed)
    total = 0.0
    for rel, h, d in pairs:
        usable = [x for x in sorted(pool_of(rel)) if (rel, h, x) not in positives]
        neg_dep = rng.choice(usable)
        pos, neg = oracle(rel, h, d), oracle(rel, h, neg_dep)
        if pos is None or neg is None or abs(pos - neg) <= TOL:
            total += 0.5
        elif pos > neg:
            total += 1.0
    want = total / len(pairs)
    got = json.loads(Path(path).read_text(encoding="utf-8"))["accuracy"]
    return abs(got - want) <= TOL, f"accuracy {got}, oracle {want}"


def check_winograd(summary: Path, predictions: Path, questions, oracle) -> tuple[bool, str]:
    """Every question answered, and each answer the side the oracle prefers."""
    import csv

    doc = json.loads(Path(summary).read_text(encoding="utf-8"))
    with open(predictions, encoding="utf-8", newline="") as fh:
        preds = list(csv.DictReader(fh))
    correct = 0
    for q, p in zip(questions, preds):
        subj = oracle("nsubj_amod", q[0], q[1])
        obj = oracle("dobj_amod", q[0], q[1])
        side = "subject" if subj > obj else "object"
        if p["predicted"] != side or not _close(float(p["subject_score"]), subj, TOL):
            return False, f"question {p['question_id']}: predicted {p['predicted']!r}, oracle {side}"
        correct += side == q[2]
    ok = doc["na"] == 0 and doc["correct"] == correct and len(preds) == len(questions)
    return ok, f"{doc['correct']} correct, {doc['na']} NA; oracle {correct} correct, 0 NA"


def check_significance(path: Path, a, b, gold, resamples: int, seed: int) -> tuple[bool, str]:
    """Replays the paired bootstrap with the same index stream."""
    a, b, g = (np.asarray(v, dtype=np.float64) for v in (a, b, gold))
    rng = np.random.default_rng(seed)
    worse = 0
    for _ in range(resamples):
        idx = rng.integers(0, len(a), size=len(a))
        ra, rb = rank_pearson(a[idx], g[idx]), rank_pearson(b[idx], g[idx])
        delta = 0.0 if ra is None or rb is None else ra - rb
        worse += delta <= 0.0
    want = worse / resamples
    got = json.loads(Path(path).read_text(encoding="utf-8"))["p"]
    return abs(got - want) <= 1.0 / resamples + TOL, f"p {got}, oracle {want}"


# annotate-omcs -----------------------------------------------------------

def check_survey(path: Path, pairs, checkpoints) -> tuple[bool, str]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    got = sorted((q["relation"], q["head"], q["dependent"]) for q in doc["questions"])
    want = sorted([tuple(p) for p in pairs] + [tuple(c) for c, _ in checkpoints])
    index_ok = [q["index"] for q in doc["questions"]] == list(range(1, len(want) + 1))
    return got == want and index_ok, f"{len(got)} questions, {len(want)} expected"


def aggregate_oracle(pair_ratings) -> dict[tuple[str, str, str], str]:
    return {p: f"{(sum(r for _, r in rs) / len(rs) - 1.0) * 2.5:.2f}"
            for p, rs in pair_ratings.items()}


def check_aggregate(gold: Path, report: Path, pair_ratings, rejected) -> tuple[bool, str]:
    got = {tuple(r[:3]): r[3] for r in rows(gold, 4)}
    doc = json.loads(Path(report).read_text(encoding="utf-8"))
    got_rej = {r["annotator_id"]: r["reason"] for r in doc["rejections"]}
    kinds_ok = all(("zero rating variance" in got_rej.get(a, "")) == (kind == "constant")
                   for a, kind in rejected.items())
    means_ok = got == aggregate_oracle(pair_ratings)
    ok = means_ok and set(got_rej) == set(rejected) and kinds_ok and not doc["underrated"]
    return ok, (f"means {'equal' if means_ok else 'differ'}; {len(got_rej)} rejected, "
                f"{len(rejected)} planted")


def iaa_oracle(pair_ratings) -> tuple[dict[str, float], float]:
    """Leave-one-out: each annotator against the mean of the others on the
    pairs they share, averaged per relation."""
    by_rel: dict[str, dict[str, dict[tuple, int]]] = {}
    for p, rs in pair_ratings.items():
        for ann, r in rs:
            by_rel.setdefault(p[0], {}).setdefault(ann, {})[p] = r
    per_rel = {}
    for rel, anns in by_rel.items():
        rhos = []
        for ann, mine in anns.items():
            shared = [(r, np.mean([o[p] for a, o in anns.items() if a != ann and p in o]))
                      for p, r in sorted(mine.items())]
            rhos.append(rank_pearson([s[0] for s in shared], [s[1] for s in shared]))
        per_rel[rel] = sum(rhos) / len(rhos)
    return per_rel, sum(per_rel.values()) / len(per_rel)


def check_iaa(path: Path, pair_ratings, n_rejected: int) -> tuple[bool, str]:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    per_rel, overall = iaa_oracle(pair_ratings)
    kept = len({a for rs in pair_ratings.values() for a, _ in rs})
    ok = (set(doc["per_relation"]) == set(per_rel)
          and all(abs(doc["per_relation"][k] - v) <= TOL for k, v in per_rel.items())
          and abs(doc["overall"] - overall) <= TOL
          and doc["annotators_kept"] == kept and doc["annotators_rejected"] == n_rejected)
    return ok, f"overall {doc['overall']}, oracle {overall}"


def omcs_oracle(gold: Path, witnesses):
    """Per plausibility group pair counts and per (SP relation, OMCS
    relation) witness counts, from the planted witnesses."""
    groups = {g: {"pairs": 0, "exact": 0, "partial": 0} for g, _ in GROUPS}
    matrix = {"exact": {}, "partial": {}}
    for rel, h, d, v in rows(gold, 4):
        group = next(g for g, lo in GROUPS if float(v) >= lo)
        groups[group]["pairs"] += 1
        w = witnesses.get(frozenset((h, d)), {"exact": [], "partial": []})
        kind = "exact" if w["exact"] else "partial" if w["partial"] else None
        if kind:
            groups[group][kind] += 1
            row = matrix[kind].setdefault(rel, {})
            for label in w[kind]:
                row[label] = row.get(label, 0) + 1
    return groups, matrix


def check_omcs_match(path: Path, gold: Path, witnesses) -> tuple[bool, str]:
    groups, _ = omcs_oracle(gold, witnesses)
    doc = json.loads(Path(path).read_text(encoding="utf-8"))["groups"]
    got = {g: {k: s[k] for k in ("pairs", "exact", "partial")} for g, s in doc.items()}
    return got == groups, f"exact {sum(s['exact'] for s in got.values())}, oracle " \
                          f"{sum(s['exact'] for s in groups.values())}"


def check_omcs_matrix_json(path: Path, gold: Path, witnesses) -> tuple[bool, str]:
    _, matrix = omcs_oracle(gold, witnesses)
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    got = {kind: {rel: row for rel, row in doc[kind].items() if row} for kind in matrix}
    return got == matrix, f"{sum(sum(r.values()) for r in got['exact'].values())} exact witnesses"


def check_omcs_matrix_csv(path: Path, gold: Path, witnesses, kind: str) -> tuple[bool, str]:
    """The CSV holds the matrix of the requested kind."""
    _, matrix = omcs_oracle(gold, witnesses)
    lines = [l for l in Path(path).read_text(encoding="utf-8").splitlines()
             if not l.startswith("#")]
    labels = lines[0].split(",")[1:]
    got = {}
    for line in lines[1:]:
        rel, *cells = line.split(",")
        row = {l: int(c) for l, c in zip(labels, cells) if int(c)}
        if row:
            got[rel] = row
    other = "partial" if kind == "exact" else "exact"
    if got == matrix[kind]:
        return True, f"{kind} matrix"
    return False, f"not the {kind} matrix" + (f"; it is the {other} one" if got == matrix[other] else "")
