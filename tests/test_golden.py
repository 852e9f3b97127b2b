"""Golden-output lock: every subcommand on the fixture corpus, pinned by hash.

Each subcommand runs in a child interpreter from a temporary working
directory on relative paths, so the config echoed into the artifacts is
the same on every machine; ``OPENBLAS_NUM_THREADS=1`` keeps the NN
arithmetic on one thread. Every artifact and every stdout is pinned by
its sha256 with the ``generated_at`` lines left out. A refactor must keep
these hashes; a change that alters an output updates them and says why.
"""

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import selpref

SRC = str(Path(selpref.__file__).resolve().parent.parent)
FIXTURE = Path(__file__).parent / "data" / "fixture.conllu"

VERBS = ["break", "build", "buy", "carry", "catch", "charm", "chase", "close", "cook",
         "drink", "drive", "eat", "fall", "hear", "kick", "make", "open", "paint", "read",
         "ride", "see", "sell", "serve", "sing", "throw", "wash", "write"]
NOUNS = ["alice", "bob", "boston", "carol", "david", "paris", "apple", "bird", "boat",
         "book", "boy", "bread", "car", "cat", "chair", "child", "coffee", "dog", "door",
         "fan", "farmer", "fish", "girl", "horse", "house", "knife", "letter", "man", "meat",
         "music", "road", "song", "stone", "table", "tea", "teacher", "visitor", "wall",
         "water", "woman", "worm"]
ADJECTIVES = ["big", "clean", "cold", "dirty", "fast", "fat", "fresh", "green", "happy",
              "hard", "heavy", "hot", "hungry", "light", "loud", "new", "old", "quiet", "red",
              "sad", "slow", "small", "soft", "tall", "young"]

OMCS = """\
# start\trelation\tend
eat\tUsedFor\tapple
dogs\tCapableOf\tchase cats
bird\tCapableOf\tsing songs
knife\tUsedFor\tcut bread
drink water\tHasPrerequisite\tbe thirsty
fish\tIsA\tanimal
horses\tCapableOf\tkick
hot tea\tUsedFor\tdrink
boy\tHasProperty\tyoung
old man\tCapableOf\tread books
stone\tHasProperty\thard
tea\tHasProperty\thot
people\tDesires\teat fresh bread
dog\tCapableOf\tchase things
"""

QUESTIONS = {
    "schema_version": 1,
    "questions": [
        {"id": "g1", "sentence": "The dog chased the cat because it was fast.",
         "verb": "chase", "adjective": "fast",
         "candidate_subject": {"surface": "the dog", "lemma": "dog"},
         "candidate_object": {"surface": "the cat", "lemma": "cat"}, "gold": "subject"},
        {"id": "g2", "sentence": "The man ate the bread because it was fresh.",
         "verb": "eat", "adjective": "fresh",
         "candidate_subject": {"surface": "the man", "lemma": "man"},
         "candidate_object": {"surface": "the bread", "lemma": "bread"}, "gold": "object"},
        {"id": "g3", "sentence": "The woman sold the car because it was old.",
         "verb": "sell", "adjective": "old",
         "candidate_subject": {"surface": "the woman", "lemma": "woman"},
         "candidate_object": {"surface": "the car", "lemma": "car"}, "gold": "object"},
        {"id": "g4", "sentence": "The boy kicked the horse because he was angry.",
         "verb": "kick", "adjective": "hungry",
         "candidate_subject": {"surface": "the boy", "lemma": "boy"},
         "candidate_object": {"surface": "the horse", "lemma": "horse"}, "gold": "subject"},
    ],
}

CHECKPOINTS = "dobj\teat\tbread\t4|5\ndobj\teat\tstone\t1|2\ndobj\tdrink\twater\t4|5\n"


def ratings_csv() -> str:
    """Ten annotators over twenty pairs and one checkpoint; annotator a08
    fails the checkpoint and a09 rates everything alike."""
    rng = random.Random(21)
    pairs = [("dobj", "eat", "bread"), ("dobj", "eat", "stone"), ("dobj", "drink", "tea"),
             ("dobj", "read", "book"), ("nsubj", "sing", "bird"), ("nsubj", "drive", "car"),
             ("nsubj", "chase", "dog"), ("nsubj", "read", "stone"), ("amod", "tea", "hot"),
             ("amod", "stone", "hard"), ("amod", "song", "loud"), ("amod", "road", "happy"),
             ("dobj_amod", "eat", "fresh"), ("dobj_amod", "chase", "fast"),
             ("dobj_amod", "kick", "hungry"), ("dobj_amod", "sell", "old"),
             ("nsubj_amod", "chase", "fast"), ("nsubj_amod", "eat", "fresh"),
             ("nsubj_amod", "sell", "old"), ("nsubj_amod", "kick", "quiet")]
    rows = ["annotator_id,relation,head,dependent,rating,is_checkpoint,expected"]
    for i in range(10):
        ann = f"a{i:02d}"
        for rel, head, dep in pairs:
            rating = 3 if i == 9 else rng.randint(1, 5)
            rows.append(f"{ann},{rel},{head},{dep},{rating},0,")
        rows.append(f"{ann},dobj,eat,meal,{1 if i == 8 else 3 if i == 9 else 5},1,4|5")
    return "\n".join(rows) + "\n"


def embeddings_txt() -> str:
    rng = random.Random(4)
    return "".join(
        word + "".join(f" {rng.uniform(-1, 1):.3f}" for _ in range(5)) + "\n"
        for word in VERBS + NOUNS + ADJECTIVES)


def write_inputs(root: Path) -> None:
    files = {
        "corpus.conllu": FIXTURE.read_text(encoding="utf-8"),
        "lexicon.tsv": "".join(f"{w}\t{pos}\n" for pos, words in
                               (("verb", VERBS), ("noun", NOUNS), ("adj", ADJECTIVES))
                               for w in words),
        "vectors.txt": embeddings_txt(),
        "ratings.csv": ratings_csv(),
        "omcs.tsv": OMCS,
        "questions.json": json.dumps(QUESTIONS, indent=2) + "\n",
        "survey_pairs.tsv": "".join(f"dobj\t{v}\t{n}\n"
                                    for v in VERBS[:10] for n in NOUNS[:10]),
        "checkpoints.tsv": CHECKPOINTS,
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


BACKEND_FLAGS = {
    "pp": ["--backend", "pp", "--counts", "counts.tsv"],
    "ds": ["--backend", "ds", "--counts", "counts.tsv", "--embeddings", "vectors.txt"],
    "nn": ["--backend", "nn", "--model", "model.npz"],
    "lookup": ["--backend", "lookup", "--scores", "gold.tsv"],
}

# (name, argv); later commands read what earlier ones wrote
COMMANDS = [
    ("extract", ["extract", "--in", "corpus.conllu", "--out", "counts.tsv"]),
    ("candidates", ["candidates", "--counts", "counts.tsv", "--lexicon", "lexicon.tsv",
                    "--relation", "dobj", "--seed", "3", "--heads-per-relation", "8",
                    "--out", "candidates.tsv"]),
    ("train-nn", ["train-nn", "--counts", "counts.tsv", "--lexicon", "lexicon.tsv",
                  "--seed", "5", "--epochs", "2", "--embedding-dim", "4",
                  "--hidden-dim", "6", "--out", "model.npz"]),
    ("aggregate", ["aggregate", "--ratings", "ratings.csv", "--min-ratings", "3",
                   "--out", "gold.tsv", "--report", "aggregate.json"]),
    ("iaa", ["iaa", "--ratings", "ratings.csv", "--out", "iaa.json"]),
    *[(f"score-{b}", ["score", "--pairs", "candidates.tsv", *flags,
                      "--out", f"scores-{b}.tsv"]) for b, flags in BACKEND_FLAGS.items()],
    *[(f"eval-{b}", ["eval", "--gold", "gold.tsv", *flags, "--out", f"eval-{b}.json"])
      for b, flags in BACKEND_FLAGS.items()],
    ("pseudo", ["pseudo", "--pairs", "candidates.tsv", "--lexicon", "lexicon.tsv",
                "--seed", "9", *BACKEND_FLAGS["pp"], "--out", "pseudo.json"]),
    ("survey", ["survey", "--pairs", "survey_pairs.tsv", "--checkpoints",
                "checkpoints.tsv", "--seed", "2", "--out", "survey.json"]),
    ("omcs-match", ["omcs-match", "--gold", "gold.tsv", "--omcs", "omcs.tsv",
                    "--out", "omcs-match.json"]),
    ("omcs-matrix", ["omcs-matrix", "--gold", "gold.tsv", "--omcs", "omcs.tsv",
                     "--out", "omcs-matrix.csv", "--json", "omcs-matrix.json"]),
    ("winograd-gold", ["winograd", "--gold", "gold.tsv", "--questions", "questions.json",
                       "--out", "winograd-gold.json", "--predictions", "winograd-gold.csv"]),
    ("winograd-pp", ["winograd", *BACKEND_FLAGS["pp"], "--out", "winograd-pp.json",
                     "--predictions", "winograd-pp.csv"]),
]

GOLDEN = {
    "aggregate.json":
        "bea67a09059cd5af3092bb3986f7f073d8aaf35022412a04295090920037fa03",
    "aggregate.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "candidates.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "candidates.tsv":
        "bb02480a5a04bb48ce06599c5df16b5b706072a3e5c0cd1fc06c5f5345fc8814",
    "counts.tsv":
        "f8fdf3e1581a26313f8823f4c6aca355e60d77f35655240fd1c02cdded73e747",
    "eval-ds.json":
        "026ff646b0b37aa71ee5339bf3ceb2610c62e4e20896f53254772f5835ab32f4",
    "eval-ds.stdout":
        "7ca32302b6fce717cb68cac88743fa00a6467095f74a692a222c01d112e3e0f0",
    "eval-lookup.json":
        "58fe7add58e0228f9e49bc55462ada6a1f53fe3869a03b35862794a6f4433f0b",
    "eval-lookup.stdout":
        "8830361938465127514b8ec2cd6985480da480f2552e49324acda1d5438d5e43",
    "eval-nn.json":
        "c8c910e083c52681916a1833ab0ece8e6d5000a374223eade6ccf5bccfcd1568",
    "eval-nn.stdout":
        "1a1f7e0bccbac127200c84559a17c494a34fef7011da56c621ba888c39922bc9",
    "eval-pp.json":
        "81ac0c8a5be8889da199fa113cde4f4573d2afd4760746e3571d5ff157c70181",
    "eval-pp.stdout":
        "9f0371d2e832ae81b92d58c1993b68a51570e3fd3d9ca301b7718cd3563f2bd6",
    "extract.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "gold.tsv":
        "4a56d3096694ca99f790a26c239b0bb320c74ea15f9e40c4486965143de57378",
    "iaa.json":
        "5d31e02de2a0632e2a14b6e4ac3412c272e29075d929f2bcaea4c86a26f0615b",
    "iaa.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "model.npz":
        "470d7cac9bee693ea454365673f6ff9881244e91246a4b95e34bfa5d9a9c21bd",
    "omcs-match.json":
        "d8ab97d8278e41603af9daa6e2f10cd95a82a2eb04d72c78b11dcc27f98d2429",
    "omcs-match.stdout":
        "bd1a6f422b910890f5b4deb2675007705de5741299e65f7735769920e81a3ecc",
    "omcs-matrix.csv":
        "59c659a795614d73e6c38be99bc14ec306bdfc452ce15640e7f9feb3b2dc4272",
    "omcs-matrix.json":
        "9f4aef063ed2b23e26ae8467ebefdfdc630d733733ef41747fa360016b400cfc",
    "omcs-matrix.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "pseudo.json":
        "d1614cf032bdfaa888e41d1119050f0369dc495ad9a2f69b1001d4261a006525",
    "pseudo.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "score-ds.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "score-lookup.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "score-nn.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "score-pp.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "scores-ds.tsv":
        "b8f493a2b8390176e32dfd5d9f5fe7b025ea952339f43d1527e7f6bcbe410d34",
    "scores-lookup.tsv":
        "c48509efb4291bdbcf22c6b1e1dc025fbd30a891b97db7e07c5e67ecb0098e1d",
    "scores-nn.tsv":
        "7c2824eb19222c1233787728a9ab14c53e2731763a0e0cfe9dc14fed9c21daa1",
    "scores-pp.tsv":
        "27f1de6272597b9f11fb508d3d7c01dbba9083cb2ecf759b1cdc4e65172c32b3",
    "survey.json":
        "239cc5da7a5f2c6cc8a0a64813b72aeed9e438302e2d323f01f7d33b1ac44b76",
    "survey.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "train-nn.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "winograd-gold.csv":
        "5cf0f5b80a46b0b1d633b41b9b19da2ff00a6e1096a780ac136b579234bc3f7e",
    "winograd-gold.json":
        "9178b01b72f0cd250bb691e12be641ad88ea9865daca24a7ab7a9d6dc3317a6f",
    "winograd-gold.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "winograd-pp.csv":
        "a5379f1e4fb96ae6280b8483fe8758941c7934ddf8b45ab9fd5d2709ecf2150f",
    "winograd-pp.json":
        "bc673c15a0222866f4990554435cb93994315c0e9d51d8e60c97898413a27d5e",
    "winograd-pp.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def digest(data: bytes) -> str:
    kept = [line for line in data.split(b"\n") if b'"generated_at"' not in line]
    return hashlib.sha256(b"\n".join(kept)).hexdigest()


def test_every_output_matches_its_pinned_hash(tmp_path):
    write_inputs(tmp_path)
    inputs = {p.name for p in tmp_path.iterdir()}
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    got = {}
    for name, argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "selpref.cli", *argv],
                              capture_output=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, (name, proc.stderr.decode())
        got[f"{name}.stdout"] = digest(proc.stdout)
    for path in sorted(tmp_path.iterdir()):
        if path.name not in inputs:
            got[path.name] = digest(path.read_bytes())
    assert got == GOLDEN
