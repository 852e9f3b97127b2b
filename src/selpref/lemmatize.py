"""Small rule-based English lemmatizer for phrase matching.

This is not a linguistically complete lemmatizer. Matching only needs the
same normalization applied to both sides of a comparison, so the rules
are deliberately conservative: strip clear inflectional suffixes, leave
anything ambiguous alone, and back off to an irregular-form table for
frequent exceptions. Callers with stronger requirements can pass any
`word -> lemma` callable instead; everything downstream treats the
function as an opaque pure function.
"""

from __future__ import annotations

_BE = {"am", "is", "are", "was", "were", "been", "being"}

IRREGULAR = {
    **{w: "be" for w in _BE},
    "has": "have", "had": "have", "having": "have",
    "does": "do", "did": "do", "done": "do", "doing": "do",
    "goes": "go", "went": "go", "gone": "go", "going": "go",
    "gets": "get", "got": "get", "gotten": "get", "getting": "get",
    "makes": "make", "made": "make", "making": "make",
    "takes": "take", "took": "take", "taken": "take", "taking": "take",
    "gives": "give", "gave": "give", "given": "give", "giving": "give",
    "comes": "come", "came": "come", "coming": "come",
    "uses": "use", "used": "use", "using": "use",
    "says": "say", "said": "say", "saying": "say",
    "sees": "see", "saw": "see", "seen": "see", "seeing": "see",
    "eats": "eat", "ate": "eat", "eaten": "eat", "eating": "eat",
    "drank": "drink", "drunk": "drink", "drinking": "drink",
    "wrote": "write", "written": "write", "writing": "write",
    "drove": "drive", "driven": "drive", "driving": "drive",
    "rode": "ride", "ridden": "ride", "riding": "ride",
    "rose": "rise", "risen": "rise", "rising": "rise",
    "sang": "sing", "sung": "sing",
    "ran": "run", "running": "run",
    "sat": "sit", "sitting": "sit",
    "bought": "buy", "sold": "sell", "caught": "catch", "taught": "teach",
    "thought": "think", "brought": "bring", "fought": "fight",
    "kept": "keep", "slept": "sleep", "felt": "feel", "left": "leave",
    "met": "meet", "lost": "lose", "won": "win", "held": "hold",
    "heard": "hear", "found": "find", "told": "tell", "read": "read",
    "stood": "stand", "grew": "grow", "grown": "grow", "knew": "know",
    "known": "know", "threw": "throw", "thrown": "throw", "flew": "fly",
    "flown": "fly", "spoke": "speak", "spoken": "speak", "broke": "break",
    "broken": "break", "chose": "choose", "chosen": "choose",
    "wore": "wear", "worn": "wear", "paid": "pay", "sent": "send",
    "spent": "spend", "built": "build", "lent": "lend", "bent": "bend",
    "meant": "mean", "dealt": "deal", "fell": "fall", "fallen": "fall",
    "children": "child", "men": "man", "women": "woman", "feet": "foot",
    "teeth": "tooth", "mice": "mouse", "geese": "goose", "lives": "life",
    "knives": "knife", "wives": "wife", "leaves": "leaf", "wolves": "wolf",
    "shelves": "shelf", "loaves": "loaf", "halves": "half",
    "shoes": "shoe", "toes": "toe", "lies": "lie", "ties": "tie",
    "dies": "die", "pies": "pie",
    # frequent words that the suffix rules would mangle
    "news": "news", "series": "series", "species": "species",
    "buses": "bus", "gases": "gas", "lenses": "lens",
    "morning": "morning", "evening": "evening", "thing": "thing",
    "something": "something", "nothing": "nothing", "anything": "anything",
    "everything": "everything", "spring": "spring", "string": "string",
    "during": "during", "speed": "speed", "breed": "breed", "feed": "feed",
    "seed": "seed", "indeed": "indeed", "hundred": "hundred",
    "sacred": "sacred", "naked": "naked", "wicked": "wicked",
    "clothing": "clothing", "ceiling": "ceiling", "sibling": "sibling",
}

_S_PROTECTED = ("ss", "us", "is")


def _dedup(stem: str) -> str:
    # undo consonant doubling from suffixation (stopped, swimming)
    if (
        len(stem) >= 4
        and stem[-1] == stem[-2]
        and stem[-1] not in "aeioulsz"
    ):
        return stem[:-1]
    return stem


def lemmatize(word: str) -> str:
    """Map an inflected form to a base form where the rules are sure."""
    w = word.lower()
    if len(w) < 3:
        return w
    if w in IRREGULAR:
        return IRREGULAR[w]
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-3] + ("ie" if len(w) == 4 else "y")
    if w.endswith("ches") or w.endswith("shes"):
        return w[:-2]
    if w.endswith("xes") or w.endswith("oes"):
        return w[:-2]
    if w.endswith("s") and not w.endswith(_S_PROTECTED) and len(w) >= 4:
        return w[:-1]
    if w.endswith("ied") and len(w) >= 5:
        return w[:-3] + "y"
    if w.endswith("ing") and len(w) >= 6:
        return _dedup(w[:-3])
    if w.endswith("ed") and len(w) >= 5:
        return _dedup(w[:-2])
    return w


def lemmatize_phrase(phrase: str) -> list[str]:
    """Lowercase, split on whitespace, lemmatize each token."""
    return [lemmatize(tok) for tok in phrase.lower().split()]
