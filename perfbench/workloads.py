"""Workload definitions and the seeded fixture generator.

Each workload is a frozen `Workload`; `generate(workload, seed, out_dir)`
writes the files the program reads (KB, precomputed results, dataset and,
for warm-cache workloads, a pre-filled vector cache) plus a manifest that
records the parameters, the seed and why the workload exists. The same seed
always gives byte-identical files.

Run as a script to generate one workload's fixtures:

    python3 perfbench/workloads.py --workload dense-k11 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

# Stopwords mixed into every sentence so tokenization drops something.
FILLER_STOPWORDS = ("the", "of", "and")
CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
CHOICE_LABELS = ("A", "B", "C", "D")
# Share of distractor sentences ending in a decoy factoid answer (a word with
# a digit), so a context that misses the gold sentence can make the QA
# stand-in answer wrongly. No "true"/"false" decoys: the claim answer is a
# gold-sentence term, and repeating it across the pool would send chains
# after it and make the cost of claim records vary from seed to seed.
DECOY_SHARE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    retrieval: str  # "precomputed-dense" | "bm25"
    highlighting: bool
    stepback: bool
    mcq: bool
    top_k: int
    records: int  # records per round; every round runs all of them
    kb_passages: int  # bm25: KB size; dense: passages per record are top_k
    vocab_size: int
    sentences_per_passage: int
    words_per_sentence: int  # content words; one stopword is added to each
    query_terms: int  # planted query terms, spread over 2-3 gold sentences
    answerable_share: float  # the rest carry one term found in no passage
    warm_vector_cache: bool  # vector cache pre-filled (read path) or empty (write path)

    @property
    def kb_size(self) -> int:
        return self.kb_passages if self.retrieval == "bm25" else self.records * self.top_k


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-k11",
            why=(
                "paper's main setting: precomputed dense top-11 with highlighting; "
                "alignment/retriever dominate and hop-cap chains on unanswerable terms set the tail"
            ),
            retrieval="precomputed-dense",
            highlighting=True,
            stepback=False,
            mcq=False,
            top_k=11,
            records=30,
            kb_passages=0,
            vocab_size=3000,
            sentences_per_passage=8,
            words_per_sentence=2,
            query_terms=3,
            answerable_share=0.6,
            warm_vector_cache=True,
        ),
        Workload(
            name="bm25-20k",
            why=(
                "no-highlight baseline row: BM25 over a 20k-passage KB; store dominates "
                "and alignment does no work, so MaxSim changes must not move it"
            ),
            retrieval="bm25",
            highlighting=False,
            stepback=False,
            mcq=False,
            top_k=11,
            records=100,
            kb_passages=20000,
            vocab_size=20000,
            sentences_per_passage=8,
            words_per_sentence=4,
            query_terms=3,
            answerable_share=1.0,
            warm_vector_cache=False,
        ),
        Workload(
            name="mcq-stepback",
            why=(
                "MCQ with step-back: 4 conjoined queries x 3 chains share one pool; "
                "embedding and reply caches start empty, so both take the write path"
            ),
            retrieval="precomputed-dense",
            highlighting=True,
            stepback=True,
            mcq=True,
            top_k=5,
            records=24,
            kb_passages=0,
            vocab_size=3000,
            sentences_per_passage=6,
            words_per_sentence=2,
            query_terms=3,
            answerable_share=1.0,
            warm_vector_cache=False,
        ),
    )
}


def make_vocabulary(rng: random.Random, size: int, exclude: frozenset[str] = frozenset()) -> list[str]:
    """`size` distinct pronounceable lowercase words of three syllables."""
    words: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(3))
        if word not in exclude:
            words.add(word)
    return sorted(words)


def sentence(words: list[str], stopword: str) -> str:
    """Capitalized sentence with a stopword after the first word."""
    text = " ".join([words[0], stopword, *words[1:]])
    return text[0].upper() + text[1:] + "."


class _Generator:
    def __init__(self, workload: Workload, seed: int):
        self.w = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.vocab = make_vocabulary(self.rng, workload.vocab_size)
        self.sentence_count = 0
        self.plants = 0

    def fillers(self, n: int, avoid: set[str]) -> list[str]:
        out: list[str] = []
        while len(out) < n:
            word = self.rng.choice(self.vocab)
            if word not in avoid and word not in out:
                out.append(word)
        return out

    def title(self, avoid: set[str]) -> str:
        return self.fillers(1, avoid)[0].capitalize()

    def stopword(self) -> str:
        self.sentence_count += 1
        return FILLER_STOPWORDS[self.sentence_count % len(FILLER_STOPWORDS)]

    def passage_sentences(self, avoid: set[str]) -> list[str]:
        out = []
        for _ in range(self.w.sentences_per_passage):
            words = self.fillers(self.w.words_per_sentence, avoid)
            if self.rng.random() < DECOY_SHARE:
                words[-1] = f"{words[-1]}{self.rng.randrange(10)}"
            out.append(sentence(words, self.stopword()))
        return out

    def plant(self, sentences_by_passage: list[list[str]], query: list[str], lead: str, avoid: set[str]) -> list[tuple[int, int]]:
        """Spread `query` over 2 or 3 gold sentences, alternately; the first also holds `lead`.

        Returns the (passage index, sentence index) of each gold sentence.
        """
        w = self.w
        self.plants += 1
        n_gold = min(len(query), 2 + self.plants % 2)
        slots = self.rng.sample(
            [(p, s) for p in range(len(sentences_by_passage)) for s in range(w.sentences_per_passage)],
            n_gold,
        )
        chunks = [query[i::n_gold] for i in range(n_gold)]
        for i, ((p, s), chunk) in enumerate(zip(slots, chunks)):
            words = list(chunk) + ([lead] if i == 0 else [])
            words += self.fillers(max(0, w.words_per_sentence - len(words)), avoid | set(words))
            self.rng.shuffle(words)
            sentences_by_passage[p][s] = sentence(words, self.stopword())
        return slots


def _unanswerable(i: int, share: float) -> bool:
    """True for exactly floor(n * share) of the first n records, for every n."""
    return int((i + 1) * share + 1e-9) > int(i * share + 1e-9)


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the fixtures of `workload` for `seed` into `out_dir`; return the manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    gen = _Generator(workload, seed)
    w = workload
    rng = gen.rng
    # Terms no passage contains: the query term that makes a record unanswerable.
    absent = make_vocabulary(rng, w.records, exclude=frozenset(gen.vocab))
    answers = [f"{word}{i % 10}" for i, word in enumerate(make_vocabulary(rng, w.records, frozenset(gen.vocab)))]

    kb: list[dict] = []
    results: list[dict] = []
    dataset: list[dict] = []
    gold_ids: dict[str, str] = {}
    # bm25: record i's gold passage; its query terms occur in no other passage.
    bm25_gold = sorted(rng.sample(range(w.kb_size), w.records)) if w.retrieval == "bm25" else []
    reserved: set[str] = set()
    queries: list[list[str]] = []
    leads: list[str] = []
    for i in range(w.records):
        query = gen.fillers(w.query_terms, reserved)
        queries.append(query)
        if w.retrieval == "bm25":
            reserved.update(query[:-1])  # the last query term stays common

    for i in range(w.records):
        qid = f"q{i:04d}"
        query = queries[i]
        avoid = set(query) | reserved
        task = "mcq" if w.mcq else ("factoid", "claim-verification")[i % 2]
        choices = None
        if task == "mcq":
            choice_words = gen.fillers(len(CHOICE_LABELS), avoid)
            choices = dict(zip(CHOICE_LABELS, choice_words))
            label = CHOICE_LABELS[rng.randrange(len(CHOICE_LABELS))]
            lead, gold = choices[label], [label]
            avoid |= set(choice_words)
        else:
            lead = rng.choice(("true", "false")) if task == "claim-verification" else answers[i]
            gold = [lead]
        leads.append(lead)

        question_terms = list(query)
        if _unanswerable(i, 1.0 - w.answerable_share):
            question_terms.append(absent[i])
        if task == "claim-verification":
            question = " ".join(question_terms).capitalize() + "."
        else:
            question = "What " + " ".join(question_terms) + "?"
        record = {"query_id": qid, "task": task, "question": question, "gold": gold}
        if choices:
            record["choices"] = choices
        dataset.append(record)

        if w.retrieval == "bm25":
            continue
        sentences = [gen.passage_sentences(avoid) for _ in range(w.top_k)]
        gold_slots = gen.plant(sentences, query, lead, avoid)
        if choices:  # each wrong choice appears in one distractor sentence
            free = [(p, s) for p in range(w.top_k) for s in range(w.sentences_per_passage) if (p, s) not in gold_slots]
            wrong = [word for word in choices.values() if word != lead]
            for word, (p, s) in zip(wrong, rng.sample(free, len(wrong))):
                sentences[p][s] = sentence([*gen.fillers(w.words_per_sentence - 1, avoid), word], gen.stopword())
        passages = []
        for k, sents in enumerate(sentences):
            pid = f"d{i:04d}-{k:02d}"
            passage = {"id": pid, "title": gen.title(reserved), "text": " ".join(sents)}
            kb.append(passage)
            passages.append({**passage, "source": "kb"})
        results.append({"query_id": qid, "passages": passages})

    if w.retrieval == "bm25":
        gold_of = dict(zip(bm25_gold, range(w.records)))
        for n in range(w.kb_size):
            sents = gen.passage_sentences(reserved)
            pid = f"p{n:05d}"
            if n in gold_of:
                i = gold_of[n]
                gen.plant([sents], queries[i], leads[i], reserved)
                gold_ids[dataset[i]["query_id"]] = pid
            kb.append({"id": pid, "title": gen.title(reserved), "text": " ".join(sents)})

    _write_jsonl(out_dir / "kb.jsonl", kb)
    _write_jsonl(out_dir / "dataset.jsonl", dataset)
    if results:
        _write_jsonl(out_dir / "results.jsonl", results)
    if w.warm_vector_cache:
        _prefill_vector_cache(out_dir, results, dataset)
    manifest = {
        "workload": asdict(w),
        "seed": seed,
        "files": sorted(p.name for p in out_dir.iterdir()),
        "bm25_gold": gold_ids,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _prefill_vector_cache(out_dir: Path, results: list[dict], dataset: list[dict]) -> None:
    """Leave the vector cache a previous run would leave: every term the records embed."""
    from ragmark.embeddings import ProviderConfig
    from ragmark.pipeline import build_queries, gather_vectors
    from ragmark.store import Passage, sentence_pool

    provider = ProviderConfig(cache_path=str(out_dir / "vectors.jsonl")).build()
    by_qid = {row["query_id"]: row["passages"] for row in results}
    for record in dataset:
        passages = [Passage(p["id"], p["title"], p["text"]) for p in by_qid[record["query_id"]]]
        gather_vectors(build_queries(record["question"], None, None), sentence_pool(passages), provider)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, help="directory holding the ragmark package")
    args = parser.parse_args(argv)
    if args.src is not None:
        sys.path.insert(0, str(args.src))
    generate(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
