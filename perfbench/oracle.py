"""Independent reference for evidence selection, used by the correctness gate.

It re-derives which sentences `select_evidence` must tag, from the same
queries, sentence pool and term vectors, with MaxSim scores taken from one
cosine matrix instead of pairwise `cosine()` calls. The chain rules (seed
rank, remainder re-querying, ambiguity expansion, termination order and the
(score desc, pool position asc) tie-break) are restated here, so a change to
the program's scoring or chain code that alters the output is caught on any
seed, not only on seeds with stored digests.
"""

from __future__ import annotations

import numpy as np

from ragmark.retriever import RetrieverParams
from ragmark.text import content_surfaces


def evidence_texts(queries, passages, pool, vectors, params: RetrieverParams) -> list[str]:
    """Texts of the sentences the chains select, in pool order."""
    surfaces = sorted(vectors)
    index = {s: i for i, s in enumerate(surfaces)}
    matrix = np.array([vectors[s].values for s in surfaces], dtype=np.float64)
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    sim = np.clip(matrix @ matrix.T, -1.0, 1.0)
    columns = [np.array([index[s] for s in sorted(content_surfaces(span))], dtype=np.intp) for span in pool]

    def best(surface: str, cols: np.ndarray) -> float:
        return max(0.0, float(sim[index[surface], cols].max())) if len(cols) else 0.0

    def score(terms: list[str], pos: int) -> float:
        per_term = {s: best(s, columns[pos]) for s in set(terms)}
        return sum(per_term[s] for s in terms)

    def remainder(query: set[str], selected: list[int]) -> set[str]:
        covered_surfaces = set().union(*(content_surfaces(pool[p]) for p in selected))
        cols = np.array(sorted(index[s] for s in covered_surfaces), dtype=np.intp)
        return {
            q for q in query
            if q not in covered_surfaces and not (len(cols) and sim[index[q], cols].max() > params.m_threshold)
        }

    def chain(terms: list[str], first_rank: int) -> list[int]:
        query = set(terms)
        remaining = list(range(len(pool)))
        ranked = sorted(remaining, key=lambda p: (-score(terms, p), p))
        selected = [ranked[min(first_rank, len(ranked)) - 1]]
        remaining.remove(selected[0])
        left = remainder(query, selected)
        while left and len(selected) < params.k_max_hops and remaining:
            working = set(left)
            if len(left) < params.t_ambiguity:
                for p in selected:
                    working |= content_surfaces(pool[p])
            working_terms = sorted(working)
            pick = min(remaining, key=lambda p: (-score(working_terms, p), p))
            selected.append(pick)
            remaining.remove(pick)
            left = remainder(query, selected)
        return selected

    chosen: set[int] = set()
    for q in queries:
        terms = [t.surface for t in q.terms]
        if terms:
            for rank in range(1, min(params.n_parallel, len(pool)) + 1):
                chosen.update(chain(terms, rank))
    texts = {p.id: p.text for p in passages}
    return [texts[pool[p].passage_id][pool[p].start : pool[p].end] for p in sorted(chosen)]
