"""Why-not provenance: explaining *missing* query answers
(§3, "Explanations in Databases" [49, 55]-adjacent; the picky-operator
method of Chapman & Jagadish).

"Why is tuple t not in the result?" is answered by replaying the query
pipeline and finding the operator at which t's lineage disappears — the
*picky* operator. A query here is an explicit sequence of named
operators over a :class:`Relation`; the tracer follows the candidate
tuples (those matching the user's description in the *input*) through
each stage and reports where each was eliminated and why (filtered out,
failed to join, projected away from the description).

Candidate discovery goes through
:func:`repro.db.planner.matching_indices`, so structured candidate
predicates hit the relation's indexes. Per-stage survival is the union
of the stage's lineage annotations, built once per stage: one pass over
the output answers every candidate's membership question, which is
cheaper than interval-encoding the stage to answer the same question.
:func:`legacy_why_not` keeps the full-scan candidate discovery as the
differential-test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .planner import matching_indices
from .provenance import LineageSemiring
from .relation import Relation

__all__ = ["QueryStep", "WhyNotResult", "why_not", "legacy_why_not"]


@dataclass
class QueryStep:
    """One named operator: ``apply(relation) -> relation``."""

    name: str
    apply: Callable[[Relation], Relation]

    @staticmethod
    def select(name: str, predicate) -> "QueryStep":
        return QueryStep(name, lambda r: r.select(predicate))

    @staticmethod
    def project(name: str, columns: list[str]) -> "QueryStep":
        return QueryStep(name, lambda r: r.project(columns))

    @staticmethod
    def join(name: str, other: Relation) -> "QueryStep":
        return QueryStep(name, lambda r: r.join(other))


@dataclass
class WhyNotResult:
    """Explanation for one missing candidate tuple."""

    candidate_index: int
    candidate: tuple
    picky_step: str | None
    detail: str

    def __str__(self) -> str:
        if self.picky_step is None:
            return (f"tuple {self.candidate} survives the whole query "
                    f"({self.detail})")
        return (f"tuple {self.candidate} was eliminated by "
                f"{self.picky_step!r}: {self.detail}")


def _tracked(relation: Relation) -> Relation:
    """Re-annotate with lineage so tuple survival is a set membership."""
    semiring = LineageSemiring()
    return Relation(
        relation.columns,
        relation.rows,
        semiring,
        [semiring.tag(i) for i in range(len(relation))],
        relation.name,
    )


def _trace(
    source: Relation,
    steps: list[QueryStep],
    candidates: list[int],
) -> list[WhyNotResult]:
    """Replay the pipeline, attributing each candidate's elimination."""
    current = _tracked(source)
    alive: dict[int, bool] = {i: True for i in candidates}
    results: dict[int, WhyNotResult] = {}
    for step in steps:
        nxt = step.apply(current)
        surviving: set[int] = set()
        for annotation in nxt.annotations:
            if annotation:
                surviving |= set(annotation)
        for i in candidates:
            if alive[i] and i not in surviving:
                alive[i] = False
                results[i] = WhyNotResult(
                    candidate_index=i,
                    candidate=source.rows[i],
                    picky_step=step.name,
                    detail=f"lineage lost at operator {step.name!r} "
                           f"({len(current)} -> {len(nxt)} tuples)",
                )
        current = nxt
    for i in candidates:
        if alive[i]:
            results[i] = WhyNotResult(
                candidate_index=i,
                candidate=source.rows[i],
                picky_step=None,
                detail="its lineage reaches the final result",
            )
    return [results[i] for i in candidates]


def why_not(
    source: Relation,
    steps: list[QueryStep],
    candidate_predicate: Callable[[dict], bool],
) -> list[WhyNotResult]:
    """Trace why source tuples matching a description miss the output.

    Parameters
    ----------
    source:
        The query's input relation.
    steps:
        The operator pipeline, applied in order.
    candidate_predicate:
        Describes the expected-but-missing answer in terms of the
        *source* schema — a plain callable, or a structured
        :class:`repro.db.planner.Predicate` served by the source's
        indexes.

    Returns
    -------
    One :class:`WhyNotResult` per matching source tuple: the first
    operator whose output no longer carries the tuple's lineage, or a
    note that the tuple actually survives (the answer isn't missing).
    """
    candidates = matching_indices(source, candidate_predicate)
    if not candidates:
        raise ValueError("no source tuple matches the candidate description")
    return _trace(source, steps, candidates)


def legacy_why_not(
    source: Relation,
    steps: list[QueryStep],
    candidate_predicate: Callable[[dict], bool],
) -> list[WhyNotResult]:
    """The pre-index candidate discovery — the differential-test oracle.

    Candidates come from a scan of every source row instead of the
    planner; the trace is shared. Must agree with :func:`why_not`
    exactly.
    """
    candidates = [
        i for i, row in enumerate(source.rows)
        if candidate_predicate(dict(zip(source.columns, row)))
    ]
    if not candidates:
        raise ValueError("no source tuple matches the candidate description")
    return _trace(source, steps, candidates)
