"""Full-scan relational checks: the oracles for the index-served paths.

Functional-dependency checks and complaint scopes read the relation's
hash index and the planner's access paths. Before that they scanned
every row. These scans are what the index-served answers must equal.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


def legacy_violations(fd, relation) -> int:
    """Full-scan count of unordered tuple pairs violating ``fd``."""
    lhs_idx = [relation._col(c) for c in fd.lhs]
    rhs_idx = [relation._col(c) for c in fd.rhs]
    groups: dict[tuple, dict[tuple, int]] = defaultdict(
        lambda: defaultdict(int)
    )
    for row in relation.rows:
        key = tuple(row[i] for i in lhs_idx)
        value = tuple(row[i] for i in rhs_idx)
        groups[key][value] += 1
    total = 0
    for value_counts in groups.values():
        counts = list(value_counts.values())
        group_size = sum(counts)
        same = sum(c * (c - 1) // 2 for c in counts)
        total += group_size * (group_size - 1) // 2 - same
    return total


def legacy_violating_tuples(fd, relation) -> set[int]:
    """Full-scan set of tuple indices in at least one ``fd`` violation."""
    lhs_idx = [relation._col(c) for c in fd.lhs]
    rhs_idx = [relation._col(c) for c in fd.rhs]
    by_key: dict[tuple, list[int]] = defaultdict(list)
    for i, row in enumerate(relation.rows):
        by_key[tuple(row[j] for j in lhs_idx)].append(i)
    out: set[int] = set()
    for members in by_key.values():
        distinct = {tuple(relation.rows[i][j] for j in rhs_idx)
                    for i in members}
        if len(distinct) > 1:
            out.update(members)
    return out


def legacy_scope_from_relation(relation, predicate) -> np.ndarray:
    """Full-scan boolean scope mask of ``predicate`` over ``relation``."""
    mask = np.zeros(len(relation), dtype=bool)
    for i, row in enumerate(relation.rows):
        mask[i] = bool(predicate(dict(zip(relation.columns, row))))
    return mask
