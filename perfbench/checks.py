"""Correctness checks on the program's outputs, run after the timed region.

Each check returns a list of error strings (empty when the output is
correct); they compare against the oracle or against a property the method
must have, never against a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

ROW_OK = "ok"
# Largest gap accepted between a returned score and the benchmark's own inner product.
SCORE_TOL = 1e-9
# Relative slack on utility totals compared across report rows.
TOTAL_REL_TOL = 1e-6
# Lowest MIPS recall@10 accepted on the online queries of `search`; measured values
# lie near 0.9, so only a broken index or re-scoring falls below it.
MIPS_FLOOR = 0.5


def check_topk_list(label, found, known: set, k: int) -> list[str]:
    """At most k distinct known ids, scores descending."""
    errors = []
    ids = [c for c, _ in found]
    scores = [s for _, s in found]
    if len(found) > k:
        errors.append(f"{label}: {len(found)} matches, more than k={k}")
    if len(set(ids)) != len(ids):
        errors.append(f"{label}: repeated match ids {ids}")
    if not known.issuperset(ids):
        errors.append(f"{label}: unknown match ids {sorted(set(ids) - known)}")
    if any(b > a for a, b in zip(scores, scores[1:])):
        errors.append(f"{label}: scores not descending {scores}")
    return errors


def check_search(matches: dict, pool_ids, k: int) -> list[str]:
    """Batch search: every pool ride gets a valid top-k list without itself."""
    errors = []
    known = set(pool_ids)
    missing = known - set(matches)
    if missing:
        errors.append(f"{len(missing)} rides got no match list")
    for rid, found in matches.items():
        errors += check_topk_list(f"ride {rid}", found, known, k)
        if rid in {c for c, _ in found}:
            errors.append(f"ride {rid}: matched with itself")
    return errors


def mips_topk(pmat: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Row positions of the k largest inner products, ties by position."""
    scores = pmat @ q
    return np.lexsort((np.arange(len(scores)), -scores))[:k]


def check_online(single, batch, pmat, qmat, ids, k: int):
    """Single queries against the benchmark's own transformed vectors.

    single[i] and batch[i] are the (id, score) lists that `query` and
    `query_batch` returned for row i of qmat; pmat holds the data vectors
    indexed, in the order of `ids`. Returns (errors, MIPS recall@k).
    """
    known = set(ids)
    errors = [e for i, found in enumerate(single) for e in check_topk_list(f"arrival {i}", found, known, k)]
    row_of = {rid: r for r, rid in enumerate(ids)}
    recalls = []
    for i, (one, many) in enumerate(zip(single, batch)):
        for rid, score in one:
            exact = float(pmat[row_of[rid]] @ qmat[i])
            if abs(score - exact) > SCORE_TOL:
                errors.append(f"arrival {i}: score {score} for ride {rid}, inner product {exact}")
        if [r for r, _ in one] != [r for r, _ in many] or any(
            abs(a - b) > SCORE_TOL for (_, a), (_, b) in zip(one, many)
        ):
            errors.append(f"arrival {i}: query {one} differs from query_batch {many}")
        exact_ids = [ids[r] for r in mips_topk(pmat, qmat[i], k)]
        recalls.append(len(set(exact_ids) & {r for r, _ in one}) / len(exact_ids))
    mips_recall = float(np.mean(recalls)) if recalls else 0.0
    if mips_recall < MIPS_FLOOR:
        errors.append(f"MIPS recall@{k} {mips_recall:.3f} below the floor {MIPS_FLOOR}")
    return errors, mips_recall


def failed_rows(exit_code: int, report: dict | None, expected_rows: int) -> int:
    """Report rows that failed: all of them when the run itself failed."""
    if exit_code != 0 or report is None:
        return expected_rows
    rows = report["rows"]
    return expected_rows - len(rows) + sum(r["status"] != ROW_OK for r in rows)


def check_rows(exit_code: int, report: dict | None, expected_rows: int) -> list[str]:
    """One `match-bench run` exited 0 and wrote every row, each with status ok."""
    if exit_code != 0 or report is None:
        return [f"match-bench run exited with code {exit_code}"]
    rows = report["rows"]
    errors = [f"load {r['load']} {r['approach']}: status {r['status']!r}" for r in rows if r["status"] != ROW_OK]
    if len(rows) != expected_rows:
        errors.append(f"{len(rows)} report rows, expected {expected_rows}")
    return errors


def check_experiment(report: dict, n_written: int, greedy_full: float) -> list[str]:
    """Properties of one `match-bench run` report; `check_rows` flags the rows that failed.

    greedy_full is the oracle's greedy matching total over every ride, which
    bounds the optimum at load 1.0 from both sides.
    """
    errors = []
    meta, rows = report["meta"], [r for r in report["rows"] if r["status"] == ROW_OK]
    if meta["n_rides_full"] != n_written:
        errors.append(f"n_rides_full {meta['n_rides_full']} != {n_written} rides written")
    for r in rows:
        want = r["n_rides"] + 6 * r["evaluated_pairs"]
        if r["routing_calls"] != want:
            errors.append(
                f"load {r['load']} {r['approach']}: routing_calls {r['routing_calls']} != "
                f"n_rides + 6 * evaluated_pairs = {want}"
            )
    for load in sorted({r["load"] for r in rows}):
        at_load = {r["approach"]: r["total_utility_s"] for r in rows if r["load"] == load}
        best = at_load.get("optimal")
        if best is None:
            continue
        for approach, total in at_load.items():
            if total > best * (1.0 + TOTAL_REL_TOL):
                errors.append(f"load {load}: {approach} total {total} above the optimal {best}")
        low, high = greedy_full * (1.0 - TOTAL_REL_TOL), 2.0 * greedy_full * (1.0 + TOTAL_REL_TOL)
        if load == 1.0 and not low <= best <= high:
            errors.append(f"load 1.0: optimal {best} outside [greedy, 2 * greedy], greedy {greedy_full}")
    return errors


def row_value(report: dict, load: float, approach: str, column: str):
    for r in report["rows"]:
        if r["load"] == load and r["approach"] == approach and r["status"] == ROW_OK:
            return r[column]
    return None
