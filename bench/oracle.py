"""Output checks computed by the benchmark itself, apart from the program.

Each check returns a list of human-readable faults; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

# the program and the oracle add the same terms, in another order
NMI_RTOL = 1e-9


def recall_oracle(z: np.ndarray, labels: np.ndarray, ks) -> dict[int, float]:
    """Brute-force Recall@K: one query at a time, explicit distances, the
    query itself excluded, ties broken by ascending sample index."""
    n = z.shape[0]
    hits = {int(k): 0 for k in ks}
    for q in range(n):
        d = np.sqrt(((z - z[q]) ** 2).sum(axis=1))
        d[q] = np.inf
        order = np.argsort(d, kind="stable")
        same = labels[order] == labels[q]
        for k in hits:
            hits[k] += bool(same[:k].any())
    return {k: hits[k] / n for k in hits}


def nmi_oracle(assignment, labels) -> float:
    """NMI with arithmetic-mean normalisation from a contingency table built here."""
    table: dict[tuple[int, int], int] = {}
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for a, b in zip(np.asarray(assignment).tolist(), np.asarray(labels).tolist()):
        table[(a, b)] = table.get((a, b), 0) + 1
        rows[a] = rows.get(a, 0) + 1
        cols[b] = cols.get(b, 0) + 1
    n = len(assignment)
    mi = sum(c / n * math.log(c * n / (rows[a] * cols[b])) for (a, b), c in table.items())
    h_rows = -sum(c / n * math.log(c / n) for c in rows.values())
    h_cols = -sum(c / n * math.log(c / n) for c in cols.values())
    if h_rows == 0.0 and h_cols == 0.0:
        return 1.0
    return max(mi, 0.0) / ((h_rows + h_cols) / 2.0)


def check_report(report: dict, oracle: dict[int, float], labels: np.ndarray, assignment, where: str) -> list[str]:
    """A metrics dict (`EvalReport.to_dict()` or metrics.json) against the
    `recall_oracle` result and the NMI of the k-means assignment."""
    faults = []
    recall = {int(k): float(v) for k, v in report["recall"].items()}
    ks = sorted(recall)
    values = [recall[k] for k in ks]
    if any(not (0.0 <= v <= 1.0) for v in values):
        faults.append(f"{where}: Recall@K outside [0, 1]: {recall}")
    if any(b < a for a, b in zip(values, values[1:])):
        faults.append(f"{where}: Recall@K decreases as K grows: {recall}")
    for k in ks:
        if abs(oracle[k] - recall[k]) > 1e-12:
            faults.append(f"{where}: Recall@{k} is {recall[k]}, oracle gives {oracle[k]}")
    expected_nmi = nmi_oracle(assignment, labels)
    if not math.isclose(report["nmi"], expected_nmi, rel_tol=NMI_RTOL, abs_tol=1e-12):
        faults.append(f"{where}: NMI is {report['nmi']}, oracle gives {expected_nmi}")
    if report["num_test_points"] != len(labels) or report["num_test_classes"] != len(np.unique(labels)):
        faults.append(f"{where}: report counts {report['num_test_points']} points / {report['num_test_classes']} classes")
    return faults


def check_split(train_classes, test_classes, evaluated_labels, where: str) -> list[str]:
    """Evaluated points come from test classes only, and those are disjoint from training."""
    train = set(np.asarray(train_classes).tolist())
    test = set(np.asarray(test_classes).tolist())
    seen = set(np.unique(evaluated_labels).tolist())
    faults = []
    if train & test:
        faults.append(f"{where}: split shares classes {sorted(train & test)}")
    if seen & train:
        faults.append(f"{where}: evaluated on training classes {sorted(seen & train)}")
    if not seen <= test:
        faults.append(f"{where}: evaluated classes {sorted(seen - test)} are not test classes")
    return faults


def check_curves(rows, where: str) -> list[str]:
    """rows: (j_m, j_syn, j_gen, j_recon, j_soft, weight_w, lambda_interp) per step."""
    faults = []
    for i, row in enumerate(rows):
        if not all(math.isfinite(v) for v in row):
            faults.append(f"{where}: step {i} has a non-finite curve value {row}")
        w, lam = row[5], row[6]
        if not (0.0 < lam <= 1.0):
            faults.append(f"{where}: step {i} has lambda {lam} outside (0, 1]")
        if not (0.0 <= w <= 1.0):
            faults.append(f"{where}: step {i} has w {w} outside [0, 1]")
        if len(faults) >= 5:
            break
    return faults


def check_batches(offered: int, expected: int, completed: int, skipped: int, where: str) -> list[str]:
    """Batches offered (counted here, and derived from the sizes) equal completed plus skipped."""
    if offered == expected == completed + skipped:
        return []
    return [f"{where}: {offered} batches offered, {expected} expected, {completed} completed + {skipped} skipped"]
