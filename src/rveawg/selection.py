"""Reference-vector guided selection: translation, partition, angle-penalized distance, elitism."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import EvaluationError
from .refvec import _min_angles

# RVEA's rate of the angle penalty's growth over the run (Cheng et al. 2016).
ALPHA = 2.0


@dataclass
class SelectionResult:
    selected_indices: np.ndarray  # row indices into the input objectives, by partition order


def translate(objectives) -> np.ndarray:
    """The (P, M) objective rows minus their column-wise minimum, all
    components >= 0."""
    rows = np.asarray(objectives, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0:
        raise EvaluationError("translation needs a non-empty (P, M) objective array")
    return rows - rows.min(axis=0)


def partition(rows: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign each translated row to the unit reference vector with maximal cosine.

    Returns (assignment, cosines, norms), all (P,): the index of the closest
    vector, the cosine to it and the row's Euclidean norm. Ties go to the
    lowest vector index; rows at the ideal point (zero norm) go to vector 0
    with cosine 1.
    """
    norms = np.linalg.norm(rows, axis=1)
    cos = np.zeros((rows.shape[0], len(vectors)))
    nz = norms > 0.0
    if np.any(nz):
        cos[nz] = (rows[nz] @ vectors.T) / norms[nz, None]
    assignment = np.argmax(cos, axis=1)
    best = cos[np.arange(rows.shape[0]), assignment]
    assignment[~nz] = 0
    best[~nz] = 1.0
    return assignment, best, norms


def apd_partitions(objectives: np.ndarray, vectors: np.ndarray, t: int, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Each objective row's partition (as ``partition`` assigns it) and its
    angle-penalized distance at generation t of t_max, both (P,)."""
    rows = translate(objectives)
    assignment, cosines, norms = partition(rows, vectors)
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))
    scale = vectors.shape[1] * (t / t_max) ** ALPHA
    return assignment, (1.0 + scale * angles / _min_angles(vectors)[assignment]) * norms


def elitism_select(objectives: np.ndarray, vectors: np.ndarray, t: int, t_max: int) -> SelectionResult:
    """Keep the minimum-APD row of a (P, M) objective matrix in every non-empty
    partition of the (N, M) unit reference vectors.

    APD ties resolve to the lowest row index. Empty partitions are skipped,
    so the output may be smaller than the vector count.
    """
    assignment, distances = apd_partitions(objectives, vectors, t, t_max)
    # Sort by partition, then APD; lexsort is stable, so equal APDs keep row
    # order, and the first row of each partition is its survivor.
    order = np.lexsort((distances, assignment))
    _, first = np.unique(assignment[order], return_index=True)
    return SelectionResult(selected_indices=order[first])
