"""Synthetic multi-view datasets where a chosen kernel combination carries the signal.

Each view places its points into tight, well-separated 2-d clusters, so the
Gaussian kernel of a view is close to a same-cluster indicator.  How the class
depends on the (cluster-in-view-1, cluster-in-view-2) cell then controls which
kernel combination can classify:

- xor_views: class = (u + v) mod n_classes.  No additive function of the two
  cluster ids matches any class pair, so each single kernel and their sum stay
  near chance while the entrywise product separates perfectly.
- or_views: class = u or v.  An additive function does separate, so the sum
  kernel works while each single kernel is stuck on the mixed cluster.
"""

from __future__ import annotations

import numpy as np

from .gram import KernelBank, build_bank
from .rng import derived_rng


def cluster_points(assignments, n_clusters: int, noise: float, rng, radius: float = 10.0) -> np.ndarray:
    """2-d points around cluster centers spread on a circle."""
    assignments = np.asarray(assignments, dtype=int)
    angles = 2.0 * np.pi * np.arange(n_clusters) / n_clusters
    centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return centers[assignments] + noise * rng.standard_normal((assignments.size, 2))


def _cell_views(cells_by_class, n_clusters: int, n_per_class: int, noise: float, rng):
    """Two views and the labels: point p of class c lies in cell (u, v) =
    cells_by_class[c][p % len(cells)], around cluster u in view 1 and v in view 2."""
    cells = [cells[p % len(cells)] for cells in cells_by_class for p in range(n_per_class)]
    views = [cluster_points([cell[k] for cell in cells], n_clusters, noise, rng) for k in (0, 1)]
    return views, np.repeat(np.arange(len(cells_by_class)), n_per_class)


def xor_views(
    n_per_class: int = 60, n_classes: int = 3, noise: float = 0.05, seed: int = 0
) -> tuple[list[np.ndarray], np.ndarray]:
    """Two views with class = (u + v) mod n_classes over the cluster ids."""
    cells = [[(u, (c - u) % n_classes) for u in range(n_classes)] for c in range(n_classes)]
    return _cell_views(cells, n_classes, n_per_class, noise, derived_rng(seed, "xor"))


def or_views(n_per_class: int = 24, noise: float = 0.05, seed: int = 0) -> tuple[list[np.ndarray], np.ndarray]:
    """Two binary views with class = u or v (additively separable)."""
    cells = [[(0, 0)], [(0, 1), (1, 0), (1, 1)]]
    return _cell_views(cells, 2, n_per_class, noise, derived_rng(seed, "or"))


def _bank(views_and_labels) -> tuple[KernelBank, np.ndarray]:
    views, labels = views_and_labels
    bank, _ = build_bank(views, names=["view1", "view2"])
    return bank, labels


def xor_bank(
    n_per_class: int = 60, n_classes: int = 3, noise: float = 0.05, seed: int = 0
) -> tuple[KernelBank, np.ndarray]:
    return _bank(xor_views(n_per_class, n_classes, noise, seed))


def or_bank(n_per_class: int = 24, noise: float = 0.05, seed: int = 0) -> tuple[KernelBank, np.ndarray]:
    return _bank(or_views(n_per_class, noise, seed))
