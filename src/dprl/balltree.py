"""Ball tree for exact fixed-radius neighbor search.

Build strategy: recursively median-split the points along the dimension of
widest spread, stopping at leaves of at most 16 points.  Each
node stores the centroid of its points and the max distance to it, giving
the triangle-inequality pruning bound at query time.  Query results are
always identical to a linear scan (the final per-point distance test is the
same computation, and pruning includes a small slack so boundary points are
never lost to rounding).
"""

from __future__ import annotations

import numpy as np

_PRUNE_SLACK = 1e-12
_LEAF_SIZE = 16


class _Node:
    __slots__ = ("center", "radius", "left", "right", "indices")

    def __init__(self, center: np.ndarray, radius: float) -> None:
        self.center = center
        self.radius = radius
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.indices: np.ndarray | None = None


class BallTree:
    """Static Euclidean ball tree over an ``(n, d)`` point matrix."""

    def __init__(self, points: np.ndarray) -> None:
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-d array")
        n = self.points.shape[0]
        self.root = self._build(np.arange(n, dtype=np.int64)) if n else None

    def _build(self, indices: np.ndarray) -> _Node:
        pts = self.points[indices]
        center = pts.mean(axis=0)
        radius = float(np.sqrt(((pts - center) ** 2).sum(axis=1)).max())
        node = _Node(center=center, radius=radius)
        if len(indices) <= _LEAF_SIZE:
            node.indices = indices
            return node
        spread = pts.max(axis=0) - pts.min(axis=0)
        dim = int(np.argmax(spread))
        order = np.argsort(pts[:, dim], kind="stable")
        mid = len(indices) // 2
        node.left = self._build(indices[order[:mid]])
        node.right = self._build(indices[order[mid:]])
        return node

    def query_radius(self, query: np.ndarray, radius: float) -> np.ndarray:
        """All point indices within ``radius`` of ``query`` (inclusive), ascending."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        query = np.asarray(query, dtype=np.float64)
        if self.root is None:
            return np.empty(0, dtype=np.int64)
        hits: list[np.ndarray] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            gap = float(np.sqrt(((query - node.center) ** 2).sum()))
            if gap - node.radius > radius + _PRUNE_SLACK:
                continue
            if node.indices is not None:
                pts = self.points[node.indices]
                dist = np.sqrt(((pts - query) ** 2).sum(axis=1))
                hits.append(node.indices[dist <= radius])
            else:
                stack.append(node.left)
                stack.append(node.right)
        if not hits:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(hits))
