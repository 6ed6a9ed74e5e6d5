"""Spatial indexing substrate.

The paper uses a kd-tree (or R-tree) to answer the range queries that
compute substitution neighborhoods ``B(q)`` for coordinate-based cost
functions (EDR, ERP), and the ERP-index baseline stores coordinate sums in
a kd-tree.  The kd-tree is implemented from scratch here.
"""

from repro.spatial.geometry import Point, euclidean, squared_euclidean
from repro.spatial.kdtree import KDTree

__all__ = [
    "KDTree",
    "Point",
    "euclidean",
    "squared_euclidean",
]
