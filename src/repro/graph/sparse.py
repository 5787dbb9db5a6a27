"""Sparse-matrix fast paths for large graphs.

The paper's *full* real datasets are much larger than the ~1000-node
samples it evaluates on (Blogcatalog alone has 88 800 nodes and 2.1M
edges).  The dense O(n²)-memory pipeline used everywhere else is ideal at
evaluation scale, but pre-processing the full graphs — scoring every node
to pick the sampled subgraph's anomalies — needs sparse arithmetic.  This
module provides scipy.sparse implementations of the two hot kernels:

* egonet features ``(N, E)`` for every node, and
* OddBall Eq. 3 scores,

verified bit-for-bit against the dense implementations in the tests.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
from scipy import sparse

from repro import telemetry as _telemetry
from repro.graph.graph import Graph
from repro.oddball.regression import fit_power_law
from repro.oddball.scores import score_from_features

__all__ = [
    "SparseGraphView",
    "egonet_features_sparse",
    "anomaly_scores_sparse",
    "content_digest",
    "to_sparse",
]


def to_sparse(graph: "Graph | np.ndarray | sparse.spmatrix") -> sparse.csr_matrix:
    """Coerce a graph/adjacency into a validated CSR matrix.

    Validation mirrors :func:`repro.utils.validation.check_adjacency`:
    square, symmetric, binary, zero diagonal.

    Matrices this function has already validated are tagged and returned
    as-is on re-entry ("validate once"): an attack campaign threads the
    same clean CSR through hundreds of jobs, and the O(m) symmetry check
    per touch-point was a measurable per-job fixed cost.  The tag does not
    survive scipy copies/arithmetic, so derived matrices are re-validated;
    only in-place mutation of a validated matrix's ``data`` could fool it.
    """
    if isinstance(graph, Graph):
        matrix = sparse.csr_matrix(graph.adjacency_view)
    elif hasattr(graph, "adjacency_csr"):
        # Store-backed graphs (repro.store.GraphStore) and the incremental
        # feature engine expose their CSR through ``adjacency_csr()``.  A
        # GraphStore's CSR arrives pre-tagged validated, so for the mmap
        # path this recursion is zero-copy.
        return to_sparse(graph.adjacency_csr())
    elif sparse.issparse(graph):
        if getattr(graph, "_repro_validated", False) and sparse.isspmatrix_csr(graph):
            return graph
        matrix = graph.tocsr().astype(np.float64)  # astype copies, so
        # eliminate_zeros below never mutates the caller's matrix
    else:
        matrix = sparse.csr_matrix(np.asarray(graph, dtype=np.float64))
    # CSR matrices may carry stored explicit zeros (e.g. after ``setdiag(0)``
    # or arithmetic); they are valid zero entries, so drop them before the
    # binary-values check instead of rejecting the matrix.
    matrix.eliminate_zeros()
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"adjacency must be square, got {matrix.shape}")
    if (matrix != matrix.T).nnz != 0:
        raise ValueError("adjacency must be symmetric")
    if matrix.nnz and not np.all(matrix.data == 1.0):
        raise ValueError("adjacency must be binary")
    if matrix.diagonal().sum() != 0.0:
        raise ValueError("adjacency must have a zero diagonal")
    matrix._repro_validated = True
    return matrix


#: Index entries cast to int64 per hash update in :func:`content_digest`.
_DIGEST_CHUNK = 1 << 20


def content_digest(adjacency) -> str:
    """SHA-1 hex digest of an adjacency's content: the graph's identity.

    A sparse matrix hashes its coo ``row`` then ``col`` arrays cast to
    little-endian int64, so int32- and int64-indexed copies of one graph
    agree; the casts run in fixed-size chunks, so hashing costs no more
    than one chunk on top of the coo row array.  A dense array hashes its
    bytes.  :func:`repro.store.build_store` records this digest in the
    store manifest, and the store's CSR carries it as
    ``_repro_fingerprint`` so campaigns never re-hash a mapped graph.
    """
    digest = hashlib.sha1()
    if sparse.issparse(adjacency):
        coo = adjacency.tocoo()
        for index in (coo.row, coo.col):
            for start in range(0, index.size, _DIGEST_CHUNK):
                chunk = index[start : start + _DIGEST_CHUNK]
                digest.update(np.ascontiguousarray(chunk, dtype="<i8"))
    else:
        digest.update(np.ascontiguousarray(adjacency))
    return digest.hexdigest()


#: Intermediate-product entries allowed per row block of the chunked
#: triangle computation (~a few hundred MB of scipy spgemm scratch).
_TRIANGLE_FILL_BUDGET = 20_000_000


def egonet_features_sparse(
    adjacency, kernels: str = "auto"
) -> tuple[np.ndarray, np.ndarray]:
    """(N, E) for every node using sparse arithmetic.

    ``N_i = Σ_j A_ij`` and ``E_i = N_i + ½ diag(A³)``; the triangle term is
    the row-sum of ``(A @ A) ⊙ A``, evaluated without densifying — the
    elementwise mask keeps only entries where an edge exists.

    With the compiled kernel backend (``kernels``, see
    :mod:`repro.kernels`) the triangle term is one C pass of sorted-row
    intersections — no sparse-product scratch at all.  The numpy path
    computes the product in **row blocks of bounded fill**: scipy
    materialises the full ``A[R] @ A`` before the mask, and its fill —
    exactly ``Σ_{u∈R} Σ_{v∈Γ(u)} deg(v)``, known up front from one
    ``A @ deg`` mat-vec — reaches gigabytes on heavy-tailed graphs (a
    Blogcatalog-scale hub's row alone contributes millions of entries).
    Each row's result is independent, so blocking changes peak memory
    only.  Triangle counts are integers, so both paths return features
    bit-identical to the one-shot product (the equivalence tests pin this
    against the dense kernel and across kernel backends).
    """
    from repro.kernels import kernel_table, resolve_kernels

    matrix = to_sparse(adjacency)
    n = matrix.shape[0]
    n_feature = np.asarray(matrix.sum(axis=1)).ravel()
    tracer = _telemetry.active_tracer()
    start_ns = time.perf_counter_ns() if tracer is not None else 0
    if resolve_kernels(kernels) == "compiled" and matrix.has_sorted_indices:
        triangles = kernel_table().triangle_counts(matrix)
        if tracer is not None:
            tracer.count("kernels.triangle_counts", 1,
                         time.perf_counter_ns() - start_ns)
        return n_feature, n_feature + 0.5 * triangles
    triangles = np.empty(n, dtype=np.float64)
    # cumulative projected fill per row prefix; block boundaries are one
    # searchsorted each, so chunking adds O(m + n log n) bookkeeping total
    cumulative_fill = np.cumsum(matrix @ n_feature)
    start = 0
    while start < n:
        already = cumulative_fill[start - 1] if start else 0.0
        stop = int(
            np.searchsorted(
                cumulative_fill, already + _TRIANGLE_FILL_BUDGET, side="right"
            )
        )
        stop = min(max(stop, start + 1), n)
        block = matrix[start:stop]
        two_paths = (block @ matrix).multiply(block)
        triangles[start:stop] = np.asarray(two_paths.sum(axis=1)).ravel()
        start = stop
    if tracer is not None:
        tracer.count("kernels.triangle_counts", 1,
                     time.perf_counter_ns() - start_ns)
    e_feature = n_feature + 0.5 * triangles
    return n_feature, e_feature


def anomaly_scores_sparse(adjacency) -> np.ndarray:
    """OddBall Eq. 3 scores via the sparse kernels (OLS fit included)."""
    n_feature, e_feature = egonet_features_sparse(adjacency)
    fit = fit_power_law(n_feature, e_feature)
    return score_from_features(n_feature, e_feature, fit)


class SparseGraphView:
    """Read-only, :class:`Graph`-like facade over a validated CSR adjacency.

    :class:`Graph` is deliberately dense-backed (every dense algorithm
    consumes its adjacency directly), which made it the wrong return type
    for poisoned graphs coming out of *sparse* attack runs — wrapping a
    Blogcatalog-scale result in a Graph would densify 88 800² floats just
    to answer degree queries.  This view mirrors Graph's query surface
    (node/edge counts, degrees, neighbours, edge membership, edge
    iteration) over the CSR without densifying, and exposes the matrix
    through :meth:`adjacency_csr` — the duck-typing hook every
    sparse-aware consumer (``to_sparse``, the engines, OddBall's sparse
    scorer) already dispatches on, so a view drops into those pipelines
    unchanged.

    Mutation is deliberately not offered: views wrap attack artefacts,
    which are evidence.  :meth:`to_graph` is the one explicit densify
    escape hatch, for small graphs that need the dense API.
    """

    def __init__(self, adjacency: "sparse.spmatrix | np.ndarray"):
        self._csr = to_sparse(adjacency)
        if not self._csr.has_sorted_indices:
            self._csr = self._csr.copy()
            self._csr.sort_indices()

    # ------------------------------------------------------------------ #
    # Representation hooks
    # ------------------------------------------------------------------ #
    def adjacency_csr(self) -> sparse.csr_matrix:
        """The validated CSR adjacency (shared, treat as read-only)."""
        return self._csr

    def to_graph(self) -> Graph:
        """Densify into a :class:`Graph` (small graphs only — O(n²))."""
        # repro: allow-densify(the explicit, documented escape hatch to the dense Graph API)
        return Graph(self._csr.toarray())

    # ------------------------------------------------------------------ #
    # Graph-mirroring queries
    # ------------------------------------------------------------------ #
    @property
    def number_of_nodes(self) -> int:
        """Node count."""
        return int(self._csr.shape[0])

    @property
    def number_of_edges(self) -> int:
        """Undirected edge count (the matrix is symmetric and binary)."""
        return int(self._csr.nnz) // 2

    def degrees(self) -> np.ndarray:
        """Degree of every node."""
        return np.diff(self._csr.indptr).astype(np.float64)

    def degree(self, node: int) -> int:
        """Degree of a single node."""
        self._check_node(node)
        indptr = self._csr.indptr
        return int(indptr[node + 1] - indptr[node])

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted array of the node's neighbours (a copy)."""
        self._check_node(node)
        indptr = self._csr.indptr
        return np.array(self._csr.indices[indptr[node] : indptr[node + 1]])

    def has_edge(self, u: int, v: int) -> bool:
        """Edge membership via binary search of ``u``'s CSR row."""
        self._check_node(u)
        self._check_node(v)
        indptr = self._csr.indptr
        row = self._csr.indices[indptr[u] : indptr[u + 1]]
        position = np.searchsorted(row, v)
        return bool(position < row.size and row[position] == v)

    def edges(self):
        """Iterate over edges as (u, v) with u < v, row-major order."""
        upper = sparse.triu(self._csr, k=1).tocoo()
        yield from zip(upper.row.tolist(), upper.col.tolist())

    def edge_set(self) -> "set[tuple[int, int]]":
        """Set of (u, v) pairs with u < v."""
        return set(self.edges())

    def __repr__(self) -> str:
        return (
            f"SparseGraphView(n={self.number_of_nodes}, "
            f"m={self.number_of_edges})"
        )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.number_of_nodes:
            raise IndexError(
                f"node {node} out of range [0, {self.number_of_nodes})"
            )
