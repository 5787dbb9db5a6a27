"""GraphStore: an out-of-core, memory-mapped CSR graph on disk.

The paper evaluates on ~1000-node samples, but its *full* datasets are two
orders of magnitude larger (Blogcatalog: 88.8k nodes, ~2.1M edges).  At that
scale the in-memory pipeline has two costs the sampled graphs never see:

* every :class:`~repro.oddball.surrogate.EngineSpec` payload ships a full
  copy of the CSR arrays to every worker process (tens of MB per worker,
  multiplied by the worker count), and
* every validation/normalisation touch-point (`to_sparse`, engine
  construction) copies the arrays again.

A :class:`GraphStore` removes both: the graph lives on disk as raw
little-endian CSR component files that are **memory-mapped read-only**
(`np.memmap(mode="r")`), under a **content-addressed** directory whose name
includes a hash of the build recipe, next to a JSON manifest recording the
node/edge counts, array dtypes, the graph's content fingerprint, the
planted-anomaly ground truth and the recipe itself.  Opening a store is
O(1); the OS pages CSR data in on demand and shares the pages between
every process that maps the same files — N parallel workers pay for ONE
copy of the graph, not N.

Layout of one store directory (see ``docs/ARCHITECTURE.md`` §Storage
layer)::

    <cache_dir>/<name>-<recipe_hash[:12]>/
        manifest.json     # written last (a store without a manifest is
                          # an aborted build and is rebuilt); records the
                          # graph's content digest as "fingerprint"
        indptr.bin        # index_dtype[n + 1]
        indices.bin       # index_dtype[nnz], sorted within each row
        data.bin          # float64[nnz], all ones (binary adjacency)
        features.bin      # float64[2, n], the clean egonet features (N, E)

(``index_dtype`` is int32 while both ``n`` and ``nnz`` fit, int64 beyond —
one shared dtype so scipy never copies an array to reconcile widths.)

**The Δ-overlay invariant**: nothing downstream ever writes to the mapped
arrays.  :class:`~repro.graph.incremental.IncrementalEgonetFeatures` keeps
edge flips in per-node override sets and folds them into *new* arrays when a
CSR must be materialised; the engines evaluate transient flips as a
``(base, delta)`` overlay.  The arrays are mapped read-only, so a violation
raises instead of corrupting the cache.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy import sparse

from repro import telemetry as _telemetry

__all__ = ["GraphStore", "MANIFEST_VERSION", "index_dtype", "recipe_hash"]

#: Manifest schema version; bump on any incompatible layout change.
MANIFEST_VERSION = 1

_DATA_DTYPE = np.float64


def recipe_hash(recipe: dict) -> str:
    """Deterministic content hash of a build recipe (the cache key).

    The recipe is canonicalised through sorted-key JSON, so two logically
    identical recipes always hash alike and *any* parameter change (node
    count, seed, generator, chunk size) re-addresses the store.
    """
    encoded = json.dumps(recipe, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(encoded.encode()).hexdigest()


def index_dtype(n_nodes: int, nnz: int) -> np.dtype:
    """One index dtype shared by ``indptr`` AND ``indices``.

    scipy unifies the two index arrays to a common dtype on construction;
    storing them in different widths would make it *copy* the large mapped
    ``indices`` array to reconcile them, defeating the zero-copy open.
    ``int32`` halves the on-disk/in-cache size whenever both the node count
    and the stored-entry count fit.
    """
    return np.dtype(np.int64 if max(n_nodes + 1, nnz) >= 2**31 else np.int32)


class GraphStore:
    """A read-only, memory-mapped CSR graph with manifest metadata.

    Instances are created by :func:`repro.store.build_store` (which writes
    the files) or :meth:`open` (which maps an existing directory).  A store
    quacks like a graph everywhere the sparse pipeline accepts one: it
    exposes ``adjacency_csr()`` (the hook :func:`repro.graph.sparse.to_sparse`
    dispatches on), ``number_of_nodes``/``number_of_edges``/``degrees()``/
    ``is_connected()`` (what :func:`repro.graph.datasets.dataset_statistics`
    consumes), and :meth:`engine_spec` (the ``store``-kind
    :class:`~repro.oddball.surrogate.EngineSpec` the parallel executor ships
    to workers instead of a multi-MB array payload).
    """

    def __init__(self, path: Path, manifest: dict):
        self.path = Path(path)
        self.manifest = manifest
        idx_dtype = np.dtype(manifest["index_dtype"])
        self._indptr = np.memmap(
            self.path / "indptr.bin", dtype=idx_dtype, mode="r",
            shape=(manifest["n_nodes"] + 1,),
        )
        self._indices = np.memmap(
            self.path / "indices.bin", dtype=idx_dtype, mode="r",
            shape=(manifest["nnz"],),
        )
        self._data = np.memmap(
            self.path / "data.bin", dtype=np.dtype(manifest["data_dtype"]),
            mode="r", shape=(manifest["nnz"],),
        )
        self._csr: "sparse.csr_matrix | None" = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, path: "str | Path", verify: bool = False) -> "GraphStore":
        """Map an existing store directory.

        Cheap structural sanity checks (manifest version, file sizes,
        monotone ``indptr``) always run; ``verify=True`` additionally
        re-validates the full adjacency contract (symmetric, binary, zero
        diagonal, sorted rows) in O(m) — use it after copying a store
        between machines.
        """
        path = Path(path)
        manifest_path = path / "manifest.json"
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"{path} is not a graph store (no manifest.json); an aborted "
                "build leaves no manifest — rebuild with repro.store.build_store"
            )
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"store {path} has unsupported manifest version "
                f"{manifest.get('version')!r} (this build reads {MANIFEST_VERSION})"
            )
        store = cls(path, manifest)
        store._check_structure()
        if verify:
            store._verify_adjacency()
        _telemetry.event(
            "store.open",
            name=store.name,
            n=store.number_of_nodes,
            nnz=store.nnz,
            verified=bool(verify),
        )
        return store

    def _check_structure(self) -> None:
        """O(n) sanity checks tying the mapped arrays to the manifest."""
        n, nnz = self.manifest["n_nodes"], self.manifest["nnz"]
        if self._indptr.shape[0] != n + 1 or int(self._indptr[0]) != 0:
            raise ValueError(f"store {self.path}: indptr does not address {n} rows")
        if int(self._indptr[-1]) != nnz:
            raise ValueError(
                f"store {self.path}: indptr ends at {int(self._indptr[-1])}, "
                f"manifest says nnz={nnz}"
            )
        if np.any(np.diff(self._indptr) < 0):
            raise ValueError(f"store {self.path}: indptr is not monotone")

    def _verify_adjacency(self) -> None:
        """Full O(m) re-validation of the adjacency contract."""
        matrix = sparse.csr_matrix(
            (np.asarray(self._data), np.asarray(self._indices),
             np.asarray(self._indptr)),
            shape=(self.number_of_nodes, self.number_of_nodes),
        )
        if matrix.nnz and not np.all(matrix.data == 1.0):
            raise ValueError(f"store {self.path}: adjacency is not binary")
        if matrix.diagonal().sum() != 0.0:
            raise ValueError(f"store {self.path}: adjacency has diagonal entries")
        if (matrix != matrix.T).nnz != 0:
            raise ValueError(f"store {self.path}: adjacency is not symmetric")
        for row in range(self.number_of_nodes):
            row_indices = self._indices[self._indptr[row] : self._indptr[row + 1]]
            if row_indices.size and np.any(np.diff(row_indices) <= 0):
                raise ValueError(
                    f"store {self.path}: row {row} indices are not sorted/unique"
                )

    # ------------------------------------------------------------------ #
    # Metadata
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Dataset name recorded at build time."""
        return self.manifest["name"]

    @property
    def number_of_nodes(self) -> int:
        """Node count (Graph-compatible spelling)."""
        return int(self.manifest["n_nodes"])

    @property
    def number_of_edges(self) -> int:
        """Undirected edge count (``nnz / 2``)."""
        return int(self.manifest["n_edges"])

    @property
    def nnz(self) -> int:
        """Stored entries of the symmetric CSR (``2 × edges``)."""
        return int(self.manifest["nnz"])

    @property
    def planted(self) -> dict:
        """Planted-anomaly ground truth (``{"cliques": [...], "stars": [...]}``)."""
        return self.manifest.get("planted", {})

    @property
    def recipe(self) -> dict:
        """The build recipe the store was generated from."""
        return self.manifest["recipe"]

    @property
    def digest(self) -> str:
        """The recipe hash — the content address of this store."""
        return self.manifest["recipe_hash"]

    @property
    def shape(self) -> tuple[int, int]:
        """Adjacency shape, for shape-dispatching callers (resolve_backend)."""
        n = self.number_of_nodes
        return (n, n)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphStore({self.name!r}, n={self.number_of_nodes}, "
            f"m={self.number_of_edges}, digest={self.digest[:12]}, "
            f"path={str(self.path)!r})"
        )

    # ------------------------------------------------------------------ #
    # Graph access
    # ------------------------------------------------------------------ #
    def csr(self) -> sparse.csr_matrix:
        """The adjacency as a CSR matrix over the *mapped* arrays (cached).

        Zero-copy: ``data``/``indices``/``indptr`` are the read-only memmaps
        themselves.  The matrix is tagged

        * ``_repro_validated`` — :func:`repro.graph.sparse.to_sparse`
          returns it as-is instead of copy-validating (the builder validated
          at write time; ``open(verify=True)`` re-checks), and
        * ``_repro_fingerprint`` — the manifest's content digest, so
          :func:`repro.attacks.campaign.graph_fingerprint` names the graph
          in O(1) instead of hashing 2·m mapped entries (the stamp equals
          what hashing the arrays would give; stores without the manifest
          key are simply hashed),

        and ``has_sorted_indices`` is set so scipy never attempts an
        in-place sort of the read-only buffers.
        """
        if self._csr is None:
            matrix = sparse.csr_matrix(
                (self._data, self._indices, self._indptr),
                shape=self.shape, copy=False,
            )
            matrix.has_sorted_indices = True
            matrix._repro_validated = True
            fingerprint = self.manifest.get("fingerprint")
            if fingerprint is not None:
                matrix._repro_fingerprint = fingerprint
            features = self.features()
            if features is not None:
                # IncrementalEgonetFeatures picks these up and skips its
                # O(Σ deg²) clean-feature pass — the dominant per-worker
                # cost at full Blogcatalog scale.
                matrix._repro_egonet_features = features
            self._csr = matrix
            _telemetry.event("store.mmap", name=self.name, nnz=self.nnz)
        return self._csr

    def features(self) -> "tuple[np.ndarray, np.ndarray] | None":
        """Precomputed clean egonet features ``(N, E)`` (read-only memmaps).

        ``None`` for stores built before features were persisted; callers
        fall back to :func:`repro.graph.sparse.egonet_features_sparse`.
        """
        feature_path = self.path / "features.bin"
        if not feature_path.exists():
            return None
        mapped = np.memmap(
            feature_path, dtype=np.float64, mode="r",
            shape=(2, self.number_of_nodes),
        )
        return mapped[0], mapped[1]

    def adjacency_csr(self) -> sparse.csr_matrix:
        """Alias of :meth:`csr` — the duck-typing hook ``to_sparse`` uses."""
        return self.csr()

    def detached_csr(self) -> sparse.csr_matrix:
        """A plain in-memory CSR copy with **no** store tags or memmaps.

        The inverse of :meth:`csr` for comparison purposes: the payload-
        path benchmarks and the store parity tests feed this to the
        pipeline so it behaves exactly like a graph that never touched the
        store subsystem (re-validated, fingerprinted by hashing its bytes,
        features recomputed).
        """
        csr = self.csr()
        return sparse.csr_matrix(
            (np.array(csr.data), np.array(csr.indices), np.array(csr.indptr)),
            shape=csr.shape,
        )

    def degrees(self) -> np.ndarray:
        """Per-node degree vector, O(n) from ``indptr`` (no row scan)."""
        return np.diff(self._indptr).astype(np.float64)

    def top_targets(self, count: int) -> "list[int]":
        """The ``count`` highest OddBall-scored nodes (stable order).

        Scores come from the precomputed clean features (Eq. 3 over the
        refitted power law) in O(n) — the one target-selection rule the
        store CLI, the table1 store rows and the store benchmark all
        share, so they can never diverge on which nodes they attack.
        Falls back to the sparse feature kernels for pre-feature stores.
        """
        from repro.oddball.regression import fit_power_law
        from repro.oddball.scores import score_from_features

        features = self.features()
        if features is None:
            from repro.graph.sparse import egonet_features_sparse

            features = egonet_features_sparse(self.csr())
        n_feature = np.asarray(features[0])
        e_feature = np.asarray(features[1])
        scores = score_from_features(
            n_feature, e_feature, fit_power_law(n_feature, e_feature)
        )
        return np.argsort(-scores, kind="stable")[:count].tolist()

    def is_connected(self) -> bool:
        """Whether the graph is one connected component (O(n + m) BFS)."""
        if self.number_of_nodes == 0:
            return True
        from scipy.sparse.csgraph import connected_components

        count, _ = connected_components(self.csr(), directed=False)
        return int(count) == 1

    # ------------------------------------------------------------------ #
    # Engine / executor integration
    # ------------------------------------------------------------------ #
    def engine_spec(self, *, floor: float = 1.0, ridge: "float | None" = None):
        """A ``store``-kind :class:`~repro.oddball.surrogate.EngineSpec`.

        The payload is the store *path*, not the graph: a pickled spec is a
        few hundred bytes regardless of graph size, and every worker that
        builds from it maps the same files instead of unpickling its own
        CSR copy.  Store-backed engines are always sparse.
        """
        from repro.oddball.regression import DEFAULT_RIDGE
        from repro.oddball.surrogate import EngineSpec

        return EngineSpec.from_store(
            self, floor=floor,
            ridge=DEFAULT_RIDGE if ridge is None else float(ridge),
        )
