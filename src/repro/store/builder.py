"""Streaming builders for paper-scale graph stores.

The in-memory generators (:mod:`repro.graph.generators`) allocate a dense
``n × n`` adjacency — 63 GB at Blogcatalog's full 88.8k nodes — so
paper-scale stand-ins need a different construction: edges are *sampled in
chunks*, canonicalised and deduplicated as integer pair keys, and only the
final CSR component arrays (O(m) memory, never O(n²)) are written into the
store's memory-mapped files.

Two edge-sampling families cover the Table I recipes:

``uniform``
    Chunked G(n, M)-style sampling — endpoints uniform over nodes — the
    streaming analogue of the ``er`` generator.
``chung_lu``
    Endpoints drawn proportional to per-node weights ``w_i ∝ (i + i0)^-α``
    (one inverse-CDF ``searchsorted`` per chunk), producing the heavy-tailed
    degree profile the ``ba`` generator and the real-dataset stand-ins need
    at a fraction of the cost of sequential preferential attachment.

Real-dataset stand-ins additionally plant the near-clique / near-star
egonets OddBall flags (same shapes as
:func:`repro.graph.anomaly.plant_anomalies`, built as explicit edge-key
chunks) and record the ground truth in the manifest.

Builds are **deterministic in the recipe**: the same
``(name, nodes, edges, seed, chunk_edges, …)`` always reproduces the same
byte-identical arrays, which is what makes the content-addressed cache
directory (``<name>-<recipe_hash[:12]>``) sound.  ``chunk_edges`` is part
of the recipe because it shapes the RNG draw sequence.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

from repro import telemetry as _telemetry
from repro.store.graphstore import (
    _DATA_DTYPE,
    MANIFEST_VERSION,
    GraphStore,
    index_dtype,
    recipe_hash,
)
from repro.utils.logging import get_logger

__all__ = [
    "DEFAULT_CHUNK_EDGES",
    "STORE_RECIPES",
    "build_store",
    "default_cache_dir",
    "store_recipe",
]

_log = get_logger("store.builder")

#: Edge keys sampled per RNG chunk; part of the recipe (it shapes the draws).
DEFAULT_CHUNK_EDGES = 262_144

#: Environment variable overriding the default store cache directory.
CACHE_ENV = "REPRO_STORE_CACHE"

#: Paper-scale recipes: Table I's five graphs (streamed, buildable at any
#: ``scale``) plus the full-size Blogcatalog stand-in the paper attacks.
#: ``anomalies`` uses *absolute* shape sizes (clique size, star leaves) with
#: *fractional* counts, so scaling the graph scales how many anomalies are
#: planted but keeps each one paper-shaped.
STORE_RECIPES: dict[str, dict] = {
    "er": dict(nodes=1000, edges=9948, family="uniform"),
    "ba": dict(nodes=1000, edges=4975, family="chung_lu", alpha=0.85),
    "blogcatalog": dict(
        nodes=1000, edges=6190, family="chung_lu", alpha=0.75,
        anomalies=dict(clique_frac=0.012, star_frac=0.012,
                       clique_size=10, star_leaves=20),
    ),
    "wikivote": dict(
        nodes=1012, edges=4860, family="chung_lu", alpha=0.80,
        anomalies=dict(clique_frac=0.010, star_frac=0.015,
                       clique_size=9, star_leaves=18),
    ),
    "bitcoin-alpha": dict(
        nodes=1025, edges=2311, family="chung_lu", alpha=0.70,
        anomalies=dict(clique_frac=0.008, star_frac=0.015,
                       clique_size=7, star_leaves=14),
    ),
    "blogcatalog-full": dict(
        nodes=88_800, edges=2_100_000, family="chung_lu", alpha=0.75,
        anomalies=dict(clique_frac=0.002, star_frac=0.002,
                       clique_size=10, star_leaves=30),
    ),
}


def default_cache_dir() -> Path:
    """The store cache root: ``$REPRO_STORE_CACHE`` or ``./.repro-store-cache``."""
    return Path(os.environ.get(CACHE_ENV, ".repro-store-cache"))


def store_recipe(
    name: str,
    *,
    scale: float = 1.0,
    seed: int = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
) -> dict:
    """The canonical build recipe for a named dataset at a given scale.

    The returned dict is exactly what is hashed for content addressing and
    recorded in the manifest — every field that influences the generated
    bytes appears in it.
    """
    key = name.lower().replace("_", "-")
    if key not in STORE_RECIPES:
        raise KeyError(
            f"unknown store dataset {name!r}; choose from {sorted(STORE_RECIPES)}"
        )
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    base = STORE_RECIPES[key]
    nodes = max(int(round(base["nodes"] * scale)), 64)
    edges = max(int(round(base["edges"] * scale)), nodes)
    recipe = {
        "version": 1,
        "name": key,
        "family": base["family"],
        "nodes": nodes,
        "edges": edges,
        "alpha": base.get("alpha"),
        "anomalies": base.get("anomalies"),
        "seed": int(seed),
        "chunk_edges": int(chunk_edges),
    }
    return recipe


def build_store(
    name: str,
    *,
    cache_dir: "str | Path | None" = None,
    scale: float = 1.0,
    seed: int = 0,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    force: bool = False,
) -> GraphStore:
    """Build (or reopen) the store for ``name`` at ``scale``.

    The store lands in ``<cache_dir>/<name>-<recipe_hash[:12]>``; an
    existing directory with a valid manifest for the same recipe is
    reopened without rebuilding (``force=True`` rebuilds in place).
    Build memory is O(m) — edge keys, one lexsort, the CSR component
    arrays — independent of ``n²``.
    """
    recipe = store_recipe(name, scale=scale, seed=seed, chunk_edges=chunk_edges)
    digest = recipe_hash(recipe)
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = root / f"{recipe['name']}-{digest[:12]}"
    if (path / "manifest.json").exists() and not force:
        store = GraphStore.open(path)
        if store.digest != digest:
            raise ValueError(
                f"store directory {path} holds a different recipe "
                f"({store.digest[:12]} != {digest[:12]}); remove it to rebuild"
            )
        if "fingerprint" in store.manifest:
            _log.debug("store cache hit: %s", path)
            return store
        # A store built before manifests recorded the fingerprint is swept
        # and rebuilt like an aborted build.
        _log.info("store %s has no fingerprint in its manifest; rebuilding", path)
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True, exist_ok=True)

    start = time.perf_counter()
    with _telemetry.span(
        "store.build", name=recipe["name"], nodes=int(recipe["nodes"])
    ):
        keys, planted = _generate_edge_keys(recipe)
        nnz = _write_csr(path, recipe["nodes"], keys)
        fingerprint = _write_features(path, recipe["nodes"], nnz)
    build_seconds = time.perf_counter() - start

    manifest = {
        "version": MANIFEST_VERSION,
        "name": recipe["name"],
        "n_nodes": recipe["nodes"],
        "n_edges": int(keys.size),
        "nnz": int(nnz),
        "index_dtype": index_dtype(recipe["nodes"], nnz).name,
        "data_dtype": np.dtype(_DATA_DTYPE).name,
        "planted": planted,
        "recipe": recipe,
        "recipe_hash": digest,
        "fingerprint": fingerprint,
        "build_seconds": round(build_seconds, 3),
        "validated": True,
    }
    # The manifest is written last (atomically, via rename): a crash mid-
    # build leaves a directory without manifest.json, which open() rejects
    # and the next build_store() call sweeps and rebuilds.
    tmp = path / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.rename(path / "manifest.json")
    _log.info(
        "built store %s: n=%d m=%d (%.2fs)",
        path, recipe["nodes"], keys.size, build_seconds,
    )
    return GraphStore.open(path)


# --------------------------------------------------------------------- #
# Edge-key generation (streamed)
# --------------------------------------------------------------------- #


def _generate_edge_keys(recipe: dict) -> "tuple[np.ndarray, dict]":
    """All undirected edges as sorted unique ``u·n + v`` keys (u < v).

    The core is sampled in :data:`chunk_edges`-sized chunks and merged into
    a growing sorted key array; planted anomalies are appended as further
    key chunks.  Peak memory is O(m) int64 keys.
    """
    n, target = recipe["nodes"], recipe["edges"]
    rng = np.random.default_rng(recipe["seed"])
    anomalies = recipe.get("anomalies")

    planted: dict = {}
    planted_keys = np.empty(0, dtype=np.int64)
    if anomalies:
        planted_keys, planted = _plant_anomaly_keys(n, anomalies, rng)

    core_target = max(target - planted_keys.size, n)
    weights_cdf = None
    if recipe["family"] == "chung_lu":
        weights = (np.arange(n, dtype=np.float64) + 10.0) ** -float(recipe["alpha"])
        weights_cdf = np.cumsum(weights)
        weights_cdf /= weights_cdf[-1]

    keys = _ring_keys(n)  # a Hamiltonian ring seeds connectivity (no singletons)
    chunk = int(recipe["chunk_edges"])
    # Each round samples one chunk of endpoint pairs, keeps the novel keys,
    # and stops once the core target is met; the round cap bounds
    # pathological recipes (targets near the complete graph).
    for _ in range(500):
        if keys.size >= core_target:
            break
        u = _sample_endpoints(rng, n, chunk, weights_cdf)
        v = _sample_endpoints(rng, n, chunk, weights_cdf)
        mask = u != v
        u, v = u[mask], v[mask]
        new = np.unique(np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v))
        novel = new[~np.isin(new, keys, assume_unique=True)]
        # Truncating the (sorted) novel keys keeps the edge count landing
        # on the target deterministically, whatever the chunk overlap was.
        keys = np.union1d(keys, novel[: core_target - keys.size])
    # checked after the loop (not for/else): the target may be reached by
    # the final round's draws
    if keys.size < core_target:
        raise RuntimeError(
            f"edge sampling did not reach {core_target} edges for {recipe['name']}"
        )

    if planted_keys.size:
        keys = np.union1d(keys, planted_keys)
    return keys, planted


def _sample_endpoints(rng, n: int, count: int, cdf: "np.ndarray | None") -> np.ndarray:
    """One chunk of endpoint draws: uniform, or inverse-CDF weighted."""
    if cdf is None:
        return rng.integers(0, n, size=count)
    return np.searchsorted(cdf, rng.random(count)).astype(np.int64)


def _ring_keys(n: int) -> np.ndarray:
    """Keys of the Hamiltonian ring ``0-1-…-(n−1)-0`` (sorted, unique)."""
    nodes = np.arange(n, dtype=np.int64)
    nxt = (nodes + 1) % n
    keys = np.minimum(nodes, nxt) * n + np.maximum(nodes, nxt)
    return np.unique(keys)


def _plant_anomaly_keys(
    n: int, anomalies: dict, rng: np.random.Generator
) -> "tuple[np.ndarray, dict]":
    """Near-clique and near-star edge keys plus the ground-truth dict.

    Mirrors :func:`repro.graph.anomaly.plant_anomalies` shapes without a
    Graph object: clique centers are drawn from the mid-index (mid-weight)
    band, star hubs from the low-weight tail, all disjoint.
    """
    n_cliques = max(int(round(anomalies["clique_frac"] * n)), 2)
    n_stars = max(int(round(anomalies["star_frac"] * n)), 2)
    clique_size = int(anomalies["clique_size"])
    star_leaves = int(anomalies["star_leaves"])

    # Disjoint center pools: cliques from the middle third of the index
    # range (mid-degree under the Zipf weights), stars from the top third
    # (low-degree), members/leaves from anywhere outside the center sets.
    mid = rng.choice(
        np.arange(n // 3, 2 * n // 3), size=n_cliques, replace=False
    )
    tail = rng.choice(
        np.arange(2 * n // 3, n), size=n_stars, replace=False
    )
    centers = set(int(c) for c in mid) | set(int(s) for s in tail)

    chunks: list[np.ndarray] = []
    for center in mid:
        members = _draw_outside(rng, n, clique_size - 1, centers)
        ring = np.concatenate(([center], members))
        i, j = np.triu_indices(ring.size, k=1)
        u, v = ring[i], ring[j]
        keys = np.minimum(u, v).astype(np.int64) * n + np.maximum(u, v)
        # near-clique: ~90% of the internal pairs, hub edges always kept
        keep = rng.random(keys.size) < 0.9
        keep[: ring.size - 1] = True  # the (center, member) pairs come first
        chunks.append(keys[keep])
    for hub in tail:
        leaves = _draw_outside(rng, n, star_leaves, centers)
        keys = (
            np.minimum(hub, leaves).astype(np.int64) * n
            + np.maximum(hub, leaves)
        )
        chunks.append(keys)

    planted = {
        "cliques": sorted(int(c) for c in mid),
        "stars": sorted(int(s) for s in tail),
    }
    all_keys = np.unique(np.concatenate(chunks)) if chunks else np.empty(0, np.int64)
    return all_keys, planted


def _draw_outside(
    rng: np.random.Generator, n: int, count: int, excluded: "set[int]"
) -> np.ndarray:
    """``count`` distinct node ids avoiding ``excluded`` (rejection draws)."""
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < count:
        batch = rng.integers(0, n, size=4 * count)
        for node in batch:
            node = int(node)
            if node in excluded or node in seen:
                continue
            seen.add(node)
            chosen.append(node)
            if len(chosen) == count:
                break
    return np.asarray(chosen, dtype=np.int64)


# --------------------------------------------------------------------- #
# CSR materialisation (memmap write)
# --------------------------------------------------------------------- #


def _write_csr(path: Path, n: int, keys: np.ndarray) -> int:
    """Write the symmetric CSR of the edge keys into the store's bin files.

    Returns ``nnz`` (= 2 × edges).  The arrays are written through
    ``np.memmap`` in one pass: both edge directions are lexsorted by
    ``(row, col)``, which also sorts the indices *within* each row — the
    property :meth:`GraphStore.csr` relies on to skip scipy's in-place sort.
    """
    u = (keys // n).astype(np.int64)
    v = (keys % n).astype(np.int64)
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    order = np.lexsort((cols, rows))
    nnz = rows.size
    idx_dtype = index_dtype(n, nnz)

    indptr = np.memmap(path / "indptr.bin", dtype=idx_dtype, mode="w+", shape=(n + 1,))
    indptr[0] = 0
    indptr[1:] = np.cumsum(np.bincount(rows, minlength=n))
    indptr.flush()

    indices = np.memmap(path / "indices.bin", dtype=idx_dtype, mode="w+", shape=(nnz,))
    indices[:] = cols[order]
    indices.flush()

    data = np.memmap(path / "data.bin", dtype=_DATA_DTYPE, mode="w+", shape=(nnz,))
    data[:] = 1.0
    data.flush()
    del indptr, indices, data  # drop the writable mappings before reopening
    return int(nnz)


def _write_features(path: Path, n: int, nnz: int) -> str:
    """Persist the clean egonet features ``(N, E)``; return the content digest.

    The triangle term of ``E`` costs O(Σ_v deg(v)²) — minutes at the full
    Blogcatalog scale with its multi-thousand-degree hubs.  Paying it once
    at build time (through the fill-bounded chunked kernel of
    :func:`repro.graph.sparse.egonet_features_sparse`, which also re-
    validates the freshly written adjacency) and shipping the 2 × n result
    in the store turns every engine construction from the dominant cost of
    a worker into an O(n) memmap read.

    The graph's :func:`~repro.graph.sparse.content_digest` is computed in
    the same pass, while the arrays are page-hot; the manifest records it
    as ``"fingerprint"`` so no campaign ever re-hashes the mapped graph.
    """
    from scipy import sparse

    from repro.graph.sparse import content_digest, egonet_features_sparse

    idx_dtype = index_dtype(n, nnz)
    indptr = np.fromfile(path / "indptr.bin", dtype=idx_dtype)
    indices = np.memmap(path / "indices.bin", dtype=idx_dtype, mode="r", shape=(nnz,))
    data = np.memmap(path / "data.bin", dtype=_DATA_DTYPE, mode="r", shape=(nnz,))
    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n, n), copy=False)
    n_feature, e_feature = egonet_features_sparse(matrix)

    features = np.memmap(
        path / "features.bin", dtype=np.float64, mode="w+", shape=(2, n)
    )
    features[0] = n_feature
    features[1] = e_feature
    features.flush()
    del features
    return content_digest(matrix)
