"""Command-line entry points for the graph-store subsystem.

Usage::

    python -m repro.store build blogcatalog-full [--scale S] [--seed N]
    python -m repro.store info blogcatalog-full        # or a store path
    python -m repro.store recipe-hash blogcatalog-full --scale 0.02
    python -m repro.store campaign blogcatalog-full --budget 5 --workers 4
    python -m repro.store campaign blogcatalog-full --workers 4 \\
        --telemetry traces/run1

``build`` constructs (or reopens, on a cache hit) the content-addressed
store; ``info`` prints its manifest; ``recipe-hash`` prints only the digest
(CI uses it as a cache key); ``campaign`` runs an attack campaign
(``--attack``, default GradMaxSearch; ``--candidates`` picks the
decision-variable strategy) over the top-scoring OddBall targets end-to-end
through the parallel executor,
with every worker opening the memory-mapped store via a ``store``-kind
:class:`~repro.oddball.surrogate.EngineSpec` and claiming jobs from the
work-stealing queue of :mod:`repro.attacks.scheduler` (``--lease-ttl``
bounds crash-requeue latency).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

__all__ = ["main"]


def _add_recipe_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("name", help="recipe name (e.g. blogcatalog-full) or, "
                                     "for info, an existing store directory")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="node/edge-count multiplier on the recipe")
    parser.add_argument("--seed", type=int, default=0,
                        help="build seed (part of the content address)")
    parser.add_argument("--cache", type=Path, default=None,
                        help="store cache directory (default: "
                             "$REPRO_STORE_CACHE or ./.repro-store-cache)")


def _resolve_store(args, build: bool = True):
    """Open ``args.name`` as a path, or build/open it as a recipe name.

    With ``build=False`` a recipe name whose store is not in the cache
    raises instead of triggering a (potentially minutes-long) build — the
    read-only ``info`` command uses this so it never builds as a side
    effect.
    """
    from repro.store import GraphStore, build_store
    from repro.store.datasets import STORE_DATASET_NAMES, load_store_dataset

    candidate = Path(args.name)
    if (candidate / "manifest.json").exists():
        return GraphStore.open(candidate)
    key = args.name.lower().replace("_", "-")
    if not build:
        from repro.store import default_cache_dir, recipe_hash, store_recipe
        from repro.store.datasets import _recipe_name_and_scale

        scale = args.scale
        if key in STORE_DATASET_NAMES:
            key, scale = _recipe_name_and_scale(key, scale)
        recipe = store_recipe(key, scale=scale, seed=args.seed)
        root = Path(args.cache) if args.cache is not None else default_cache_dir()
        path = root / f"{recipe['name']}-{recipe_hash(recipe)[:12]}"
        if not (path / "manifest.json").exists():
            raise SystemExit(
                f"store for {args.name!r} (seed={args.seed}, scale={args.scale}) "
                f"is not in the cache ({path}); build it first with "
                f"`python -m repro.store build {args.name}`"
            )
        return GraphStore.open(path)
    if key in STORE_DATASET_NAMES:
        dataset = load_store_dataset(
            key, seed=args.seed, scale=args.scale, cache_dir=args.cache
        )
        return dataset.graph
    return build_store(
        key, cache_dir=args.cache, scale=args.scale, seed=args.seed
    )


def _cmd_build(args) -> int:
    start = time.perf_counter()
    store = _resolve_store(args)
    seconds = time.perf_counter() - start
    print(
        f"{store.name}: n={store.number_of_nodes} m={store.number_of_edges} "
        f"digest={store.digest[:12]} ({seconds:.2f}s incl. cache lookup)"
    )
    print(f"path: {store.path}")
    return 0


def _cmd_info(args) -> int:
    store = _resolve_store(args, build=False)
    manifest = dict(store.manifest)
    # planted lists can be thousands of ids — summarise for the console
    planted = manifest.get("planted") or {}
    manifest["planted"] = {k: f"{len(v)} nodes" for k, v in planted.items()}
    print(json.dumps(manifest, indent=2))
    return 0


def _cmd_recipe_hash(args) -> int:
    from repro.store import recipe_hash, store_recipe
    from repro.store.datasets import STORE_DATASET_NAMES

    key = args.name.lower().replace("_", "-")
    if key in STORE_DATASET_NAMES:
        from repro.store.datasets import _recipe_name_and_scale

        key, args.scale = _recipe_name_and_scale(key, args.scale)
    print(recipe_hash(store_recipe(key, scale=args.scale, seed=args.seed)))
    return 0


def _cmd_campaign(args) -> int:
    from repro.attacks import grid_jobs
    from repro.attacks.executor import build_campaign

    store = _resolve_store(args)
    targets = store.top_targets(args.targets)
    jobs = grid_jobs(
        args.attack,
        [[t] for t in targets],
        budgets=[args.budget],
        candidates=args.candidates,
    )
    campaign = build_campaign(
        store, workers=args.workers, backend="sparse", kernels=args.kernels,
        checkpoint_path=args.checkpoint,
        lease_ttl=args.lease_ttl,
        telemetry=args.telemetry,
    )
    start = time.perf_counter()
    result = campaign.run(jobs)
    seconds = time.perf_counter() - start
    print(
        f"{store.name}: {len(result)} jobs (budget={args.budget}, "
        f"workers={args.workers}) in {seconds:.2f}s"
        + (f", {result.resumed_jobs} resumed" if result.resumed_jobs else "")
    )
    for outcome in result:
        target = outcome.job.targets[0]
        shift = outcome.rank_shifts.get(target, 0)
        print(
            f"  target {target}: tau={outcome.score_decrease:.3f} "
            f"rank-shift={shift:+d} ({outcome.seconds:.2f}s)"
        )
    if result.peak_rss_kb:
        print(f"  peak worker RSS: {result.peak_rss_kb / 1024:.0f} MiB")
    if result.requeues:
        print(f"  requeues: {result.requeues}")
    if result.dead_workers:
        print(
            f"  dead workers (jobs recovered): {list(result.dead_workers)}"
        )
    if args.telemetry is not None:
        from repro import telemetry as _telemetry

        _telemetry.shutdown()
        print(
            f"  telemetry: {args.telemetry} (inspect with "
            f"`python -m repro.telemetry report {args.telemetry}`)"
        )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    """CLI dispatcher (``python -m repro.store``)."""
    parser = argparse.ArgumentParser(prog="repro.store", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    for name, handler in (
        ("build", _cmd_build),
        ("info", _cmd_info),
        ("recipe-hash", _cmd_recipe_hash),
    ):
        sub = commands.add_parser(name)
        _add_recipe_arguments(sub)
        sub.set_defaults(handler=handler)

    campaign = commands.add_parser("campaign")
    _add_recipe_arguments(campaign)
    campaign.add_argument("--budget", type=int, default=5)
    campaign.add_argument("--workers", type=int, default=1)
    campaign.add_argument("--targets", type=int, default=8,
                          help="attack the top-K OddBall-scored nodes")
    campaign.add_argument("--attack", default="gradmaxsearch",
                          choices=["gradmaxsearch", "binarizedattack",
                                   "continuousa", "random",
                                   "oddball-heuristic"],
                          help="attack registry name for the job grid")
    campaign.add_argument("--candidates", default="target_incident",
                          choices=["full", "target_incident", "two_hop",
                                   "adaptive", "adaptive_gradient"],
                          help="candidate-pair strategy")
    campaign.add_argument("--checkpoint", type=Path, default=None,
                          help="resumable campaign checkpoint file")
    campaign.add_argument("--kernels", choices=["auto", "numpy", "compiled"],
                          default="auto",
                          help="hot-loop kernel backend (repro.kernels); "
                               "flips are identical either way")
    campaign.add_argument("--lease-ttl", type=float, default=None,
                          help="work-queue lease TTL in seconds (default: "
                               "$REPRO_LEASE_TTL or 30)")
    campaign.add_argument("--telemetry", type=Path, default=None,
                          metavar="DIR",
                          help="write a structured trace (spans/events/"
                               "counters) under DIR; inspect afterwards "
                               "with `python -m repro.telemetry report DIR`"
                               " (default: $REPRO_TELEMETRY or off)")
    campaign.set_defaults(handler=_cmd_campaign)

    args = parser.parse_args(argv)
    return args.handler(args)
