"""CLI entry point: ``python -m ahrd_ray <command>``.

Commands:
    triples  --sf-dir DIR --out DIR [--checkpoint]   run the flagship and
                                                     write the edge table
    query    NAME --sf-dir DIR [--limit N]           run a registry query
    list                                             list registry queries

Starts and stops its own Ray session unless one is already running (the
library never calls ray.init).
"""

from __future__ import annotations

import argparse
import sys


def write_parquet_rows(ds, out: str) -> int:
    """Write ``ds`` under ``out`` and return the rows written, summed from
    the footers of the files this write added: ``ds.count()`` would run the
    whole plan a second time."""
    import os

    import pyarrow.parquet as pq

    before = set(os.listdir(out)) if os.path.isdir(out) else set()
    ds.write_parquet(out)
    return sum(
        pq.read_metadata(os.path.join(out, f)).num_rows
        for f in os.listdir(out)
        if f.endswith(".parquet") and f not in before
    )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="ahrd_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    t = sub.add_parser("triples", help="run the flagship KG pipeline")
    t.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    t.add_argument("--out", default="/tmp/ahrd_ray_out/triples")
    t.add_argument("--config", default=None,
                   help="input.yml (S1): engine weights/sources + optional "
                        "input_dir/output run metadata")
    t.add_argument("--checkpoint", action="store_true",
                   help="use checkpoint-resumable stage boundaries")
    t.add_argument("--shards", type=int, default=0,
                   help="with --checkpoint: partition-granular resume over N "
                        "input-file shards (a killed run re-does only "
                        "unfinished partitions)")
    t.add_argument("--stable-shards", action="store_true",
                   help="with --shards: hash-of-path shard assignment so a "
                        "grown corpus dirties only the shards holding new "
                        "files (incremental ingest); default is size-balanced")
    t.add_argument("--num-cpus", type=int, default=8)

    q = sub.add_parser("query", help="run one registry query")
    q.add_argument("name")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    q.add_argument("--limit", type=int, default=10)
    q.add_argument("--num-cpus", type=int, default=8)

    sub.add_parser("list", help="list registry queries")

    args = ap.parse_args(argv)

    if args.cmd == "list":
        from ahrd_ray.pipelines.queriesdef import registry

        for name, (_fn, sql) in registry().items():
            print(f"{name:28s} {'oracle' if sql else 'rows-only'}")
        return 0

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        ray.init(address="local", num_cpus=args.num_cpus, include_dashboard=False)
    try:
        if args.cmd == "triples":
            from ahrd_ray.pipelines import kg

            cfg, sf_dir, out = None, args.sf_dir, args.out
            if args.config:
                from ahrd_ray.config import load_yaml_config

                cfg, doc = load_yaml_config(args.config)
                sf_dir = doc.get("input_dir", sf_dir)
                out = doc.get("output", out)
            args.out = out
            ctx = kg.PipelineContext(sf_dir, cfg) if cfg else kg.PipelineContext(sf_dir)
            if args.checkpoint and args.shards:
                ds = kg.kg_triples_sharded(
                    ctx, args.out + ".ckpt",
                    num_shards=args.shards, stable=args.stable_shards,
                )
            elif args.checkpoint:
                ds = kg.kg_triples_checkpointed(ctx, args.out + ".ckpt")
            else:
                ds = kg.kg_triples(ctx)
            print(f"wrote {write_parquet_rows(ds, args.out)} triples to {args.out}")
        elif args.cmd == "query":
            from ahrd_ray.pipelines.queriesdef import registry

            reg = registry()
            if args.name not in reg:
                print(f"unknown query {args.name!r}; see `python -m ahrd_ray list`",
                      file=sys.stderr)
                return 2
            result = reg[args.name][0](args.sf_dir)
            import pandas as pd
            import pyarrow as pa

            if isinstance(result, pa.Table):
                df = result.to_pandas()
            elif isinstance(result, pd.DataFrame):
                df = result
            else:
                df = result.limit(args.limit).to_pandas()
            print(df.head(args.limit).to_string())
    finally:
        if owns_session:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
