"""Local stand-in for the driver's correctness gate.

Runs each registry query on Ray AND its oracle SQL on DuckDB over the same
sf dir, then compares row count, schema (column names) and an
order-insensitive value fingerprint (per-column sorted values hashed).

Usage: python scripts/compare_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import sys

import duckdb
import pandas as pd
import pyarrow as pa

TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def fingerprint(df: pd.DataFrame) -> str:
    cols = sorted(df.columns)
    h = hashlib.sha256()
    for c in cols:
        s = df[c]
        if "datetime" in str(s.dtype):
            # normalize the resolution first: pandas may surface the same
            # timestamps as [us] (DuckDB) or [ns] (Arrow->pandas), whose
            # raw epoch integers differ by 1000x.  tz-aware columns cannot
            # astype to a naive unit directly — strip to UTC-naive first
            # (both sides fingerprint the same absolute instant).
            if getattr(s.dtype, "tz", None) is not None:
                s = s.dt.tz_convert("UTC").dt.tz_localize(None)
            h.update(
                str(sorted(s.astype("datetime64[ns]").astype("int64").tolist())).encode()
            )
        elif s.dtype == object or str(s.dtype) == "string":
            vals = sorted(str(x) for x in s.fillna("\x00<null>"))
            h.update(("\n".join(vals)).encode())
        elif str(s.dtype) == "bool":
            h.update(str(sorted(s.tolist())).encode())
        else:
            vals = s.fillna(-(2**61)).to_numpy()
            import numpy as np

            v = np.sort(np.asarray(vals, dtype="float64"))
            h.update(v.tobytes())
        h.update(b"|")
    return h.hexdigest()[:16]


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)

    from ahrd_ray.pipelines.queriesdef import registry

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    failures = 0
    for name, (fn, sql) in registry().items():
        if only and name not in only:
            continue
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: ray error {type(e).__name__}: {e}")
            failures += 1
            continue
        if sql is None:
            print(f"ok   {name}: rows={len(got)} (rows-only, no oracle)")
            continue
        try:
            want = con.execute(sql).fetchdf()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle error {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows ray={len(got)} oracle={len(want)}")
        if sorted(got.columns) != sorted(want.columns):
            problems.append(f"cols ray={sorted(got.columns)} oracle={sorted(want.columns)}")
        elif fingerprint(got) != fingerprint(want):
            problems.append("value-hash mismatch")
        if problems:
            failures += 1
            print(f"FAIL {name}: {'; '.join(problems)}")
        else:
            print(f"PASS {name}: rows={len(got)}")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
