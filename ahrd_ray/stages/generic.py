"""Generic relational operators over the TPC-H-ish tables.

Demonstrates the engine's general query capability with the
scale-correct shapes:

* map-side partial aggregation (combiner) before every groupby — the
  shuffle carries one row per (block, key), not per input row;
* broadcast hash joins for dimension tables (ray.put once);
* deterministic distributed sums: non-integer measures are 2^-20-quantized
  per row before summation (exact, order-independent, bit-identical to the
  DuckDB oracle).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ahrd_ray.config import q20
from ahrd_ray.stages.partitioning import n_hash_parts

logger = logging.getLogger(__name__)


def _final_sum(keys: list[str], cols: list[str]):
    def f(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(keys, as_index=False)[cols].sum()

    return f


def _qunits(x: np.ndarray) -> np.ndarray:
    """Exact int64 2^-20 units of a measure (floor(x*2^20 + 0.5)) — sum
    these instead of q20 doubles whenever a group total can exceed 2^53
    units, then divide ONCE at the end (numpy and DuckDB round the final
    unit->double conversion identically)."""
    from ahrd_ray.config import QUANT

    return np.floor(np.asarray(x, dtype=np.float64) * QUANT + 0.5).astype(np.int64)


def lineitem_agg(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-style: per (returnflag, linestatus): sum qty, quantized
    revenue sum, row count, avg qty."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    from ahrd_ray.config import QUANT

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        # revenue is summed in exact int64 2^-20 units (see _qunits): a q20
        # DOUBLE sum exceeds 2^53 units per group past ~sf0.35 and goes
        # order-dependent — the class of bug the sf0.1 range-join stress
        # compare caught
        rev = df["l_extendedprice"].to_numpy() * (1.0 - df["l_discount"].to_numpy())
        out = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": df["l_quantity"].to_numpy(),
                "rev_units": _qunits(rev),
                "n_rows": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby(["l_returnflag", "l_linestatus"], as_index=False).sum()

    partial = li.map_batches(prep, batch_format="pandas")
    final = partial.groupby(["l_returnflag", "l_linestatus"]).map_groups(
        _final_sum(["l_returnflag", "l_linestatus"], ["sum_qty", "rev_units", "n_rows"]),
        batch_format="pandas",
    )

    def post(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["sum_rev"] = df["rev_units"].to_numpy(dtype=np.float64) / QUANT
        df["avg_qty"] = df["sum_qty"].to_numpy() / df["n_rows"].to_numpy()
        return df.drop(columns=["rev_units"])

    return final.map_batches(post, batch_format="pandas")


# Above this many customer rows the broadcast map-side join switches to a
# shuffled pre-aggregate + hash join: customer scales with sf in TPC-H, so
# "dimension table" is a size observation, not a guarantee (VERDICT r2
# wrong #7).  64M rows ~= a few GiB of (key, segment) pairs — the point
# where per-worker copies stop being free.
BROADCAST_DIM_MAX_ROWS = 64_000_000


def orders_by_segment(sf_dir: str) -> ray.data.Dataset:
    """orders x customer -> per-segment counts and quantized total-price
    sums.  Small customer side: broadcast map-side join (put once, read in
    every task).  Large: pre-aggregate orders per custkey partial, then ONE
    hash join against customer and a per-segment combine — the shuffle
    carries one row per (custkey) not per order."""
    import pyarrow.parquet as pq

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    meta = pq.read_metadata(f"{sf_dir}/customer.parquet")
    if meta.num_rows <= BROADCAST_DIM_MAX_ROWS:
        cust = pq.read_table(
            f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
        )
        seg_of = dict(zip(cust["c_custkey"].to_pylist(), cust["c_mktsegment"].to_pylist()))
        seg_ref = ray.put(seg_of)

        def join_partial(df: pd.DataFrame) -> pd.DataFrame:
            from ahrd_ray.stages.score import get_broadcast

            seg = get_broadcast(seg_ref)
            out = pd.DataFrame(
                {
                    "c_mktsegment": df["o_custkey"].map(seg),
                    "price_units": _qunits(df["o_totalprice"].to_numpy()),
                    "n_orders": np.ones(len(df), dtype=np.int64),
                }
            )
            return out.groupby("c_mktsegment", as_index=False).sum()

        partial = orders.map_batches(join_partial, batch_format="pandas")
        return partial.groupby("c_mktsegment").map_groups(
            _seg_finish, batch_format="pandas"
        )

    from ahrd_ray.stages.partitioning import join_parts

    def per_cust_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "o_custkey": df["o_custkey"].to_numpy(),
                "price_units": _qunits(df["o_totalprice"].to_numpy()),
                "n_orders": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby("o_custkey", as_index=False).sum()

    cust_ds = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    joined = orders.map_batches(per_cust_partial, batch_format="pandas").join(
        cust_ds,
        "inner",
        num_partitions=join_parts(1),
        on=("o_custkey",),
        right_on=("c_custkey",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def seg_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("c_mktsegment", as_index=False)[["price_units", "n_orders"]].sum()

    return (
        joined.map_batches(seg_partial, batch_format="pandas")
        .groupby("c_mktsegment")
        .map_groups(_seg_finish, batch_format="pandas")
    )


def _seg_finish(df: pd.DataFrame) -> pd.DataFrame:
    from ahrd_ray.config import QUANT

    out = df.groupby("c_mktsegment", as_index=False)[["price_units", "n_orders"]].sum()
    out["sum_price"] = out["price_units"].to_numpy(dtype=np.float64) / QUANT
    return out[["c_mktsegment", "sum_price", "n_orders"]]


def events_hourly(sf_dir: str) -> ray.data.Dataset:
    """Tumbling 1-hour window per event_type: count + quantized value sum
    (streaming-windowed aggregate analogue; the window key is derived
    per-row, so the combiner pattern applies unchanged)."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "window_start": df["ts"].dt.floor("h"),
                "value_units": _qunits(df["value"].to_numpy()),
                "n_events": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby(["event_type", "window_start"], as_index=False).sum()

    partial = ev.map_batches(prep, batch_format="pandas")
    return partial.groupby(["event_type", "window_start"]).map_groups(
        _window_finish(["event_type", "window_start"]), batch_format="pandas"
    )


def _window_finish(keys):
    """Exact per-window finalize: sum int64 2^-20 units, convert once (a
    hot window at web-scale event rates can exceed 2^53 q20 units)."""

    def f(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.config import QUANT

        out = df.groupby(keys, as_index=False)[["value_units", "n_events"]].sum()
        out["sum_value"] = out["value_units"].to_numpy(dtype=np.float64) / QUANT
        return out[keys + ["sum_value", "n_events"]]

    return f


def top_events(sf_dir: str, n: int = 100) -> ray.data.Dataset:
    """Global top-N by value (desc), deterministic event_id tie-break.

    Per-block partial top-N first, so the final sort moves at most
    blocks x N rows instead of the whole table (VERDICT round-1 item #8)."""
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])

    def partial_topn(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["value", "event_id"], ascending=[False, True], kind="mergesort"
        ).head(n)

    partial = ev.map_batches(partial_topn, batch_format="pandas")
    return partial.sort(["value", "event_id"], descending=[True, False]).limit(n)


def order_customer_join(sf_dir: str, n: int = 100) -> ray.data.Dataset:
    """Row-level distributed hash join (orders ⋈ customer), then global
    top-N of the joined rows.

    Unlike :func:`orders_by_segment` (which pre-aggregates before joining),
    this is the generic row-preserving join operator: every surviving order
    row carries its customer attributes.  Ray Data's hash join shuffles both
    sides by key into ``join_parts`` partitions (fact side dominates the
    traffic; at 100 TB the dimension side would usually take the broadcast
    path instead — both forms exist in this module).  The top-N afterwards
    uses per-block partials so the final sort moves blocks × N rows."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_mktsegment"]
    )
    from ahrd_ray.stages.partitioning import join_parts

    joined = orders.join(
        cust,
        "inner",
        num_partitions=join_parts(1),
        on=("o_custkey",),
        right_on=("c_custkey",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def partial_topn(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True], kind="mergesort"
        ).head(n)

    cols = ["o_orderkey", "o_totalprice", "c_name", "c_mktsegment"]
    return (
        joined.map_batches(partial_topn, batch_format="pandas")
        .sort(["o_totalprice", "o_orderkey"], descending=[True, False])
        .limit(n)
        .map_batches(lambda df: df[cols], batch_format="pandas")
    )


def distinct_users(sf_dir: str) -> ray.data.Dataset:
    """Count distinct user_id per event_type — two-phase.

    Phase 1 groups by (event_type, hash(user) % P): each reducer sees only
    its slice of a type's users (a user maps to exactly one slice, so the
    per-slice distinct count is exact).  Phase 2 sums the P tiny per-slice
    counts per type.  No single reducer ever holds all distinct users of a
    hot event_type (VERDICT round-1 item #7)."""
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    n_parts = n_hash_parts()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.drop_duplicates()
        return out.assign(upart=(out["user_id"] % n_parts).astype("int32"))

    def slice_count(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["event_type", "upart"], as_index=False)["user_id"].nunique()
        return g.rename(columns={"user_id": "n_users"})

    slices = (
        ev.map_batches(partial, batch_format="pandas")
        .groupby(["event_type", "upart"])
        .map_groups(slice_count, batch_format="pandas")
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("event_type", as_index=False)["n_users"].sum()
        return out.astype({"n_users": "int64"})

    return slices.groupby("event_type").map_groups(final, batch_format="pandas")


def salted_user_counts(sf_dir: str, salt: int = 16) -> ray.data.Dataset:
    """Skew-aware two-phase aggregation: count events per user_id.

    user_id is the archetypal hot key (a bot user can dominate a partition at
    web scale).  Phase 1 groups by (user_id, salt) — the hot key's rows
    spread over ``salt`` groups — phase 2 merges the per-salt partials.
    Functionally identical to a plain groupby-count (the SQL oracle IS the
    plain GROUP BY), but no single reducer ever sees more than ~1/salt of a
    hot key's rows.  SURVEY.md §4 'Skew'.
    """
    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id"])

    def phase1(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "user_id": df["user_id"],
                "salt": (df["event_id"].to_numpy() % salt).astype(np.int32),
                "n": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby(["user_id", "salt"], as_index=False)["n"].sum()

    partial = (
        ev.map_batches(phase1, batch_format="pandas")
        .groupby(["user_id", "salt"])
        .map_groups(
            lambda df: df.groupby(["user_id", "salt"], as_index=False)["n"].sum(),
            batch_format="pandas",
        )
    )

    def phase2(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("user_id", as_index=False)["n"].sum()
        return out.rename(columns={"n": "n_events"})

    return (
        partial.map_batches(
            lambda df: df.assign(upart=(df["user_id"] % 32).astype("int32")),
            batch_format="pandas",
        )
        .groupby("upart")
        .map_groups(
            lambda df: phase2(df), batch_format="pandas"
        )
    )


SLIDE_MIN = 10
WINDOW_MIN = 30


def events_sliding(sf_dir: str) -> ray.data.Dataset:
    """Sliding-window aggregate: 30-min windows sliding by 10 min — each
    event lands in 3 windows (emitted map-side), then the usual combiner.
    The overlap factor is a constant fan-out, not state: the streaming
    executor never holds a window open."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )
    k = WINDOW_MIN // SLIDE_MIN

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        base = df["ts"].dt.floor(f"{SLIDE_MIN}min")
        outs = []
        for i in range(k):
            outs.append(
                pd.DataFrame(
                    {
                        "event_type": df["event_type"],
                        "window_start": base - pd.Timedelta(minutes=SLIDE_MIN * i),
                        "value_units": _qunits(df["value"].to_numpy()),
                        "n_events": np.ones(len(df), dtype=np.int64),
                    }
                )
            )
        out = pd.concat(outs, ignore_index=True)
        return out.groupby(["event_type", "window_start"], as_index=False).sum()

    partial = ev.map_batches(prep, batch_format="pandas")
    return partial.groupby(["event_type", "window_start"]).map_groups(
        _window_finish(["event_type", "window_start"]), batch_format="pandas"
    )


SESSION_GAP_MIN = 30


def sessionize(sf_dir: str) -> ray.data.Dataset:
    """Gap-based sessionization: per user, a new session starts when the gap
    to the previous event exceeds 30 minutes.  Hash-partition by user (each
    user's whole history lands in one partition), vectorized sort + diff +
    cumsum per partition — the archetypal log-processing window op."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )
    n_parts = n_hash_parts()

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(upart=(df["user_id"] % n_parts).astype("int32"))

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = df["user_id"].ne(df["user_id"].shift())
        gap = df["ts"].diff() > pd.Timedelta(minutes=SESSION_GAP_MIN)
        brk = (new_user | gap).astype(np.int64)
        # session_seq restarts per user: cumulative breaks minus the user's base
        sess_global = brk.cumsum()
        base = sess_global.where(new_user).ffill()
        df = df.assign(
            session_seq=(sess_global - base + 1).astype(np.int64),
            qv=q20(df["value"].to_numpy()),
        )
        g = df.groupby(["user_id", "session_seq"], as_index=False).agg(
            n_events=("event_id", "size"),
            first_ts=("ts", "min"),
            last_ts=("ts", "max"),
            sum_value=("qv", "sum"),
        )
        return g.astype({"n_events": "int64"})

    return (
        ev.map_batches(add_part, batch_format="pandas")
        .groupby("upart")
        .map_groups(sessions, batch_format="pandas")
    )


def asof_latest_order(sf_dir: str) -> ray.data.Dataset:
    """As-of join (an operator Ray Data lacks): for every event, the
    customer's latest order with o_orderdate <= ts.

    Shape: co-partition both sides by hash(customer) — each partition holds
    complete per-key histories — then one vectorized ``pd.merge_asof`` per
    partition (backward, ties broken toward the larger order key by the
    right-side sort).  Partitioning assumption, documented per the brief:
    key-complete partitions; skewed customers bound by their own history
    size, never by the partition count."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    _COLS = ["key", "side", "event_id", "ts", "o_orderkey", "o_orderdate", "apart"]
    n_parts = n_hash_parts()

    def tag_ev(df: pd.DataFrame) -> pd.DataFrame:
        out = df.rename(columns={"user_id": "key"})
        out["side"] = np.int8(0)
        out["o_orderkey"] = np.int64(-1)
        out["o_orderdate"] = pd.Series(pd.NaT, index=out.index, dtype="datetime64[ns]")
        out["apart"] = (out["key"] % n_parts).astype("int32")
        return out[_COLS]

    def tag_ord(df: pd.DataFrame) -> pd.DataFrame:
        out = df.rename(columns={"o_custkey": "key"})
        out["side"] = np.int8(1)
        out["event_id"] = np.int64(-1)
        out["ts"] = pd.Series(pd.NaT, index=out.index, dtype="datetime64[ns]")
        out["apart"] = (out["key"] % n_parts).astype("int32")
        return out[_COLS]

    both = ev.map_batches(tag_ev, batch_format="pandas").union(
        orders.map_batches(tag_ord, batch_format="pandas")
    )

    def asof_part(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["side"] == 0][["event_id", "ts", "key"]].sort_values(
            "ts", kind="mergesort"
        )
        right = df[df["side"] == 1][["o_orderkey", "o_orderdate", "key"]].sort_values(
            ["o_orderdate", "o_orderkey"], kind="mergesort"
        )
        if not len(left):
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "order_key": pd.Series([], dtype="int64"),
                }
            )
        m = pd.merge_asof(
            left,
            right,
            left_on="ts",
            right_on="o_orderdate",
            by="key",
            direction="backward",
        )
        ok = m["o_orderkey"].fillna(-1)  # -1 = no order at or before ts
        out = pd.DataFrame({"event_id": m["event_id"], "order_key": ok})
        return out.astype({"event_id": "int64", "order_key": "int64"})

    return (
        both.groupby("apart").map_groups(asof_part, batch_format="pandas")
    )


def props_agg(sf_dir: str) -> ray.data.Dataset:
    """Semi-structured payload parsing: each event carries a JSON ``props``
    string; parse it per batch (real json.loads — the shape a web pipeline's
    metadata columns have) and aggregate the extracted field per event_type
    with the usual combiner."""
    import json

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def parse_partial(df: pd.DataFrame) -> pd.DataFrame:
        ks = np.fromiter(
            (json.loads(p).get("k", 0) for p in df["props"]),
            dtype=np.int64,
            count=len(df),
        )
        out = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "sum_k": ks,
                "n_events": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby("event_type", as_index=False).sum()

    return (
        ev.map_batches(parse_partial, batch_format="pandas")
        .groupby("event_type")
        .map_groups(
            _final_sum(["event_type"], ["sum_k", "n_events"]), batch_format="pandas"
        )
    )


SAMPLE_MULT = 2654435761
SAMPLE_MOD = 1 << 32


def sample_events(sf_dir: str, rate_num: int = 1, rate_den: int = 10) -> ray.data.Dataset:
    """Deterministic hash sample (rate_num/rate_den of rows): a pure
    map-side filter on a multiplicative hash of the key — reproducible
    across retries/workers, no RNG, SQL-replicable.  The shape every
    training-data pipeline uses for held-out splits."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "user_id"]
    )
    thresh = (SAMPLE_MOD * rate_num) // rate_den

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        # uint64: explicit mod-2^64 wraparound for event_id > ~3.4e9 (int64
        # would wrap at 2^63 and diverge from the oracle's exact HUGEINT
        # product).  2^32 divides 2^64, so (x mod 2^64) mod 2^32 == x mod
        # 2^32 — the uint64 value equals the oracle's exact computation.
        h = (df["event_id"].to_numpy(dtype=np.uint64) * np.uint64(SAMPLE_MULT)) % np.uint64(
            SAMPLE_MOD
        )
        return df[h < np.uint64(thresh)]

    return ev.map_batches(pick, batch_format="pandas")


def top_events_per_user(sf_dir: str, n: int = 3) -> ray.data.Dataset:
    """Per-user top-N events by value (window-rank analogue): per-block
    partial top-N per user bounds the shuffle, exact finalize per user
    partition."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )

    n_parts = n_hash_parts()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "value", "event_id"],
                            ascending=[True, False, True], kind="mergesort")
        out = df.groupby("user_id", as_index=False).head(n)
        return out.assign(upart=(out["user_id"] % n_parts).astype("int32"))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "value", "event_id"],
                            ascending=[True, False, True], kind="mergesort")
        out = df.groupby("user_id", as_index=False).head(n)
        g = out.groupby("user_id", sort=True)
        out = out.assign(rank=(g.cumcount() + 1).astype(np.int64))
        return out[["user_id", "event_id", "value", "rank"]]

    return (
        ev.map_batches(partial, batch_format="pandas")
        .groupby("upart")
        .map_groups(final, batch_format="pandas")
    )


# Non-uniform price bands for the range join (spec-level constants shared
# with the oracle; the open top band is encoded as a huge hi edge).
PRICE_BANDS = [
    ("b0", 0.0, 1_000.0),
    ("b1", 1_000.0, 2_500.0),
    ("b2", 2_500.0, 5_000.0),
    ("b3", 5_000.0, 10_000.0),
    ("b4", 10_000.0, 20_000.0),
    ("b5", 20_000.0, 50_000.0),
    ("b6", 50_000.0, 1e18),
]


def price_band_join(sf_dir: str) -> ray.data.Dataset:
    """Range join (an operator Ray Data lacks): lineitem rows land in the
    price band with lo <= l_extendedprice < hi, then the usual per-band
    combiner.  The band table is tiny and IMMUTABLE -> broadcast by closure
    + one vectorized ``np.searchsorted`` per batch; never a shuffle join.
    Bands are non-uniform, so this is a genuine interval containment, not a
    bucket transform."""
    from ahrd_ray.config import QUANT

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_extendedprice"]
    )
    los = np.array([b[1] for b in PRICE_BANDS])
    labels = np.array([b[0] for b in PRICE_BANDS])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        p = df["l_extendedprice"].to_numpy()
        idx = np.searchsorted(los, p, side="right") - 1
        # sum in INTEGER 2^-20 units: a per-band q20 DOUBLE sum exceeds
        # 2^53 units at sf0.1 already (order-dependent low-bit loss); the
        # int64 unit-sum is exact, and the single final unit->double
        # conversion rounds identically on both sides
        out = pd.DataFrame(
            {
                "band": labels[idx],
                "n_items": np.ones(len(df), dtype=np.int64),
                "price_units": np.floor(p * QUANT + 0.5).astype(np.int64),
            }
        )
        return out.groupby("band", as_index=False).sum()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df = df.groupby("band", as_index=False)[["n_items", "price_units"]].sum()
        df["sum_price"] = df["price_units"].to_numpy(dtype=np.float64) / QUANT
        return df[["band", "n_items", "sum_price"]]

    return (
        li.map_batches(prep, batch_format="pandas")
        .groupby("band")
        .map_groups(finish, batch_format="pandas")
    )


BIG_ORDER_PRICE = 300_000.0


def customers_without_big_order(sf_dir: str) -> ray.data.Dataset:
    """Distributed anti-join with a predicate: customers that never placed
    an order above BIG_ORDER_PRICE.

    Shape: filter + per-block distinct on the fact side (the shuffle then
    carries distinct big-spender keys, a small fraction of orders), one
    hash left-outer join against customer, keep the null side.  No driver
    collection on either input."""
    from ahrd_ray.stages.partitioning import join_parts

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_acctbal"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def big_keys(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.loc[df["o_totalprice"] > BIG_ORDER_PRICE, ["o_custkey"]]
        out = keys.drop_duplicates()
        return out.assign(has_big=np.int64(1))

    big = (
        orders.map_batches(big_keys, batch_format="pandas")
        .groupby("o_custkey")
        .map_groups(lambda df: df.head(1), batch_format="pandas")
    )
    joined = cust.join(
        big,
        "left_outer",
        num_partitions=join_parts(1),
        on=("c_custkey",),
        right_on=("o_custkey",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def anti(df: pd.DataFrame) -> pd.DataFrame:
        out = df[df["has_big"].isna()]
        return out[["c_custkey", "c_name", "c_acctbal"]]

    return joined.map_batches(anti, batch_format="pandas")


QUANTILE_QS = ((1, 2), (9, 10), (99, 100))  # exact rationals: 0.5, 0.9, 0.99
QUANTILE_BIN_W = 16.0


def price_quantiles(sf_dir: str) -> ray.data.Dataset:
    """Exact distributed quantiles (DuckDB ``quantile_disc`` semantics: the
    k-th smallest with k = ceil(q*n), computed as an exact rational) of
    l_extendedprice per l_returnflag — two passes, no global sort:

    1. map-side histogram over fixed-width bins -> groupby((flag, bin)) sum.
       The aggregated histogram is bounded by the VALUE DOMAIN / bin width
       (a few thousand bins here), independent of row count, so collecting
       it driver-side is a broadcast-scale step, not a materialization.
    2. cumulative counts locate each quantile's (bin, within-bin rank);
       a second streaming pass filters to just the target bins (~n/bins
       rows) and selects the exact order statistics per bin.

    At 100 TB this reads the column twice and shuffles only histogram rows
    + target-bin rows — vs. a full all-to-all sort for the naive plan."""
    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_extendedprice"]
    )
    w = QUANTILE_BIN_W

    def hist(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "bin": np.floor(df["l_extendedprice"].to_numpy() / w).astype(np.int64),
                "cnt": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby(["l_returnflag", "bin"], as_index=False).sum()

    hists = (
        li.map_batches(hist, batch_format="pandas")
        .groupby(["l_returnflag", "bin"])
        .map_groups(_final_sum(["l_returnflag", "bin"], ["cnt"]), batch_format="pandas")
        .to_pandas()  # bounded: (#flags x #bins) rows, domain-sized not data-sized
    )

    # (flag, bin) -> [(q_num, q_den, within_bin_rank)] for each quantile
    targets: dict[tuple[str, int], list[tuple[int, int, int]]] = {}
    for flag, g in hists.groupby("l_returnflag"):
        g = g.sort_values("bin")
        cnts = g["cnt"].to_numpy()
        bins = g["bin"].to_numpy()
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        for num, den in QUANTILE_QS:
            k = -((-num * n) // den)  # exact ceil(q*n), 1-based
            i = int(np.searchsorted(cum, k, side="left"))
            before = int(cum[i - 1]) if i else 0
            targets.setdefault((flag, int(bins[i])), []).append((num, den, k - before))

    target_ref = ray.put(targets)

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        tg = get_broadcast(target_ref)
        flag = df["l_returnflag"].iat[0]
        b = int(df["bin"].iat[0])
        wanted = tg.get((flag, b), [])
        if not wanted:
            return pd.DataFrame(
                {"l_returnflag": pd.Series([], dtype="object"),
                 "q": pd.Series([], dtype="float64"),
                 "price": pd.Series([], dtype="float64")}
            )
        vals = np.sort(df["l_extendedprice"].to_numpy(), kind="stable")
        return pd.DataFrame(
            {
                "l_returnflag": [flag] * len(wanted),
                "q": [num / den for num, den, _ in wanted],
                "price": [float(vals[r - 1]) for _, _, r in wanted],
            }
        )

    # filter on exact (flag, bin) pairs so every group reaching pick() is a
    # real target (no empty frames -> no degenerate block schemas)
    pairs = pd.DataFrame(
        {"l_returnflag": [f for f, _ in targets], "bin": [b for _, b in targets]}
    )

    def in_targets(df: pd.DataFrame) -> pd.DataFrame:
        b = np.floor(df["l_extendedprice"].to_numpy() / w).astype(np.int64)
        return df.assign(bin=b).merge(pairs, on=["l_returnflag", "bin"])

    return (
        li.map_batches(in_targets, batch_format="pandas")
        .groupby(["l_returnflag", "bin"])
        .map_groups(pick, batch_format="pandas")
    )


def events_row_number(sf_dir: str) -> ray.data.Dataset:
    """Per-user sequence numbering: rn = row_number() over (partition by
    user_id order by ts, event_id).  The window-function surface the
    sessionizer builds on, exposed as its own operator.

    Shape: one hash shuffle by user (sequence numbering inherently needs a
    user's rows co-located and ordered); inside a partition the numbering
    is a sort + segmented cumcount, vectorized.  Skew note: a bot user's
    whole history lands on one reducer — the same bound sessionize carries;
    salting cannot help because rn is a total order per user."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id"]
    )
    n_parts = n_hash_parts()

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(upart=(df["user_id"] % n_parts).astype("int32"))

    def number(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        rn = df.groupby("user_id").cumcount().to_numpy() + 1
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "rn": rn.astype(np.int64),
            }
        )

    return (
        ev.map_batches(tag, batch_format="pandas")
        .groupby("upart")
        .map_groups(number, batch_format="pandas")
    )


def customers_with_big_order(sf_dir: str) -> ray.data.Dataset:
    """Distributed semi-join (EXISTS): customers that placed >= 1 order
    above BIG_ORDER_PRICE — the complement of
    :func:`customers_without_big_order`, same key-distinct-then-join shape
    (output carries customer attributes exactly once regardless of how
    many qualifying orders exist — the semi-join contract a plain inner
    join breaks)."""
    from ahrd_ray.stages.partitioning import join_parts

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_acctbal"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )

    def big_keys(df: pd.DataFrame) -> pd.DataFrame:
        keys = df.loc[df["o_totalprice"] > BIG_ORDER_PRICE, ["o_custkey"]]
        return keys.drop_duplicates()

    big = (
        orders.map_batches(big_keys, batch_format="pandas")
        .groupby("o_custkey")
        .map_groups(lambda df: df.head(1), batch_format="pandas")
    )
    joined = cust.join(
        big,
        "inner",
        num_partitions=join_parts(1),
        on=("c_custkey",),
        right_on=("o_custkey",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )
    return joined.map_batches(
        lambda df: df[["c_custkey", "c_name", "c_acctbal"]], batch_format="pandas"
    )


def events_rollup(sf_dir: str) -> ray.data.Dataset:
    """Multi-level aggregate (GROUPING SETS): event counts and exact
    quantized value sums per (event_type, hour-of-day), per event_type,
    and the grand total, with 'ALL' as the rolled-up key value.

    Shape: ONE distributed pass builds the finest-grain (type, hour)
    aggregate (map-side partial, tiny groupby — at most |types| x 24
    groups); the coarser levels derive from that small table, not from
    re-scanning the input."""
    from ahrd_ray.config import QUANT

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "hr": df["ts"].dt.hour.astype(np.int64),
                "v_units": _qunits(df["value"].to_numpy()),
                "n": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby(["event_type", "hr"], as_index=False).sum()

    base = (
        ev.map_batches(partial, batch_format="pandas")
        .groupby(["event_type", "hr"])
        .map_groups(
            _final_sum(["event_type", "hr"], ["v_units", "n"]), batch_format="pandas"
        )
    )

    def rollup(df: pd.DataFrame) -> pd.DataFrame:
        fine = pd.DataFrame(
            {
                "event_type": df["event_type"].astype(str),
                "hr": df["hr"].astype(str),
                "v_units": df["v_units"],
                "n": df["n"],
            }
        )
        per_type = df.groupby("event_type", as_index=False)[["v_units", "n"]].sum()
        mid = per_type.assign(hr="ALL")[["event_type", "hr", "v_units", "n"]]
        total = pd.DataFrame(
            {
                "event_type": ["ALL"],
                "hr": ["ALL"],
                "v_units": [df["v_units"].sum()],
                "n": [df["n"].sum()],
            }
        )
        out = pd.concat([fine, mid, total], ignore_index=True)
        out["sum_value"] = out["v_units"].to_numpy(dtype=np.float64) / QUANT
        return out[["event_type", "hr", "n", "sum_value"]].astype({"n": "int64"})

    # the base aggregate is |types| x 24 rows — roll up in one block
    return base.repartition(1).map_batches(rollup, batch_format="pandas", batch_size=None)


def event_type_pivot(sf_dir: str) -> ray.data.Dataset:
    """Pivot: one row per user_id, one count column per event_type
    (n_<type>), plus n_total.  The observed type vocabulary is discovered
    with a tiny distinct pass (broadcast to the pivot stage), NOT
    hardcoded — at web scale the distinct pass is the standard prelude to
    any pivot.

    Shape: per-batch crosstab partial (rows leave each block already
    pivoted: one row per user per block), then a user-keyed finalize."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    types = sorted(
        r["event_type"]
        for r in ev.groupby("event_type").count().select_columns(["event_type"]).take_all()
    )
    cols = [f"n_{t}" for t in types]
    n_parts = n_hash_parts()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ct = pd.crosstab(df["user_id"], df["event_type"])
        ct = ct.reindex(columns=types, fill_value=0).astype(np.int64)
        ct.columns = cols
        ct = ct.reset_index()
        return ct.assign(upart=(ct["user_id"] % n_parts).astype("int32"))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("user_id", as_index=False)[cols].sum()
        out["n_total"] = out[cols].sum(axis=1)
        return out

    return (
        ev.map_batches(partial, batch_format="pandas")
        .groupby("upart")
        .map_groups(final, batch_format="pandas")
    )


# per-event_type sampling rates (numerator over SAMPLE_RATE_DEN): the
# downsample-the-head / keep-the-tail recipe every training-mix pipeline
# applies (e.g. keep all rare 'purchase' signals, thin the 'view' firehose)
STRATA_RATES = {"click": 5, "error": 10, "purchase": 10, "signup": 10, "view": 1}
STRATA_DEFAULT_RATE = 2
SAMPLE_RATE_DEN = 10


def sample_events_stratified(sf_dir: str) -> ray.data.Dataset:
    """Stratified deterministic hash sample: per-event_type keep rates,
    same multiplicative-hash filter as :func:`sample_events` (map-side,
    no RNG, reproducible across retries) with the threshold looked up per
    row from the strata table — unknown types fall back to
    STRATA_DEFAULT_RATE."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "user_id"]
    )
    thresh_of = {
        t: (SAMPLE_MOD * num) // SAMPLE_RATE_DEN for t, num in STRATA_RATES.items()
    }
    default_thresh = (SAMPLE_MOD * STRATA_DEFAULT_RATE) // SAMPLE_RATE_DEN

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        h = (df["event_id"].to_numpy(dtype=np.uint64) * np.uint64(SAMPLE_MULT)) % np.uint64(
            SAMPLE_MOD
        )
        limit = (
            df["event_type"].map(thresh_of).fillna(default_thresh).to_numpy(np.uint64)
        )
        return df[h < limit]

    return ev.map_batches(pick, batch_format="pandas")


# HyperLogLog distinct-count sketch (Flajolet et al. 2007, public paper).
# m = 64 buckets (top 6 hash bits), rho capped at 40 so the 2^(40-rho)
# register units sum exactly in int64 (64 buckets x 2^40 = 2^46 max; an
# uncapped rho of up to 59 would need 2^65).  The cap only fires with
# probability 2^-40 per bucket — unmeasurable in the estimate.
# Hash: full splitmix64 (public constants) — a multiplicative-only hash of
# sequential ids left enough structure to bias the estimate +80%, measured;
# the SQL oracle replicates splitmix bit-exactly with split 32x64 products
# (a full 64x64 mod-2^64 product overflows INT128).
# Small-range correction: linear counting (m ln(m/V), V = empty buckets)
# when the raw floor estimate <= 2.5m and V > 0 — injected as a
# 63-entry integer lookup shared verbatim with the oracle, so no
# transcendental evaluation order can diverge between numpy and DuckDB.
HLL_C1 = 0x9E3779B97F4A7C15
HLL_C2 = 0xBF58476D1CE4E5B9
HLL_C3 = 0x94D049BB133111EB
HLL_M = 64
HLL_BUCKET_SHIFT = 58  # 64 - log2(m)
HLL_RHO_CAP = 40
HLL_ALPHA = 0.709  # published alpha_64
HLL_NUM = HLL_ALPHA * (HLL_M * HLL_M) * float(1 << HLL_RHO_CAP)
# floor(m * ln(m / V)) for V = 1..63 (indexed V-1)
HLL_LINEAR_COUNT = tuple(
    int(np.floor(HLL_M * np.log(HLL_M / np.float64(v)))) for v in range(1, HLL_M)
)


def splitmix64(u: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (wraparound intended)."""
    with np.errstate(over="ignore"):
        z = u + np.uint64(HLL_C1)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(HLL_C2)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(HLL_C3)
        return z ^ (z >> np.uint64(31))


def _bitlen_u64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized bit length (no float log2 — inexact past 2^53)."""
    out = np.zeros(len(x), dtype=np.int64)
    v = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(s))
        out[big] += s
        v = np.where(big, v >> np.uint64(s), v)
    out += (v > 0).astype(np.int64)
    return out


def hll_distinct_users(sf_dir: str) -> ray.data.Dataset:
    """Approximate distinct user_id per event_type via a HyperLogLog
    sketch — the mergeable-register shape that replaces the exact
    two-phase distinct (:func:`distinct_users`) when the per-key distinct
    set no longer fits anywhere: ONLY m=64 int registers per key ever
    shuffle or merge, regardless of cardinality.

    Distribution: per-batch register partials (max rho per (type, bucket))
    combine map-side; the finalize merges register maxes per type and does
    the one-division estimate.  All register arithmetic is integer and the
    estimate is a single fixed-order float division, so the result is
    deterministic and bit-equal to the SQL oracle."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = splitmix64(df["user_id"].to_numpy(dtype=np.uint64))
        bucket = (h >> np.uint64(HLL_BUCKET_SHIFT)).astype(np.int64)
        r = h & np.uint64((1 << HLL_BUCKET_SHIFT) - 1)
        rho = np.minimum(1 + HLL_BUCKET_SHIFT - _bitlen_u64(r), HLL_RHO_CAP)
        out = pd.DataFrame(
            {"event_type": df["event_type"], "bucket": bucket, "rho": rho}
        )
        return out.groupby(["event_type", "bucket"], as_index=False)["rho"].max()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        regs = df.groupby(["event_type", "bucket"], as_index=False)["rho"].max()
        rows = []
        for t, g in regs.groupby("event_type"):
            units = np.int64(1) << (HLL_RHO_CAP - g["rho"].to_numpy(np.int64))
            s_units = int(units.sum()) + (HLL_M - len(g)) * (1 << HLL_RHO_CAP)
            est = int(np.floor(HLL_NUM / np.float64(s_units)))
            v_empty = HLL_M - len(g)
            if est <= (5 * HLL_M) // 2 and v_empty > 0:
                est = HLL_LINEAR_COUNT[v_empty - 1]
            rows.append((t, est, len(g)))
        return pd.DataFrame(rows, columns=["event_type", "est_users", "buckets_used"])

    return (
        ev.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .map_groups(final, batch_format="pandas")
    )


# KMV sketch size: estimate from the k-th smallest distinct hash.
KMV_K = 32


def kmv_distinct_users(sf_dir: str, k: int = KMV_K) -> ray.data.Dataset:
    """(event_type, est_users, n_kept) — K-Minimum-Values distinct sketch
    per event_type (Bar-Yossef et al. 2002): keep the ``k`` smallest
    splitmix64 hashes of the user ids; estimate = (k-1) * 2^64 // h_k.
    The second mergeable-cardinality shape next to the HLL registers —
    KMV also supports set-expression estimates (intersection/union via
    signature merge), which registers cannot.

    Exactness contract: splitmix64's finalizer is a BIJECTION on uint64,
    so distinct users == distinct hashes on both sides — no collision
    handling, and the estimate is one exact integer division (HUGEINT in
    the oracle, Python big-int here).  Below ``k`` distinct values the
    sketch IS the exact count (the standard KMV fallback).

    Scale shape: per-block bottom-``k`` partials (numpy partition over the
    deduped batch) combine map-side; only k slim rows per block reach the
    per-type finalize."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for t, g in df.groupby("event_type"):
            u = np.unique(g["user_id"].to_numpy(dtype=np.uint64))
            h = np.unique(splitmix64(u))
            if len(h) > k:
                h = np.partition(h, k - 1)[:k]
            frames.append(pd.DataFrame({"event_type": t, "h": h}))
        if not frames:  # empty block: pd.concat([]) raises
            return pd.DataFrame(
                {"event_type": pd.Series([], dtype=object),
                 "h": pd.Series([], dtype="int64")}
            )
        out = pd.concat(frames, ignore_index=True)
        # uint64 survives the shuffle as int64 bit-pattern (sign-agnostic
        # order is restored in the finalize by viewing back as uint64)
        out["h"] = out["h"].to_numpy().view(np.int64)
        return out

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for t, g in df.groupby("event_type"):
            hs = np.unique(g["h"].to_numpy().view(np.uint64))
            if len(hs) < k:
                est = len(hs)
            else:
                est = ((k - 1) << 64) // int(np.sort(hs)[k - 1])
            rows.append((t, int(est), int(min(len(hs), k))))
        return pd.DataFrame(rows, columns=["event_type", "est_users", "n_kept"])

    return (
        ev.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .map_groups(final, batch_format="pandas")
    )


def kmv_overlap(sf_dir: str, k: int = KMV_K) -> pa.Table:
    """(type_a, type_b, n_common, est_union, est_inter) — estimated user-set
    overlap for every event-type pair from MERGED KMV signatures: the set
    expression registers (HLL) cannot do.  M = the k smallest hashes of the
    UNION of the two signatures; est_union from M's k-th minimum; n_common
    = signature hashes present in M and BOTH sets; est_inter = n_common *
    est_union // k (one exact integer division).  Below k union hashes the
    signatures ARE the full sets, so all three outputs are exact.

    Scale shape: the per-type signature build is the kmv_distinct_users
    partial (bottom-k per block, one slim fold); event types are a dim, so
    the |types| x k signature table is sketch-sized driver state — the
    pagerank dense-vector class — and the pair expansion is driver-side
    numpy over it."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for t, g in df.groupby("event_type"):
            u = np.unique(g["user_id"].to_numpy(dtype=np.uint64))
            h = np.unique(splitmix64(u))
            if len(h) > k:
                h = np.partition(h, k - 1)[:k]
            frames.append(pd.DataFrame({"event_type": t, "h": h}))
        if not frames:  # empty block: pd.concat([]) raises
            return pd.DataFrame(
                {"event_type": pd.Series([], dtype=object),
                 "h": pd.Series([], dtype="int64")}
            )
        out = pd.concat(frames, ignore_index=True)
        out["h"] = out["h"].to_numpy().view(np.int64)
        return out

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for t, g in df.groupby("event_type"):
            hs = np.unique(g["h"].to_numpy().view(np.uint64))
            rows.append(pd.DataFrame({"event_type": t, "h": np.sort(hs)[:k].view(np.int64)}))
        return pd.concat(rows, ignore_index=True)

    sig_ds = (
        ev.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .map_groups(fold, batch_format="pandas")
    )
    sigs: dict[str, list] = {}
    for b in sig_ds.iter_batches(batch_format="pyarrow"):
        hs = b["h"].to_numpy().view(np.uint64)
        for t, h in zip(b["event_type"].to_pylist(), hs):
            sigs.setdefault(t, []).append(h)
    sigs = {t: np.sort(np.array(v, dtype=np.uint64)) for t, v in sigs.items()}

    ta_l, tb_l, nc_l, eu_l, ei_l = [], [], [], [], []
    for ta in sorted(sigs):
        for tb in sorted(sigs):
            if tb <= ta:
                continue
            sa, sb = sigs[ta], sigs[tb]
            union = np.unique(np.concatenate([sa, sb]))
            m = union[: min(k, len(union))]
            nc = int(len(np.intersect1d(np.intersect1d(m, sa), sb)))
            if len(union) < k:
                eu, ei = len(union), nc
            else:
                eu = ((k - 1) << 64) // int(m[k - 1])
                ei = nc * eu // k
            ta_l.append(ta), tb_l.append(tb)
            nc_l.append(nc), eu_l.append(int(eu)), ei_l.append(int(ei))
    return pa.table(
        {
            "type_a": pa.array(ta_l, type=pa.string()),
            "type_b": pa.array(tb_l, type=pa.string()),
            "n_common": pa.array(nc_l, type=pa.int64()),
            "est_union": pa.array(eu_l, type=pa.int64()),
            "est_inter": pa.array(ei_l, type=pa.int64()),
        }
    )


def events_regression(sf_dir: str) -> ray.data.Dataset:
    """Grouped least-squares: per event_type, slope/intercept of value on
    hour-of-day — the sufficient-statistics aggregation pattern (only five
    exact int64 sums per group ever shuffle: n, Sx, Sy, Sxx, Sxy with y in
    2^-20 units).  The closed-form solve happens once per group on exact
    Python big-ints (numerator/denominator can pass 2^63 at corpus scale),
    then TWO fixed-order float ops that the SQL oracle replicates:
    slope = double(num) / (double(den) * QUANT), intercept =
    (double(Sy)/QUANT - slope * double(Sx)) / double(n)."""
    from ahrd_ray.config import QUANT

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df["ts"].dt.hour.to_numpy(np.int64)
        yu = _qunits(df["value"].to_numpy())
        out = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "n": np.ones(len(df), dtype=np.int64),
                "sx": x,
                "syu": yu,
                "sxx": x * x,
                "sxyu": x * yu,
            }
        )
        return out.groupby("event_type", as_index=False).sum()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for t, g in df.groupby("event_type"):
            n = int(g["n"].sum())
            sx, syu = int(g["sx"].sum()), int(g["syu"].sum())
            sxx, sxyu = int(g["sxx"].sum()), int(g["sxyu"].sum())
            num = n * sxyu - sx * syu  # exact big-int
            den = n * sxx - sx * sx
            slope = float(num) / (float(den) * QUANT)
            intercept = (float(syu) / QUANT - slope * float(sx)) / float(n)
            rows.append((t, n, slope, intercept))
        return pd.DataFrame(rows, columns=["event_type", "n", "slope", "intercept"])

    return (
        ev.map_batches(partial, batch_format="pandas")
        .groupby("event_type")
        .map_groups(final, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Skew-aware join (hot keys broadcast, cold keys hash-joined)
# ---------------------------------------------------------------------------

# a key is "hot" when it carries more than 1/HOT_KEY_DIVISOR of all fact
# rows — so the hot set is at most HOT_KEY_DIVISOR keys, a bounded driver
# collect by construction (the same bounded-small-side contract as the
# broadcast dimension tables)
HOT_KEY_DIVISOR = 64


def skew_join_events_customers(sf_dir: str) -> ray.data.Dataset:
    """Skew-aware inner join events.user_id = customer.c_custkey.

    The north-rule scenario: a handful of hot entities (bot users, a viral
    page) dominate the fact table, so a plain hash join puts most of the
    corpus through one aggregator partition.  Shape (the Spark-AQE skew
    recipe re-expressed in Dataset terms):

    1. per-key fact counts — map-side partial + tiny final groupby (one
       row per distinct key), then keys with ``n > total/HOT_KEY_DIVISOR``
       are hot: **at most HOT_KEY_DIVISOR of them ever**, so collecting
       them (plus their dimension rows) to the driver is O(64), not O(data);
    2. hot fact rows join map-side against the broadcast hot-dim dict —
       they NEVER enter the shuffle;
    3. cold fact rows go through the normal partitioned hash join (no
       single partition can be hot: every remaining key is < 1/64 of rows);
    4. union of the two streams.

    The split reads the pruned fact columns twice — two embarrassingly-
    parallel columnar scans, which at 100 TB cost far less than shuffling
    a hot key's rows through one reducer (scans scale with nodes; a hot
    partition does not).  Result is identical to the plain join (the SQL
    oracle) for ANY hot threshold.
    """
    from ahrd_ray.stages.partitioning import join_parts

    ev_cols = ["event_id", "user_id"]

    def counts_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("user_id", as_index=False).size()
        return out.rename(columns={"size": "n"})

    ev = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=ev_cols)
    per_key = (
        ev.map_batches(counts_partial, batch_format="pandas")
        .groupby("user_id")
        .map_groups(
            lambda df: df.groupby("user_id", as_index=False)["n"].sum(),
            batch_format="pandas",
        )
        .materialize()  # consumed twice (total + hot filter); distinct-key-sized
    )
    total = per_key.sum("n")
    thresh = total / HOT_KEY_DIVISOR
    hot_keys = {
        int(r["user_id"])
        for r in per_key.map_batches(
            lambda df, t=thresh: df[df["n"] > t], batch_format="pandas"
        ).take_all()  # bounded: <= HOT_KEY_DIVISOR rows by construction
    }

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    hot_dim = {}
    if hot_keys:
        hot_dim = {
            int(r["c_custkey"]): r["c_name"]
            for r in cust.map_batches(
                lambda df, hk=hot_keys: df[df["c_custkey"].isin(hk)],
                batch_format="pandas",
            ).take_all()  # bounded by |hot_keys|
        }
    hot_ref = ray.put(hot_dim)

    hot_arr = pa.array(sorted(hot_keys), type=pa.int64())
    joined_schema = pa.schema(
        [("event_id", pa.int64()), ("user_id", pa.int64()), ("c_name", pa.string())]
    )

    def hot_side(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ahrd_ray.stages.score import get_broadcast

        lut = get_broadcast(hot_ref)  # dict of <= HOT_KEY_DIVISOR entries
        dim_k = pa.array(list(lut.keys()), type=pa.int64())
        dim_v = pa.array(list(lut.values()), type=pa.string())
        sel = batch.filter(pc.is_in(batch["user_id"], value_set=hot_arr))
        # vectorized broadcast lookup: index_in + take (C kernels); a hot
        # key missing from the dimension yields null -> dropped (inner join)
        idx = pc.index_in(sel["user_id"], value_set=dim_k)
        names = pc.take(dim_v, idx)
        out = pa.table(
            {"event_id": sel["event_id"], "user_id": sel["user_id"], "c_name": names},
            schema=joined_schema,
        )
        return out.filter(pc.is_valid(names))

    def cold_side(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.invert(pc.is_in(batch["user_id"], value_set=hot_arr))
        )

    hot_joined = ev.map_batches(hot_side, batch_format="pyarrow")
    if per_key.count() == len(hot_keys):
        # every key is hot (tiny-corpus degenerate case): nothing to
        # hash-join — emitting the empty-side join would wedge on a
        # zero-block left input
        return hot_joined
    cold = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=ev_cols
    ).map_batches(cold_side, batch_format="pyarrow")
    cold_joined = cold.join(
        cust,
        "inner",
        num_partitions=join_parts(1),
        on=("user_id",),
        right_on=("c_custkey",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    ).map_batches(
        lambda df: df[["event_id", "user_id", "c_name"]], batch_format="pandas"
    )
    return hot_joined.union(cold_joined)


# ---------------------------------------------------------------------------
# Bloom-filter-prefiltered semi-join aggregate
# ---------------------------------------------------------------------------

# shared bitmap kernels (same constants/positions as before the extraction)
from ahrd_ray.functions.bloom import (  # noqa: E402
    BLOOM_K,
    BLOOM_M_BITS,
    bloom_positions as _bloom_positions,
)


def bloom_semi_join_revenue(sf_dir: str) -> ray.data.Dataset:
    """Per-supplier item count + revenue over lineitems of URGENT orders —
    a Bloom-prefiltered exact semi-join aggregate.

    The 100-TB shape: the fact table (lineitem) is huge, the qualifying
    key set (urgent orders) much smaller but too big to broadcast exactly
    as a hash set per task at full scale.  So:

    1. build-side scan emits ONE fixed-size partial bitmap per block
       (BLOOM_K multiplicative-hash bits per key); the driver ORs them —
       a constant-size (16 KiB) reduction regardless of data size — and
       broadcasts the final bitmap once (``ray.put``);
    2. the fact scan drops every row whose key misses any of the K bits
       MAP-SIDE — only survivors (true matches + the bitmap's false-
       positive rate) enter the network;
    3. a partitioned hash join against the distinct build keys removes
       the false positives, so the result is EXACT (Bloom filters are
       one-sided) — the SQL oracle is the plain semi-join;
    4. map-side partial aggregation per supplier before the final tiny
       groupby (revenue summed in exact int64 2^-20 units).
    """
    from ahrd_ray.stages.partitioning import join_parts

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )

    def urgent_keys(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[
            df["o_orderpriority"] == "1-URGENT", ["o_orderkey"]
        ].drop_duplicates()

    keys_ds = orders.map_batches(urgent_keys, batch_format="pandas")

    # constant-size reduction: one 16 KiB row per block -> OR on the driver
    from ahrd_ray.functions.bloom import build_bloom_ref

    bm_ref = build_bloom_ref(keys_ds, ["o_orderkey"])

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def prefilter(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.functions.bloom import bloom_test
        from ahrd_ray.stages.score import get_broadcast

        bm = get_broadcast(bm_ref)
        out = df[bloom_test(bm, df["l_orderkey"].to_numpy())]
        rev = out["l_extendedprice"].to_numpy() * (1.0 - out["l_discount"].to_numpy())
        return pd.DataFrame(
            {
                "l_orderkey": out["l_orderkey"],
                "l_suppkey": out["l_suppkey"],
                "rev_units": _qunits(rev),
            }
        )

    survivors = li.map_batches(prefilter, batch_format="pandas")
    verified = survivors.join(
        keys_ds,
        "inner",
        num_partitions=join_parts(1),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def agg_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("l_suppkey", as_index=False).agg(
            n_items=("rev_units", "size"), rev_units=("rev_units", "sum")
        )
        return out

    def final(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.config import QUANT

        g = df.groupby("l_suppkey", as_index=False)[["n_items", "rev_units"]].sum()
        g["revenue"] = g["rev_units"].to_numpy(dtype=np.float64) / QUANT
        return g[["l_suppkey", "n_items", "revenue"]].astype({"n_items": "int64"})

    return (
        verified.map_batches(agg_partial, batch_format="pandas")
        .groupby("l_suppkey")
        .map_groups(final, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Left-outer join (null-preserving)
# ---------------------------------------------------------------------------

def customer_order_counts(sf_dir: str) -> ray.data.Dataset:
    """Per-customer order count INCLUDING zero-order customers — a
    distributed left-outer hash join (the null-preserving join type; the
    module's other joins are inner/semi/anti).

    The orders side pre-aggregates to one row per customer BEFORE the join
    (map-side partial + small groupby), so the outer join moves |customers|
    + |distinct custkeys| rows, never |orders|."""
    from ahrd_ray.stages.partitioning import budgeted_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("o_custkey", as_index=False).size()
        return out.rename(columns={"size": "n_orders"})

    # empty-block join poisoning is handled centrally by
    # install_shuffle_schema_guard — no pre-join scrub shuffle needed
    per_cust = (
        orders.map_batches(partial, batch_format="pandas")
        .groupby("o_custkey")
        .map_groups(
            lambda df: df.groupby("o_custkey", as_index=False)["n_orders"].sum(),
            batch_format="pandas",
        )
    )

    joined = budgeted_join(
        cust,
        per_cust,
        on=("c_custkey",),
        right_on=("o_custkey",),
        n_joins=1,
        join_type="left_outer",
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_orders"].fillna(0).astype("int64")
        return pd.DataFrame({"c_custkey": df["c_custkey"], "n_orders": n})

    return joined.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------------------------
# Chained two-join analytical query (TPC-H Q3 shape)
# ---------------------------------------------------------------------------

Q3_SEGMENT = "BUILDING"
Q3_TOP_N = 10


def q3_top_orders(sf_dir: str, n: int = Q3_TOP_N) -> ray.data.Dataset:
    """Top-N orders by revenue for one market segment — customer ⋈ orders
    ⋈ lineitem, the canonical chained-join analytical query.

    Shape notes for 100 TB: the customer side reduces to qualifying KEYS
    before joining (column-pruned semi-join input); both joins run under
    the per-pipeline aggregator budget (n_joins=2 — the round-2 deadlock
    constraint); revenue sums exact int64 2^-20 units map-side per order
    before the final per-block-partial top-N, so the sort moves blocks x N
    rows."""
    from ahrd_ray.stages.partitioning import budgeted_join

    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )

    def seg_keys(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["c_mktsegment"] == Q3_SEGMENT, ["c_custkey"]]

    keys = cust.map_batches(seg_keys, batch_format="pandas")

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    seg_orders = budgeted_join(
        orders, keys, on=("o_custkey",), right_on=("c_custkey",), n_joins=2
    )

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def li_prep(df: pd.DataFrame) -> pd.DataFrame:
        rev = df["l_extendedprice"].to_numpy() * (1.0 - df["l_discount"].to_numpy())
        out = pd.DataFrame({"l_orderkey": df["l_orderkey"], "rev_units": _qunits(rev)})
        return out.groupby("l_orderkey", as_index=False).sum()

    li_partial = li.map_batches(li_prep, batch_format="pandas")

    joined = budgeted_join(
        li_partial, seg_orders, on=("l_orderkey",), right_on=("o_orderkey",), n_joins=2
    )

    from ahrd_ray.config import QUANT

    def per_order(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["l_orderkey", "o_orderdate"], as_index=False)["rev_units"].sum()
        return g

    def partial_topn(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["rev_units", "l_orderkey"], ascending=[False, True], kind="mergesort"
        ).head(n)

    top = (
        joined.map_batches(per_order, batch_format="pandas")
        .groupby("l_orderkey")
        .map_groups(
            lambda df: df.groupby(["l_orderkey", "o_orderdate"], as_index=False)[
                "rev_units"
            ].sum(),
            batch_format="pandas",
        )
        .map_batches(partial_topn, batch_format="pandas")
        .sort(["rev_units", "l_orderkey"], descending=[True, False])
        .limit(n)
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderkey": df["l_orderkey"].astype("int64"),
                "o_orderdate": df["o_orderdate"],
                "revenue": df["rev_units"].to_numpy(dtype=np.float64) / QUANT,
            }
        )

    return top.map_batches(finish, batch_format="pandas")


# ---------------------------------------------------------------------------
# Full-outer alignment (both-sides null-preserving)
# ---------------------------------------------------------------------------

def error_purchase_matrix(sf_dir: str) -> ray.data.Dataset:
    """Per (user, day) error count vs purchase count, keeping days where
    EITHER occurred — full-outer-join semantics (the ops-dashboard shape:
    incidents against conversions; a day can have errors and no purchases
    or vice versa, and both sides must survive).

    Implementation note: Ray's hash join aggregator builds a SCHEMA-LESS
    empty Arrow table for a partition that received zero blocks from one
    side, and pyarrow's join then KeyErrors on the missing key column —
    so a ds.join(full_outer) is fragile whenever a partition is one-sided
    (guaranteed to happen somewhere at small inputs, possible under skew
    at any size).  Since both sides pre-aggregate to one row per (user,
    day) anyway, the scale-robust expression of the full outer is a UNION
    of measure-tagged rows + one groupby-sum: identical semantics, one
    all-to-all instead of a join, and no empty-partition failure mode.
    The day is an epoch-day int64 (timestamp microseconds floor-divided)
    — no date-type round-trip ambiguity against the SQL oracle."""
    US_PER_DAY = 86_400_000_000

    def side(event_type: str, cnt_col: str, zero_col: str):
        ev = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
        ).filter(expr=f"event_type == '{event_type}'")

        def partial(batch: pa.Table) -> pd.DataFrame:
            # normalize to microseconds first: parquet written from pandas
            # carries timestamp[ns], the synthetic tables timestamp[us]
            ts = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            day = ts // US_PER_DAY
            df = pd.DataFrame({"user_id": batch["user_id"].to_numpy(), "day": day})
            out = df.groupby(["user_id", "day"], as_index=False).size()
            out = out.rename(columns={"size": cnt_col})
            out[zero_col] = np.int64(0)
            return out[["user_id", "day", "n_errors", "n_purchases"]].astype("int64")

        return ev.map_batches(partial, batch_format="pyarrow")

    errors = side("error", "n_errors", "n_purchases")
    purchases = side("purchase", "n_purchases", "n_errors")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["user_id", "day"], as_index=False)[
            ["n_errors", "n_purchases"]
        ].sum()
        return out.astype("int64")

    return (
        errors.union(purchases)
        .groupby(["user_id", "day"])
        .map_groups(merge, batch_format="pandas")
    )


def running_totals(sf_dir: str) -> ray.data.Dataset:
    """Per-user running total + previous-event value (the cumulative-window
    and lag() shapes): events ordered by (ts, event_id) within each user,
    ``running_units`` the exact int64 2^-20-unit cumulative sum of value,
    ``prev_value`` the prior event's raw value (null on the first).

    Scale shape: hash-partition by user (key-complete partitions, the
    sessionize layout) -> one vectorized sort + groupby-cumsum/shift per
    partition.  Unit arithmetic keeps the cumulative sums bit-equal to the
    SQL window regardless of partitioning."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )
    n_parts = n_hash_parts()

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(upart=(df["user_id"] % n_parts).astype("int32"))

    def windows(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        units = np.floor(df["value"].to_numpy() * 1048576.0 + 0.5).astype(np.int64)
        df = df.assign(u=units)
        g = df.groupby("user_id")
        df["running_units"] = g["u"].cumsum().astype(np.int64)
        df["prev_value"] = g["value"].shift()
        return df[["user_id", "event_id", "ts", "running_units", "prev_value"]]

    return (
        ev.map_batches(add_part, batch_format="pandas")
        .groupby("upart")
        .map_groups(windows, batch_format="pandas")
    )


def users_both_types(sf_dir: str) -> ray.data.Dataset:
    """(user_id) — users with BOTH a 'click' and a 'purchase' event: the
    set-intersection shape (INTERSECT of two distinct key sets).  Map-side
    per-block distinct (user, has_click, has_purchase) flags combine by OR
    in a user-hash finalize — the shuffle carries one row per (block,
    user), never the event stream."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    n_parts = n_hash_parts()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        et = df["event_type"].to_numpy()
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(),
                "c": (et == "click").astype(np.int8),
                "p": (et == "purchase").astype(np.int8),
            }
        )
        out = out.groupby("user_id", as_index=False).max()
        out = out[(out["c"] > 0) | (out["p"] > 0)]
        out["upart"] = (out["user_id"] % n_parts).astype("int32")
        return out

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("user_id", as_index=False)[["c", "p"]].max()
        return g.loc[(g["c"] > 0) & (g["p"] > 0), ["user_id"]].astype(
            {"user_id": "int64"}
        )

    return (
        ev.map_batches(partial, batch_format="pandas")
        .groupby("upart")
        .map_groups(finalize, batch_format="pandas")
    )


EVENT_SEQ_CAP = 20


def event_sequences(sf_dir: str) -> ray.data.Dataset:
    """(user_id, n_events, seq) — per user, the comma-joined event-type
    sequence of their first EVENT_SEQ_CAP events in (ts, event_id) order:
    the ordered string_agg / collect_list shape (session-path mining).
    The cap bounds the output row width at any scale (the reference's
    bounded-candidate-list move); key-complete hash partitions, one
    vectorized sort + cumcount + per-user join per partition."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
    )
    n_parts = n_hash_parts()

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(upart=(df["user_id"] % n_parts).astype("int32"))

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        df = df[df.groupby("user_id").cumcount() < EVENT_SEQ_CAP]
        g = df.groupby("user_id", as_index=False).agg(
            n_events=("event_id", "size"), seq=("event_type", ",".join)
        )
        return g.astype({"user_id": "int64", "n_events": "int64"})

    return (
        ev.map_batches(add_part, batch_format="pandas")
        .groupby("upart")
        .map_groups(agg, batch_format="pandas")
    )


# one-pass quantile sketch: bottom-k uniform row sample.  2^64-odd
# multiplier -> injective hash (no ties), so the sample — and therefore the
# estimate — is DETERMINISTIC and order/partitioning-independent, unlike
# GK/t-digest sketches whose merge order changes the summary.
QSKETCH_K = 1024
QSKETCH_MULT = 6364136223846793005  # odd (Knuth MMIX LCG), injective mod 2^64


def quantile_sketch(sf_dir: str) -> "pd.DataFrame":
    """(q, value) — one-pass mergeable quantile ESTIMATE of events.value:
    the exact quantiles of a deterministic uniform bottom-k sample (the k
    smallest hash values of the unique row key).  Complements
    :func:`price_quantiles` (exact, but needs a binnable value domain and
    two passes): this needs ONE streaming pass, no domain knowledge, and a
    constant-size state — per-block partial bottom-k combines map-side and
    merges associatively, so at 100 TB only blocks x k slim rows move.
    Rank error is the classic uniform-sampling bound (~n/sqrt(k) ranks);
    the pytest gate measures it against the exact quantiles.  The DuckDB
    oracle replays the identical hash order, so the output is bit-exact."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        h = df["event_id"].to_numpy(dtype=np.uint64) * np.uint64(QSKETCH_MULT)
        out = pd.DataFrame({"h": h, "value": df["value"]})
        return out.nsmallest(QSKETCH_K, "h")

    # blocks x k rows -> the global bottom-k; constant-size (k) result, so
    # the driver-side finish is broadcast-scale by construction
    sample = (
        ev.map_batches(partial, batch_format="pandas")
        .sort("h")
        .limit(QSKETCH_K)
        .to_pandas()
    )
    vals = np.sort(sample["value"].to_numpy(), kind="stable")
    n = len(vals)
    rows = []
    for num, den in QUANTILE_QS:
        r = (num * n + den - 1) // den  # exact ceil(q*n), 1-based
        rows.append((num / den, float(vals[r - 1])))
    return pd.DataFrame(rows, columns=["q", "value"])


# ---------------------------------------------------------------------------
# TPC-H Q5 shape: local-supplier revenue by nation (6-table join chain)
# ---------------------------------------------------------------------------

Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1997-01-01"


def q5_local_supplier_revenue(sf_dir: str) -> ray.data.Dataset:
    """(n_name, revenue) — revenue from intra-nation customer/supplier
    pairs in one region and one order year: the canonical 6-table join
    chain (region ⋈ nation ⋈ customer ⋈ orders ⋈ lineitem ⋈ supplier).

    Shape notes for 100 TB: region/nation are SPEC-CONSTANT 5/25-row
    dimensions (not sf-scaled), so they load driver-side once and ship as
    one broadcast dict; customer/supplier reduce to slim (key, nationkey)
    pairs filtered to the region's nations MAP-SIDE before any shuffle;
    orders prune to the date window at the read; lineitem pre-aggregates
    revenue units per (orderkey, suppkey) map-side.  The three sf-scaled
    joins run under one aggregator budget (n_joins=3), chained outputs
    scrubbed of schema-less empty partitions; the c_nationkey =
    s_nationkey equality applies as a map-side filter after the supplier
    join, and the final per-nation rollup is a 5-row groupby."""
    import pyarrow.parquet as pq_

    from ahrd_ray.stages.partitioning import budgeted_join
    from ahrd_ray.stages.score import get_broadcast

    nat = pq_.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq_.read_table(f"{sf_dir}/region.parquet").to_pandas()
    rk = reg.loc[reg["r_name"] == Q5_REGION, "r_regionkey"].iloc[0]
    nat = nat[nat["n_regionkey"] == rk]
    names_ref = ray.put(dict(zip(nat["n_nationkey"].astype(int), nat["n_name"])))

    def in_region_cust(df: pd.DataFrame) -> pd.DataFrame:
        names = get_broadcast(names_ref)
        out = df[df["c_nationkey"].isin(names)]
        return out[["c_custkey", "c_nationkey"]]

    def in_region_supp(df: pd.DataFrame) -> pd.DataFrame:
        names = get_broadcast(names_ref)
        out = df[df["s_nationkey"].isin(names)]
        return out[["s_suppkey", "s_nationkey"]]

    # The schema-less empty blocks an over-parallelized small-table read
    # emits (16 read tasks over 10 supplier rows at sf0.001) are handled
    # centrally by install_shuffle_schema_guard — no per-input
    # drop_empty_blocks scrub (a full extra shuffle each) is needed.
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(in_region_cust, batch_format="pandas")
    supp = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).map_batches(in_region_supp, batch_format="pandas")

    lo = np.datetime64(Q5_DATE_LO)
    hi = np.datetime64(Q5_DATE_HI)

    def window_orders(df: pd.DataFrame) -> pd.DataFrame:
        d = df["o_orderdate"].to_numpy()
        return df.loc[(d >= lo) & (d < hi), ["o_orderkey", "o_custkey"]]

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(window_orders, batch_format="pandas")

    j1 = budgeted_join(
        orders, cust, on=("o_custkey",), right_on=("c_custkey",), n_joins=3
    )

    def li_prep(df: pd.DataFrame) -> pd.DataFrame:
        rev = df["l_extendedprice"].to_numpy() * (1.0 - df["l_discount"].to_numpy())
        out = pd.DataFrame(
            {
                "l_orderkey": df["l_orderkey"],
                "l_suppkey": df["l_suppkey"],
                "rev_units": _qunits(rev),
            }
        )
        return out.groupby(["l_orderkey", "l_suppkey"], as_index=False).sum()

    li = ray.data.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(li_prep, batch_format="pandas")

    j2 = budgeted_join(
        li, j1, on=("l_orderkey",), right_on=("o_orderkey",), n_joins=3
    )
    j3 = budgeted_join(
        j2, supp, on=("l_suppkey",), right_on=("s_suppkey",), n_joins=3
    )

    def local_partial(df: pd.DataFrame) -> pd.DataFrame:
        names = get_broadcast(names_ref)
        df = df[df["c_nationkey"].to_numpy() == df["s_nationkey"].to_numpy()]
        out = df.groupby("c_nationkey", as_index=False)["rev_units"].sum()
        out["n_name"] = out["c_nationkey"].map(names)
        return out[["n_name", "rev_units"]]

    from ahrd_ray.config import QUANT

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("n_name", as_index=False)["rev_units"].sum()
        g["revenue"] = g["rev_units"].to_numpy(dtype=np.float64) / QUANT
        return g[["n_name", "revenue"]]

    return (
        j3.map_batches(local_partial, batch_format="pandas")
        .groupby("n_name")
        .map_groups(finish, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Column profiling (data-quality report over a fact table)
# ---------------------------------------------------------------------------

PROFILE_COLS = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


def lineitem_profile(sf_dir: str) -> ray.data.Dataset:
    """(col, n_rows, n_nulls, n_distinct, min_v, max_v) per profiled
    lineitem column — the one-pass data-quality profile (Deequ/TFDV-style)
    a pipeline runs before trusting a new drop.

    Scale shape: rows/nulls/min/max fold per block into ONE tiny partial
    row per (block, column) — no shuffle; exact distinct counts shuffle
    only per-block-unique (column, value) pairs hash-partitioned by value
    bits, count per column finalizes map-side per partition, and the
    driver folds a parts x columns table.  One read, columns pruned to the
    profiled set."""
    n_parts = n_hash_parts()
    ncols = len(PROFILE_COLS)

    li = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=PROFILE_COLS)

    def stat_partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for i, c in enumerate(PROFILE_COLS):
            v = df[c]
            rows.append(
                (
                    i,
                    np.int64(len(v)),
                    np.int64(v.isna().sum()),
                    float(v.min()),
                    float(v.max()),
                )
            )
        return pd.DataFrame(
            rows, columns=["cid", "n_rows", "n_nulls", "min_v", "max_v"]
        )

    stats = (
        li.map_batches(stat_partial, batch_format="pandas")
        .to_pandas()  # bounded: blocks x |PROFILE_COLS| tiny partial rows
        .groupby("cid")
        .agg(
            n_rows=("n_rows", "sum"),
            n_nulls=("n_nulls", "sum"),
            min_v=("min_v", "min"),
            max_v=("max_v", "max"),
        )
    )

    def uniq_partial(df: pd.DataFrame) -> pd.DataFrame:
        parts = []
        for i, c in enumerate(PROFILE_COLS):
            u = df[c].dropna().unique()
            parts.append(pd.DataFrame({"cid": np.int64(i), "v": u.astype(np.float64)}))
        out = pd.concat(parts, ignore_index=True)
        bits = out["v"].to_numpy(dtype=np.float64).view(np.int64)
        out["vpart"] = ((out["cid"].to_numpy() * 31 + bits) % n_parts).astype("int32")
        return out

    def count_distinct(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["cid", "v"])
        return d.groupby("cid", as_index=False).size().rename(columns={"size": "nd"})

    nd = (
        li.map_batches(uniq_partial, batch_format="pandas")
        .groupby("vpart")
        .map_groups(count_distinct, batch_format="pandas")
        .to_pandas()  # bounded: parts x |PROFILE_COLS| rows
        .groupby("cid")["nd"]
        .sum()
    )

    out = pd.DataFrame(
        {
            "col": PROFILE_COLS,
            "n_rows": [np.int64(stats.loc[i, "n_rows"]) for i in range(ncols)],
            "n_nulls": [np.int64(stats.loc[i, "n_nulls"]) for i in range(ncols)],
            "n_distinct": [np.int64(nd.get(i, 0)) for i in range(ncols)],
            "min_v": [float(stats.loc[i, "min_v"]) for i in range(ncols)],
            "max_v": [float(stats.loc[i, "max_v"]) for i in range(ncols)],
        }
    )
    return ray.data.from_pandas(out)


# ---------------------------------------------------------------------------
# Moving window frame (ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
# ---------------------------------------------------------------------------

MOVING_FRAME = 3  # current row + 2 preceding


def moving_frame_sums(sf_dir: str) -> ray.data.Dataset:
    """(event_id, user_id, frame_sum_units, frame_n) — per event, the sum
    and count of the trailing 3-row value frame within the user's history
    ordered by (ts, event_id): the ROWS-frame window aggregate (moving
    average = frame_sum_units / frame_n, kept as exact int64 units so the
    oracle hashes bit-equal).

    Scale shape: hash-partition by user (key-complete, like sessionize),
    one vectorized sort + grouped rolling sum per partition — no per-row
    Python, no global sort."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )
    n_parts = n_hash_parts()

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(upart=(df["user_id"] % n_parts).astype("int32"))

    def frames(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        qv = _qunits(df["value"].to_numpy())
        g = df.assign(qv=qv).groupby("user_id")["qv"]
        # rolling sums of int64 units go through float64 — exact while the
        # 3-row frame total stays < 2^53 units (value magnitudes are far
        # below that; the q20 convention's standing bound)
        s = g.rolling(MOVING_FRAME, min_periods=1).sum().to_numpy()
        n = np.minimum(df.groupby("user_id").cumcount().to_numpy() + 1, MOVING_FRAME)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "frame_sum_units": s.astype(np.int64),
                "frame_n": n.astype(np.int64),
            }
        )

    return (
        ev.map_batches(add_part, batch_format="pandas")
        .groupby("upart")
        .map_groups(frames, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Funnel analysis (ordered step conversion per user)
# ---------------------------------------------------------------------------

FUNNEL_STEPS = ("view", "click", "purchase")
FUNNEL_WINDOW_MIN = 1440  # each step must land within 24h of the previous


def funnel_steps(sf_dir: str) -> ray.data.Dataset:
    """(user_id, steps_completed) for every user who entered the funnel
    (has a 'view'): 2 means a 'click' STRICTLY after the first view and
    within FUNNEL_WINDOW_MIN minutes of it, 3 a 'purchase' likewise after
    that click — the windowed ordered-step conversion query of product
    analytics (the window is what makes conversion non-trivial: an
    unbounded funnel saturates on any long-lived user).

    Scale shape: user-hash partitions are key-complete (the sessionize
    pattern); within a partition the three step times resolve with
    groupby-min + map lookups — no per-user Python, no global sort."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "user_id", "event_type"]
    )
    n_parts = n_hash_parts()

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        keep = df[df["event_type"].isin(FUNNEL_STEPS)]
        return keep.assign(upart=(keep["user_id"] % n_parts).astype("int32"))

    def steps(df: pd.DataFrame) -> pd.DataFrame:
        s1, s2, s3 = FUNNEL_STEPS
        t1 = df[df["event_type"] == s1].groupby("user_id")["ts"].min()
        w = pd.Timedelta(minutes=FUNNEL_WINDOW_MIN)
        c = df[df["event_type"] == s2]
        base1 = c["user_id"].map(t1)
        c = c[(c["ts"] > base1) & (c["ts"] <= base1 + w)]
        t2 = c.groupby("user_id")["ts"].min()
        p = df[df["event_type"] == s3]
        base2 = p["user_id"].map(t2)
        p = p[(p["ts"] > base2) & (p["ts"] <= base2 + w)]
        t3 = p.groupby("user_id")["ts"].min()
        users = t1.index.to_numpy()
        completed = (
            1
            + pd.Series(users).isin(t2.index).to_numpy().astype(np.int64)
            + pd.Series(users).isin(t3.index).to_numpy().astype(np.int64)
        )
        return pd.DataFrame(
            {"user_id": users.astype(np.int64), "steps_completed": completed}
        )

    return (
        ev.map_batches(add_part, batch_format="pandas")
        .groupby("upart")
        .map_groups(steps, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Correlated-subquery shape: orders above their customer's own average
# ---------------------------------------------------------------------------


def above_avg_orders(sf_dir: str) -> ray.data.Dataset:
    """(o_orderkey, o_custkey, price_units) — orders whose price exceeds
    the placing customer's average order price: the classic correlated
    subquery, decorrelated into per-key aggregate + join + map-side filter.

    Exactness: the comparison is cross-multiplied integer arithmetic
    (price_units * n_orders > sum_units), so there is NO division and the
    oracle replicates it bit-exactly — avg-as-double would diverge between
    numpy and DuckDB in the last ulp."""
    from ahrd_ray.stages.partitioning import budgeted_join

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"],
                "o_custkey": df["o_custkey"],
                "price_units": _qunits(df["o_totalprice"].to_numpy()),
            }
        )

    slim = orders.map_batches(prep, batch_format="pandas")
    n_parts = n_hash_parts()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", as_index=False).agg(
            sum_units=("price_units", "sum"), n_orders=("price_units", "size")
        )
        g["cpart"] = (g["o_custkey"] % n_parts).astype("int32")
        return g

    # empty-block join poisoning is handled centrally by
    # install_shuffle_schema_guard — no pre-join scrub shuffle needed
    per_cust = (
        slim.map_batches(partial, batch_format="pandas")
        .groupby("cpart")
        .map_groups(
            lambda df: df.groupby("o_custkey", as_index=False)[
                ["sum_units", "n_orders"]
            ].sum(),
            batch_format="pandas",
        )
    )

    joined = budgeted_join(
        slim,
        per_cust.map_batches(
            lambda df: df.rename(columns={"o_custkey": "custkey"}),
            batch_format="pandas",
        ),
        on=("o_custkey",),
        right_on=("custkey",),
        n_joins=1,
    )

    def keep_above(df: pd.DataFrame) -> pd.DataFrame:
        p = df["price_units"].to_numpy(dtype=np.int64)
        s = df["sum_units"].to_numpy(dtype=np.int64)
        n = df["n_orders"].to_numpy(dtype=np.int64)
        out = df[(p * n) > s]
        return out[["o_orderkey", "o_custkey", "price_units"]].astype(
            {"o_orderkey": "int64", "o_custkey": "int64", "price_units": "int64"}
        )

    return joined.map_batches(keep_above, batch_format="pandas")


# ---------------------------------------------------------------------------
# Equi-width histogram
# ---------------------------------------------------------------------------

HIST_BIN_WIDTH = 25_000.0  # o_totalprice bin width


def price_histogram(sf_dir: str) -> ray.data.Dataset:
    """(bin_lo, n_orders) equi-width histogram of order prices — per-block
    bincount partials, one tiny bin-keyed finalize."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        b = np.floor(df["o_totalprice"].to_numpy() / HIST_BIN_WIDTH).astype(np.int64)
        out = pd.DataFrame({"bin": b})
        g = out.groupby("bin", as_index=False).size().rename(columns={"size": "n"})
        return g

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bin", as_index=False)["n"].sum()
        return pd.DataFrame(
            {
                "bin_lo": (g["bin"].to_numpy() * HIST_BIN_WIDTH).astype(np.float64),
                "n_orders": g["n"].to_numpy().astype(np.int64),
            }
        )

    return (
        orders.map_batches(partial, batch_format="pandas")
        .groupby("bin")
        .map_groups(final, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# CDC change-log merge (latest-row compaction with tombstones)
# ---------------------------------------------------------------------------

# Change op that deletes its key (last-writer-wins): the merge-on-read
# compaction every CDC-fed lakehouse table needs (Iceberg/Delta style).
CDC_TOMBSTONE = "error"


def cdc_merge(sf_dir: str) -> ray.data.Dataset:
    """(k, last_event_id, last_value, last_ts) — compact the event change
    log into its current snapshot: the ``props`` payload key ``k`` is the
    upsert key, last writer by (ts, event_id) wins, and a key whose
    LATEST op is a tombstone (event_type == 'error') is absent from the
    snapshot.  event_id is unique, so the winner is fully deterministic.

    Distributed shape: per-batch keep-latest partial (one slim row per key
    per block — the change log compresses BEFORE the shuffle, so the
    exchange carries ~|keys| x blocks rows, not the full log), then a
    key-hash groupby finalize that re-applies the same keep-latest and
    drops tombstoned keys.  Keep-latest is associative, so the two-level
    fold equals a global sort-and-tail without ever sorting the log."""
    import pyarrow.compute as pc

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "event_type", "value", "props"],
    )
    n_parts = n_hash_parts()

    def keep_latest(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["k", "ts", "event_id"], kind="mergesort")
        return df.groupby("k", as_index=False).tail(1)

    def partial(batch: pa.Table) -> pd.DataFrame:
        ks = pc.struct_field(
            pc.extract_regex(batch["props"], r'"k": (?P<k>[0-9]+)'), "k"
        )
        # a props payload without a '"k": N' match extracts to null; route
        # the malformed rows out explicitly (dropping them matches the
        # oracle's `WHERE props LIKE ...` shape) instead of letting the
        # null-int to_numpy raise mid-shuffle
        n_null = pc.sum(pc.is_null(ks)).as_py() or 0
        if n_null:
            logger.warning("cdc_merge: dropping %d rows with no k in props", n_null)
            keep = pc.is_valid(ks)
            batch = batch.filter(keep)
            ks = ks.filter(keep)
        df = pd.DataFrame(
            {
                "k": pc.cast(ks, pa.int64()).to_numpy(),
                "event_id": batch["event_id"].to_numpy(),
                "ts": batch["ts"].to_pandas().to_numpy(),
                "event_type": batch["event_type"].to_pylist(),
                "value": batch["value"].to_numpy(),
            }
        )
        df = keep_latest(df)
        df["kpart"] = (df["k"] % n_parts).astype("int32")
        return df

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = keep_latest(df)
        df = df[df["event_type"] != CDC_TOMBSTONE]
        return pd.DataFrame(
            {
                "k": df["k"].astype("int64"),
                "last_event_id": df["event_id"].astype("int64"),
                "last_value": df["value"].astype("float64"),
                "last_ts": df["ts"],
            }
        )

    return (
        ev.map_batches(partial, batch_format="pyarrow")
        .groupby("kpart")
        .map_groups(final, batch_format="pandas")
    )


def events_cube(sf_dir: str) -> ray.data.Dataset:
    """Full CUBE over (event_type, hour-of-day): the rollup's three
    grouping sets PLUS the per-hour marginal — the cross-tab totals an
    ops dashboard reads in one query.

    Shape: identical to events_rollup — ONE distributed pass builds the
    finest (type, hour) aggregate; all four grouping sets derive from
    that |types| x 24 table in a single small block.  The input is never
    re-scanned per grouping set (the naive CUBE plan).

    Reserved value: the string ``'ALL'`` marks the rolled-up level in
    ``event_type``/``hr`` (both here and in the SQL oracle's coalesce), so
    a genuine event_type literally named 'ALL' would be indistinguishable
    from the marginal rows.  The events fixture's type vocabulary
    (click/view/purchase/signup/error) cannot collide; a production schema
    with free-form types should switch both sides to GROUPING() columns."""
    from ahrd_ray.config import QUANT

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["ts", "event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "hr": df["ts"].dt.hour.astype(np.int64),
                "v_units": _qunits(df["value"].to_numpy()),
                "n": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby(["event_type", "hr"], as_index=False).sum()

    base = (
        ev.map_batches(partial, batch_format="pandas")
        .groupby(["event_type", "hr"])
        .map_groups(
            _final_sum(["event_type", "hr"], ["v_units", "n"]), batch_format="pandas"
        )
    )

    def cube(df: pd.DataFrame) -> pd.DataFrame:
        fine = pd.DataFrame(
            {
                "event_type": df["event_type"].astype(str),
                "hr": df["hr"].astype(str),
                "v_units": df["v_units"],
                "n": df["n"],
            }
        )
        per_type = df.groupby("event_type", as_index=False)[["v_units", "n"]].sum()
        mid_t = per_type.assign(hr="ALL")[["event_type", "hr", "v_units", "n"]]
        per_hr = df.groupby("hr", as_index=False)[["v_units", "n"]].sum()
        mid_h = per_hr.assign(event_type="ALL")
        mid_h["hr"] = mid_h["hr"].astype(str)
        mid_h = mid_h[["event_type", "hr", "v_units", "n"]]
        total = pd.DataFrame(
            {
                "event_type": ["ALL"],
                "hr": ["ALL"],
                "v_units": [df["v_units"].sum()],
                "n": [df["n"].sum()],
            }
        )
        out = pd.concat([fine, mid_t, mid_h, total], ignore_index=True)
        out["sum_value"] = out["v_units"].to_numpy(dtype=np.float64) / QUANT
        return out[["event_type", "hr", "n", "sum_value"]].astype({"n": "int64"})

    return base.repartition(1).map_batches(cube, batch_format="pandas", batch_size=None)


NTILE_N = 4


def events_ntile(sf_dir: str, n: int = NTILE_N) -> ray.data.Dataset:
    """(event_id, user_id, quartile) — ntile(4) over (partition by user
    order by value, event_id): the equal-frequency bucketing window the
    feature-binning / spend-quartile passes use.  SQL ntile semantics
    exactly: the first cnt % n buckets take one extra row.

    Shape: the events_row_number user-hash shuffle; inside a partition the
    tile assignment is a sort + two vectorized integer formulas (no Python
    per-row work).  The (value, event_id) order key is a total order, so
    the assignment is deterministic on both sides."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )
    n_parts = n_hash_parts()

    def tag(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(upart=(df["user_id"] % n_parts).astype("int32"))

    def tile(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "value", "event_id"], kind="mergesort")
        r = df.groupby("user_id").cumcount().to_numpy(np.int64)
        cnt = df.groupby("user_id")["user_id"].transform("size").to_numpy(np.int64)
        size = cnt // n
        big = cnt % n
        cut = big * (size + 1)
        in_big = r < cut
        # size == 0 rows are all in the big branch (cut == cnt there)
        safe = np.maximum(size, 1)
        q = np.where(in_big, r // (size + 1), big + (r - cut) // safe) + 1
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "quartile": q.astype(np.int64),
            }
        )

    return (
        ev.map_batches(tag, batch_format="pandas")
        .groupby("upart")
        .map_groups(tile, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Allowed-lateness windowed aggregate (the streaming watermark model)
# ---------------------------------------------------------------------------
# The Flink/Beam bounded-out-of-orderness contract made deterministic: an
# event's arrival is its event time plus a reproducible per-event skew;
# the 30-min tumbling window fires at window_end + allowed lateness, so
# an event arriving after that goes to the LATE side output instead of
# the on-time aggregate.  Replayable batch semantics for the same
# accounting a streaming job does with watermarks.

LATE_WINDOW_MIN = 30  # tumbling event-time window
LATE_ALLOWED_MIN = 10  # lateness tolerated after window close
LATE_SKEW_MOD = 23  # arrival = ts + (event_id % 23) minutes


def late_data_windows(sf_dir: str) -> ray.data.Dataset:
    """(event_type, window_start, n_ontime, n_late, ontime_value) — the
    on-time aggregate plus the late-arrival side count per window.  Pure
    map-side window assignment + lateness test, per-block combine, one
    window-keyed fold; no ordering assumption anywhere (the lateness rule
    is a pure function of the event, which is what makes the batch replay
    of the streaming semantics exact)."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "event_type", "value"],
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        ws = df["ts"].dt.floor(f"{LATE_WINDOW_MIN}min")
        delay = df["event_id"].to_numpy() % LATE_SKEW_MOD
        arrival = df["ts"] + pd.to_timedelta(delay, unit="m")
        close = ws + pd.Timedelta(minutes=LATE_WINDOW_MIN + LATE_ALLOWED_MIN)
        late = (arrival > close).to_numpy()
        units = _qunits(df["value"].to_numpy())
        out = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "window_start": ws,
                "n_ontime": (~late).astype(np.int64),
                "n_late": late.astype(np.int64),
                "ontime_units": np.where(late, np.int64(0), units),
            }
        )
        return out.groupby(["event_type", "window_start"], as_index=False).sum()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.config import QUANT

        out = df.groupby(["event_type", "window_start"], as_index=False)[
            ["n_ontime", "n_late", "ontime_units"]
        ].sum()
        out["ontime_value"] = out["ontime_units"].to_numpy(np.float64) / QUANT
        return out[
            ["event_type", "window_start", "n_ontime", "n_late", "ontime_value"]
        ]

    return (
        ev.map_batches(prep, batch_format="pandas")
        .groupby("window_start")
        .map_groups(finish, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Declarative data-quality rule engine
# ---------------------------------------------------------------------------
# The expectation-suite pattern (Great-Expectations/Deequ shape): a rule
# list of (rule_id, vectorized predicate) evaluated in ONE streaming pass,
# violations emitted as (rule_id, event_id) rows.  Referential-integrity
# rules test membership against a broadcast dim-key array (dim-sized,
# never a shuffle join); every check is a numpy kernel — adding a rule is
# one table entry, not a new pipeline.

DQ_VALUE_MAX = 300.0  # plausibility ceiling for event value
DQ_PURCHASE_MIN = 5.0  # purchases below this are suspect


def dq_violations(sf_dir: str) -> ray.data.Dataset:
    """(rule_id, event_id) — one row per rule violation, sorted output by
    the caller if needed.  Four rules: a value ceiling, a
    purchase-specific floor, a non-empty-props check and a user->customer
    foreign-key check (broadcast key membership).  Rules that pass
    everywhere contribute zero rows — the engine proves absence, not just
    presence."""
    cust = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    )
    keys = np.sort(
        np.concatenate(
            [b["c_custkey"].to_numpy() for b in
             cust.iter_batches(batch_format="pyarrow")]
        )
    )
    keys_ref = ray.put(keys)

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value", "props"],
    )

    def check(df: pd.DataFrame) -> pd.DataFrame:
        from ahrd_ray.stages.score import get_broadcast

        ks = get_broadcast(keys_ref)
        v = df["value"].to_numpy()
        et = df["event_type"].to_numpy()
        props = df["props"]
        uid = df["user_id"].to_numpy()
        idx = np.searchsorted(ks, uid)
        idx_c = np.clip(idx, 0, len(ks) - 1)
        rules = [
            ("purchase_value_floor", (et == "purchase") & (v < DQ_PURCHASE_MIN)),
            ("props_nonempty", props.isna().to_numpy() | (props.str.len() == 0).fillna(True).to_numpy()),
            ("user_fk_customer", ks[idx_c] != uid),
            ("value_ceiling", v > DQ_VALUE_MAX),
        ]
        ids = df["event_id"].to_numpy()
        hits = [ids[mask] for _, mask in rules]
        # Arrow with a string rule_id: an empty batch is then a typed block
        # (an empty object column makes Ray's size estimator log an error)
        return pa.table(
            {
                "rule_id": pa.array(
                    np.repeat([rid for rid, _ in rules], [len(h) for h in hits]), type=pa.string()
                ),
                "event_id": pa.array(np.concatenate(hits), type=pa.int64()),
            }
        )

    return ev.map_batches(check, batch_format="pandas")


RANGE_FRAME_MIN = 60  # trailing event-time window width (minutes)


def range_frame_sums(sf_dir: str) -> ray.data.Dataset:
    """(event_id, user_id, range_n, range_sum_units) — per event, the
    count and exact-unit sum of the user's values within the trailing
    RANGE_FRAME_MIN minutes of EVENT TIME, current row's time peers
    included: the RANGE-frame window aggregate (the time-based complement
    to the ROWS-frame moving_frame_sums — a burst of events in one minute
    all land in each other's frame regardless of row order, so the result
    is replay-order invariant).

    Scale shape: hash-partition by user (key-complete), then per
    partition one vectorized sort + per-user prefix sums with two
    searchsorted probes per segment — no per-row Python, no global
    sort."""
    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )
    n_parts = n_hash_parts()
    width = np.timedelta64(RANGE_FRAME_MIN * 60, "s")

    def add_part(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(upart=(df["user_id"] % n_parts).astype("int32"))

    def frames(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        qv = _qunits(df["value"].to_numpy())
        ts = df["ts"].to_numpy()
        uid = df["user_id"].to_numpy()
        out_n = np.empty(len(df), dtype=np.int64)
        out_s = np.empty(len(df), dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, uid[1:] != uid[:-1]])
        bounds = np.r_[starts, len(df)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            t = ts[a:b]
            prefix = np.r_[0, np.cumsum(qv[a:b])]
            lo = np.searchsorted(t, t - width, side="left")
            hi = np.searchsorted(t, t, side="right")
            out_n[a:b] = hi - lo
            out_s[a:b] = prefix[hi] - prefix[lo]
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": uid,
                "range_n": out_n,
                "range_sum_units": out_s,
            }
        )

    return (
        ev.map_batches(add_part, batch_format="pandas")
        .groupby("upart")
        .map_groups(frames, batch_format="pandas")
    )


def orders_grouping_sets(sf_dir: str) -> ray.data.Dataset:
    """Arbitrary GROUPING SETS over orders — {(priority, status),
    (status), ()}: unlike ROLLUP/CUBE the set list is irregular (the
    per-priority marginal is deliberately absent), which is the general
    form reporting queries use.

    Shape: the events_rollup/cube contract — ONE distributed pass builds
    the finest (priority, status) aggregate; every listed set derives
    from that dim-sized table in a single small block; the input is never
    re-scanned per set.  'ALL' marks rolled-up levels (the cube
    precedent's reserved marker — order priorities/statuses cannot
    collide with it)."""
    from ahrd_ray.config import QUANT

    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderstatus", "o_totalprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "o_orderpriority": df["o_orderpriority"],
                "o_orderstatus": df["o_orderstatus"],
                "v_units": _qunits(df["o_totalprice"].to_numpy()),
                "n": np.ones(len(df), dtype=np.int64),
            }
        )
        return out.groupby(
            ["o_orderpriority", "o_orderstatus"], as_index=False
        ).sum()

    base = (
        orders.map_batches(partial, batch_format="pandas")
        .groupby(["o_orderpriority", "o_orderstatus"])
        .map_groups(
            _final_sum(
                ["o_orderpriority", "o_orderstatus"], ["v_units", "n"]
            ),
            batch_format="pandas",
        )
    )

    def sets(df: pd.DataFrame) -> pd.DataFrame:
        fine = df[["o_orderpriority", "o_orderstatus", "v_units", "n"]].copy()
        per_status = (
            df.groupby("o_orderstatus", as_index=False)[["v_units", "n"]]
            .sum()
            .assign(o_orderpriority="ALL")
        )[["o_orderpriority", "o_orderstatus", "v_units", "n"]]
        total = pd.DataFrame(
            {
                "o_orderpriority": ["ALL"],
                "o_orderstatus": ["ALL"],
                "v_units": [df["v_units"].sum()],
                "n": [df["n"].sum()],
            }
        )
        out = pd.concat([fine, per_status, total], ignore_index=True)
        out["sum_value"] = out["v_units"].to_numpy(dtype=np.float64) / QUANT
        return out[["o_orderpriority", "o_orderstatus", "n", "sum_value"]].astype(
            {"n": "int64"}
        )

    return base.repartition(1).map_batches(sets, batch_format="pandas", batch_size=None)


def scd2_history(sf_dir: str) -> ray.data.Dataset:
    """(k, event_id, value, valid_from, valid_to, is_current) — the
    slowly-changing-dimension TYPE-2 view of the CDC change log: one row
    per non-tombstone version, valid from its own change time until the
    NEXT change of the same key (tombstones close intervals but emit no
    version row; a key whose last op is a tombstone has no current row).
    The companion to cdc_merge's last-writer snapshot — history instead
    of state.

    Shape: key-hash partitions are key-complete, so every interval's
    successor lives in the same partition; one vectorized sort + shift
    per partition, no window shuffle."""
    import pyarrow.compute as pc

    ev = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "event_type", "value", "props"],
    )
    n_parts = n_hash_parts()

    def keyed(batch: pa.Table) -> pd.DataFrame:
        ks = pc.struct_field(
            pc.extract_regex(batch["props"], r'"k": (?P<k>[0-9]+)'), "k"
        )
        keep = pc.is_valid(ks)
        batch = batch.filter(keep)
        df = pd.DataFrame(
            {
                "k": pc.cast(ks.filter(keep), pa.int64()).to_numpy(),
                "event_id": batch["event_id"].to_numpy(),
                "ts": batch["ts"].to_pandas().to_numpy(),
                "event_type": batch["event_type"].to_pylist(),
                "value": batch["value"].to_numpy(),
            }
        )
        df["kpart"] = (df["k"] % n_parts).astype("int32")
        return df

    def intervals(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):  # empty partition: same[-1] below would raise
            return pd.DataFrame(
                {
                    "k": pd.Series([], dtype="int64"),
                    "event_id": pd.Series([], dtype="int64"),
                    "value": pd.Series([], dtype="float64"),
                    "valid_from": pd.Series([], dtype="datetime64[us]"),
                    "valid_to": pd.Series([], dtype="datetime64[us]"),
                    "is_current": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["k", "ts", "event_id"], kind="mergesort")
        k = df["k"].to_numpy()
        ts = df["ts"].to_numpy()
        # valid_to = next change's ts within the key (NaT on the last row)
        nxt = np.empty(len(df), dtype=ts.dtype)
        nxt[:-1] = ts[1:]
        nxt[-1:] = np.datetime64("NaT")
        same = np.empty(len(df), dtype=bool)
        same[:-1] = k[:-1] == k[1:]
        same[-1] = False
        valid_to = np.where(same, nxt, np.datetime64("NaT"))
        out = pd.DataFrame(
            {
                "k": k,
                "event_id": df["event_id"].to_numpy(),
                "value": df["value"].to_numpy(),
                "valid_from": ts,
                "valid_to": valid_to,
                "is_current": (~same).astype(np.int64),
            }
        )
        return out[df["event_type"].to_numpy() != CDC_TOMBSTONE].astype(
            {"k": "int64", "event_id": "int64"}
        )

    return (
        ev.map_batches(keyed, batch_format="pyarrow")
        .groupby("kpart")
        .map_groups(intervals, batch_format="pandas")
    )


def session_hour_windows(sf_dir: str) -> ray.data.Dataset:
    """(user_id, session_seq, window_start, overlap_us) — interval-overlap
    join of gap-based sessions against fixed 1-hour wall-clock windows:
    one row per hour a session touches, with the exact microsecond
    overlap.  The scale-safe interval-join recipe: the long side
    (sessions) EMITS its spanned buckets map-side — fan-out bounded by
    session duration / bucket width — so beyond the session build itself
    there is no join and no extra shuffle at all."""
    hour = np.timedelta64(3600, "s")

    def fan_out(df: pd.DataFrame) -> pd.DataFrame:
        first = df["first_ts"].to_numpy().astype("datetime64[us]")
        last = df["last_ts"].to_numpy().astype("datetime64[us]")
        b0 = first.astype("datetime64[h]").astype("datetime64[us]")
        b1 = last.astype("datetime64[h]").astype("datetime64[us]")
        n = ((b1 - b0) // hour).astype(np.int64) + 1
        rep = np.repeat(np.arange(len(df)), n)
        k = np.arange(len(rep)) - np.repeat(np.cumsum(n) - n, n)
        ws = b0[rep] + k * hour
        we = ws + hour
        lo = np.maximum(first[rep], ws)
        hi = np.minimum(last[rep], we)
        overlap = (hi - lo).astype("timedelta64[us]").astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy()[rep],
                "session_seq": df["session_seq"].to_numpy()[rep],
                "window_start": ws,
                "overlap_us": overlap,
            }
        )

    return sessionize(sf_dir).map_batches(fan_out, batch_format="pandas")
