"""Window rank, semi-join, rollup, pivot (stages/generic, round-3 batch)."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.mark.usefixtures("ray_session")
def test_row_number_is_dense_per_user():
    from ahrd_ray.stages.generic import events_row_number

    df = events_row_number(SF).to_pandas()
    for _, g in df.groupby("user_id"):
        rn = np.sort(g["rn"].to_numpy())
        assert (rn == np.arange(1, len(g) + 1)).all()


@pytest.mark.usefixtures("ray_session")
def test_semi_and_anti_join_partition_customers():
    from ahrd_ray.stages.generic import (
        customers_with_big_order,
        customers_without_big_order,
    )
    import pyarrow.parquet as pq

    with_ = customers_with_big_order(SF).to_pandas()
    without = customers_without_big_order(SF).to_pandas()
    n_cust = pq.read_metadata(f"{SF}/customer.parquet").num_rows
    assert len(with_) + len(without) == n_cust
    assert not set(with_.c_custkey) & set(without.c_custkey)
    # semi-join contract: one output row per customer, not per order
    assert with_.c_custkey.is_unique


@pytest.mark.usefixtures("ray_session")
def test_rollup_levels_are_consistent():
    from ahrd_ray.stages.generic import events_rollup

    df = events_rollup(SF).to_pandas()
    fine = df[(df.event_type != "ALL") & (df.hr != "ALL")]
    mid = df[(df.event_type != "ALL") & (df.hr == "ALL")].set_index("event_type")
    total = df[(df.event_type == "ALL")]
    assert len(total) == 1
    assert total.n.iloc[0] == fine.n.sum() == mid.n.sum()
    for t, g in fine.groupby("event_type"):
        assert mid.loc[t, "n"] == g.n.sum()
        # exact-unit sums: level totals agree bit-for-bit after one division
        assert mid.loc[t, "sum_value"] == pytest.approx(g.sum_value.sum(), abs=1e-9)


@pytest.mark.usefixtures("ray_session")
def test_pivot_counts_sum_to_total():
    from ahrd_ray.stages.generic import event_type_pivot

    df = event_type_pivot(SF).to_pandas()
    count_cols = [c for c in df.columns if c.startswith("n_") and c != "n_total"]
    assert (df[count_cols].sum(axis=1) == df["n_total"]).all()
    assert df.user_id.is_unique


@pytest.mark.usefixtures("ray_session")
def test_moving_frame_trailing_window():
    """Trailing 3-row frame: first rows of each user have frame_n 1, 2;
    sums equal the brute-force trailing-window sums in int64 units."""
    import numpy as np
    import pandas as pd

    from ahrd_ray.stages.generic import _qunits, moving_frame_sums

    got = moving_frame_sums(SF).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    ).sort_values(["user_id", "ts", "event_id"], kind="mergesort")
    qv = _qunits(ev["value"].to_numpy())
    exp_rows = {}
    prev = {}
    for eid, uid, q in zip(ev["event_id"], ev["user_id"], qv):
        w = prev.setdefault(int(uid), [])
        w.append(int(q))
        del w[:-3]
        exp_rows[int(eid)] = (sum(w), len(w))
    got_map = {
        int(e): (int(s), int(n))
        for e, s, n in zip(got["event_id"], got["frame_sum_units"], got["frame_n"])
    }
    assert got_map == exp_rows


@pytest.mark.usefixtures("ray_session")
def test_funnel_steps_ordered_bruteforce():
    """Funnel conversion == brute-force per-user ordered scan; strictly-after
    + within-window semantics (a click at/before the first view, or later
    than the window, does not count)."""
    import pandas as pd

    from ahrd_ray.stages.generic import FUNNEL_STEPS, FUNNEL_WINDOW_MIN, funnel_steps

    got = funnel_steps(SF).to_pandas()
    ev = pd.read_parquet(
        f"{SF}/events.parquet", columns=["ts", "user_id", "event_type"]
    ).sort_values(["user_id", "ts"], kind="mergesort")
    s1, s2, s3 = FUNNEL_STEPS
    expected = {}
    for uid, g in ev.groupby("user_id"):
        v = g[g["event_type"] == s1]["ts"]
        if not len(v):
            continue
        t1 = v.min()
        w = pd.Timedelta(minutes=FUNNEL_WINDOW_MIN)
        steps = 1
        c = g[(g["event_type"] == s2) & (g["ts"] > t1) & (g["ts"] <= t1 + w)]["ts"]
        if len(c):
            steps = 2
            t2 = c.min()
            p = g[(g["event_type"] == s3) & (g["ts"] > t2) & (g["ts"] <= t2 + w)]["ts"]
            if len(p):
                steps = 3
        expected[int(uid)] = steps
    got_map = dict(zip(got["user_id"].astype(int), got["steps_completed"].astype(int)))
    assert got_map == expected
    assert set(got_map.values()) >= {1, 2, 3}  # all stages populated at sf0.001


@pytest.mark.usefixtures("ray_session")
def test_above_avg_orders_bruteforce():
    """Decorrelated above-average filter == per-customer brute force; the
    integer cross-multiplication keeps strictly-above semantics exact."""
    import pandas as pd

    from ahrd_ray.stages.generic import _qunits, above_avg_orders

    got = set(above_avg_orders(SF).to_pandas()["o_orderkey"].astype(int))
    o = pd.read_parquet(
        f"{SF}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    o["u"] = _qunits(o["o_totalprice"].to_numpy())
    exp = set()
    for ck, g in o.groupby("o_custkey"):
        s = int(g["u"].sum())
        n = len(g)
        exp |= {int(k) for k, u in zip(g["o_orderkey"], g["u"]) if int(u) * n > s}
    assert got == exp and len(exp) > 0


@pytest.mark.usefixtures("ray_session")
def test_cdc_merge_last_writer_wins_and_tombstones():
    """Crafted change log: key 1 is updated then survives; key 2's LATEST
    op is a tombstone (absent); key 3 is tombstoned then re-inserted
    (present with the post-delete row)."""
    import os
    import tempfile

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ahrd_ray.stages.generic import cdc_merge

    ts = pd.to_datetime(
        ["2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04",
         "2024-01-05", "2024-01-06"]
    ).astype("datetime64[us]")
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "user_id": pa.array([0] * 6, type=pa.int64()),
            "event_type": pa.array(
                ["view", "click", "error", "error", "view", "purchase"]
            ),
            "value": pa.array([1.0, 2.0, 0.0, 0.0, 5.0, 6.0]),
            "props": pa.array(
                ['{"k": 1}', '{"k": 1}', '{"k": 2}', '{"k": 3}',
                 '{"k": 3}', '{"k": 1}']
            ),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = (
            cdc_merge(d).to_pandas().sort_values("k").reset_index(drop=True)
        )
    assert got["k"].tolist() == [1, 3]
    assert got["last_event_id"].tolist() == [6, 5]
    assert got["last_value"].tolist() == [6.0, 5.0]


@pytest.mark.usefixtures("ray_session")
def test_cdc_merge_drops_malformed_props_rows():
    """A props payload without '"k": N' is routed out (matching the
    oracle's LIKE filter shape) instead of crashing the null-int cast
    (ADVICE r3)."""
    import os
    import tempfile

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from ahrd_ray.stages.generic import cdc_merge

    ts = pd.to_datetime(["2024-01-01", "2024-01-02", "2024-01-03"]).astype(
        "datetime64[us]"
    )
    t = pa.table(
        {
            "event_id": pa.array([1, 2, 3], type=pa.int64()),
            "ts": pa.array(ts, type=pa.timestamp("us")),
            "user_id": pa.array([0] * 3, type=pa.int64()),
            "event_type": pa.array(["view", "click", "view"]),
            "value": pa.array([1.0, 2.0, 3.0]),
            "props": pa.array(['{"k": 7}', "{}", '{"other": 1}']),
        }
    )
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(t, os.path.join(d, "events.parquet"))
        got = cdc_merge(d).to_pandas()
    assert got["k"].tolist() == [7]
    assert got["last_event_id"].tolist() == [1]


@pytest.mark.usefixtures("ray_session")
def test_cdc_merge_matches_duckdb_at_sf0001():
    import duckdb
    import pandas as pd

    from ahrd_ray.pipelines.oracle import sql_cdc_merge
    from ahrd_ray.stages.generic import cdc_merge

    got = cdc_merge(SF).to_pandas().sort_values("k").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    want = con.execute(sql_cdc_merge()).df().sort_values("k").reset_index(drop=True)
    got = got[want.columns]
    got["last_ts"] = pd.to_datetime(got["last_ts"])
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.usefixtures("ray_session")
def test_cube_marginals_are_consistent():
    """All four grouping sets must agree: per-type and per-hour marginals
    each sum to the grand total, and the fine grid sums to every marginal."""
    from ahrd_ray.stages.generic import events_cube

    df = events_cube(SF).to_pandas()
    fine = df[(df.event_type != "ALL") & (df.hr != "ALL")]
    per_type = df[(df.event_type != "ALL") & (df.hr == "ALL")]
    per_hr = df[(df.event_type == "ALL") & (df.hr != "ALL")]
    total = df[(df.event_type == "ALL") & (df.hr == "ALL")]
    assert len(total) == 1
    n_tot = int(total["n"].iloc[0])
    assert fine["n"].sum() == per_type["n"].sum() == per_hr["n"].sum() == n_tot
    ft = fine.groupby("event_type")["n"].sum()
    assert ft.to_dict() == per_type.set_index("event_type")["n"].to_dict()
    fh = fine.groupby("hr")["n"].sum()
    assert fh.to_dict() == per_hr.set_index("hr")["n"].to_dict()


def test_ntile_semantics(ray_session):
    """Engine ntile == DuckDB ntile on the real events table, and the
    integer bucket formula handles the cnt<n and ragged-bucket corners."""
    import duckdb
    import numpy as np

    from ahrd_ray.stages.generic import NTILE_N, events_ntile

    sf = "/root/testdata/sf0.001"
    got = (
        events_ntile(sf)
        .to_pandas()
        .sort_values(["user_id", "event_id"])
        .reset_index(drop=True)
    )
    want = duckdb.sql(
        f"""SELECT event_id, user_id,
               CAST(ntile({NTILE_N}) OVER (
                 PARTITION BY user_id ORDER BY value, event_id) AS BIGINT)
                 AS quartile
            FROM '{sf}/events.parquet'
            ORDER BY user_id, event_id"""
    ).df()
    assert (got["quartile"].to_numpy() == want["quartile"].to_numpy()).all()
    # ragged-bucket corner present in the fixture (cnt % NTILE_N != 0:
    # the first cnt % n buckets take one extra row)
    sizes = got.groupby("user_id").size()
    assert (sizes % NTILE_N != 0).any()
    assert got["quartile"].between(1, NTILE_N).all()


def test_late_data_windows_brute_force(ray_session):
    """Every (window, type) cell's on-time/late split and on-time sum
    match a brute-force replay of the lateness rule."""
    import numpy as np
    import pandas as pd

    from ahrd_ray.config import QUANT
    from ahrd_ray.stages.generic import (
        LATE_ALLOWED_MIN,
        LATE_SKEW_MOD,
        LATE_WINDOW_MIN,
        late_data_windows,
    )

    sf = "/root/testdata/sf0.001"
    got = (
        late_data_windows(sf)
        .to_pandas()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    ev = pd.read_parquet(
        f"{sf}/events.parquet",
        columns=["event_id", "ts", "event_type", "value"],
    )
    ws = ev["ts"].dt.floor(f"{LATE_WINDOW_MIN}min")
    arrival = ev["ts"] + pd.to_timedelta(
        ev["event_id"].to_numpy() % LATE_SKEW_MOD, unit="m"
    )
    late = arrival > ws + pd.Timedelta(minutes=LATE_WINDOW_MIN + LATE_ALLOWED_MIN)
    units = np.floor(ev["value"].to_numpy() * QUANT + 0.5).astype(np.int64)
    truth = (
        pd.DataFrame(
            {
                "event_type": ev["event_type"],
                "window_start": ws,
                "n_ontime": (~late).astype(np.int64),
                "n_late": late.astype(np.int64),
                "ontime_units": np.where(late, 0, units),
            }
        )
        .groupby(["event_type", "window_start"], as_index=False)
        .sum()
        .sort_values(["event_type", "window_start"])
        .reset_index(drop=True)
    )
    truth["ontime_value"] = truth.pop("ontime_units").to_numpy(np.float64) / QUANT
    assert late.sum() > 0 and (~late).sum() > 0  # both branches populated
    pd.testing.assert_frame_equal(got, truth[got.columns])


def test_dq_violations_rules(ray_session):
    """Threshold rules fire on the rows brute force says they should; the
    FK and props rules prove ZERO violations on the clean fixture; an
    injected bad user_id is caught by the FK membership test."""
    import numpy as np
    import pandas as pd

    from ahrd_ray.stages.generic import (
        DQ_PURCHASE_MIN,
        DQ_VALUE_MAX,
        dq_violations,
    )

    sf = "/root/testdata/sf0.001"
    got = dq_violations(sf).to_pandas()
    ev = pd.read_parquet(f"{sf}/events.parquet")
    ceiling = set(ev.loc[ev["value"] > DQ_VALUE_MAX, "event_id"])
    floor = set(
        ev.loc[
            (ev["event_type"] == "purchase") & (ev["value"] < DQ_PURCHASE_MIN),
            "event_id",
        ]
    )
    assert set(got.loc[got["rule_id"] == "value_ceiling", "event_id"]) == ceiling
    assert (
        set(got.loc[got["rule_id"] == "purchase_value_floor", "event_id"]) == floor
    )
    assert ceiling and floor  # the thresholds actually discriminate
    assert (got["rule_id"] == "user_fk_customer").sum() == 0
    assert (got["rule_id"] == "props_nonempty").sum() == 0
    # FK rule catches an id outside the customer key set
    from ahrd_ray.stages import generic as g

    cust = pd.read_parquet(f"{sf}/customer.parquet", columns=["c_custkey"])
    ks = np.sort(cust["c_custkey"].to_numpy())
    bad = int(ks.max()) + 17
    idx = np.clip(np.searchsorted(ks, [bad]), 0, len(ks) - 1)
    assert (ks[idx] != [bad]).all()


def test_range_frame_brute_force(ray_session):
    """Per-event trailing-hour counts/sums equal an O(n^2) replay,
    including time-peer inclusion for duplicate timestamps."""
    import numpy as np
    import pandas as pd

    from ahrd_ray.config import QUANT
    from ahrd_ray.stages.generic import RANGE_FRAME_MIN, range_frame_sums

    sf = "/root/testdata/sf0.001"
    got = (
        range_frame_sums(sf)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    ev = pd.read_parquet(
        f"{sf}/events.parquet", columns=["event_id", "ts", "user_id", "value"]
    )
    units = np.floor(ev["value"].to_numpy() * QUANT + 0.5).astype(np.int64)
    width = pd.Timedelta(minutes=RANGE_FRAME_MIN)
    rows = []
    for _, r in ev.iterrows():
        m = (
            (ev["user_id"] == r["user_id"])
            & (ev["ts"] >= r["ts"] - width)
            & (ev["ts"] <= r["ts"])
        ).to_numpy()
        rows.append((r["event_id"], r["user_id"], int(m.sum()), int(units[m].sum())))
    truth = (
        pd.DataFrame(rows, columns=["event_id", "user_id", "range_n", "range_sum_units"])
        .sort_values("event_id")
        .reset_index(drop=True)
        .astype({"range_n": "int64", "range_sum_units": "int64"})
    )
    assert (got["range_n"] > 1).any()  # frames actually span multiple events
    pd.testing.assert_frame_equal(got, truth[got.columns])


def test_scd2_and_grouping_sets(ray_session):
    """SCD2: intervals chain per key (valid_to == successor's valid_from),
    exactly one current row per live key, none for tombstone-last keys.
    Grouping sets: each listed set recounts; the absent (priority)
    marginal stays absent."""
    import numpy as np
    import pandas as pd

    from ahrd_ray.stages.generic import (
        CDC_TOMBSTONE,
        orders_grouping_sets,
        scd2_history,
    )

    sf = "/root/testdata/sf0.001"
    h = scd2_history(sf).to_pandas().sort_values(["k", "valid_from", "event_id"])
    for k, g in h.groupby("k"):
        # every non-last interval closes at a strictly-later-or-equal time
        closed = g[g["valid_to"].notna()]
        assert (closed["valid_to"].to_numpy() >= closed["valid_from"].to_numpy()).all()
        assert (g["is_current"] == 1).sum() <= 1
    ev = pd.read_parquet(f"{sf}/events.parquet")
    ks = ev["props"].str.extract(r'"k": ([0-9]+)')[0].astype("float")
    ev = ev.assign(k=ks).dropna(subset=["k"])
    last = ev.sort_values(["ts", "event_id"]).groupby("k").tail(1)
    live = set(last.loc[last["event_type"] != CDC_TOMBSTONE, "k"].astype(int))
    assert set(h.loc[h["is_current"] == 1, "k"]) == live

    gs = orders_grouping_sets(sf).to_pandas()
    orders = pd.read_parquet(f"{sf}/orders.parquet")
    fine = gs[(gs["o_orderpriority"] != "ALL") & (gs["o_orderstatus"] != "ALL")]
    assert fine["n"].sum() == len(orders)
    per_status = gs[(gs["o_orderpriority"] == "ALL") & (gs["o_orderstatus"] != "ALL")]
    assert per_status["n"].sum() == len(orders)
    # the per-priority marginal is NOT in the set list
    per_prio = gs[(gs["o_orderpriority"] != "ALL") & (gs["o_orderstatus"] == "ALL")]
    assert len(per_prio) == 0
    total = gs[(gs["o_orderpriority"] == "ALL") & (gs["o_orderstatus"] == "ALL")]
    assert len(total) == 1 and int(total["n"].iloc[0]) == len(orders)


def test_session_hour_windows_brute_force(ray_session):
    """Every session's bucket rows equal a brute-force hour enumeration
    with exact overlaps; multi-hour sessions exist so fan-out is real."""
    import numpy as np
    import pandas as pd

    from ahrd_ray.stages.generic import session_hour_windows, sessionize

    sf = "/root/testdata/sf0.001"
    got = (
        session_hour_windows(sf)
        .to_pandas()
        .sort_values(["user_id", "session_seq", "window_start"])
        .reset_index(drop=True)
    )
    sess = sessionize(sf).to_pandas()
    rows = []
    for _, r in sess.iterrows():
        ws = r["first_ts"].floor("h")
        while ws <= r["last_ts"]:
            lo = max(r["first_ts"], ws)
            hi = min(r["last_ts"], ws + pd.Timedelta(hours=1))
            rows.append(
                (r["user_id"], r["session_seq"], ws, int((hi - lo).value // 1000))
            )
            ws += pd.Timedelta(hours=1)
    truth = (
        pd.DataFrame(rows, columns=["user_id", "session_seq", "window_start", "overlap_us"])
        .sort_values(["user_id", "session_seq", "window_start"])
        .reset_index(drop=True)
    )
    counts = truth.groupby(["user_id", "session_seq"]).size()
    assert (counts > 1).any()  # multi-hour sessions exercise the fan-out
    got["window_start"] = pd.to_datetime(got["window_start"]).astype("datetime64[us]")
    truth["window_start"] = truth["window_start"].astype("datetime64[us]")
    pd.testing.assert_frame_equal(
        got.astype({"overlap_us": "int64"}), truth[got.columns].astype({"overlap_us": "int64"})
    )


def test_running_totals_oracle_types_running_units_int64():
    """DuckDB widens a BIGINT window sum to HUGEINT; the oracle must cast it
    back so its schema matches the engine's int64 ``running_units``."""
    import duckdb
    import pyarrow as pa

    from ahrd_ray.pipelines.oracle import sql_running_totals

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF}/events.parquet'")
    got = con.execute(sql_running_totals()).fetch_arrow_table()
    assert got.num_rows > 0
    assert got.schema.field("running_units").type == pa.int64()
