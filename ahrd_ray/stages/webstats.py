"""Web-crawl URL operators: canonicalization and crawl-log dedup.

A Common-Crawl-style corpus fetches the same page many times under messy
URL variants (host case, explicit default ports, trailing slashes,
``utm_*`` tracking params, fragments).  Canonicalizing URLs and keeping
the earliest fetch per canonical URL is the first dedup pass of every
web-text pipeline — cheaper than any content hash because it never reads
the payload.

Scale shape:

* ``url_normalize`` is a pure map-side stage built ENTIRELY from Arrow
  compute kernels (``extract_regex`` / list flatten + mask + ``binary_join``)
  — no Python loop over rows, zero shuffle;
* ``url_dedup`` pre-aggregates per batch (one row per distinct URL per
  block) before the groupby, so the shuffle carries distinct URLs, not
  fetches.

The crawl log itself is synthesized deterministically from ``pages``
(constants in :mod:`ahrd_ray.sources.spec`); the DuckDB oracle re-derives
the SAME raw URLs from ``documents`` and normalizes them with SQL string
functions — the normalizer logic is genuinely tested on both sides, not
replicated from one.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ahrd_ray.sources import spec

# one pass splits a raw URL into its five normalization-relevant parts;
# rows are guaranteed to match by construction (absolute http(s) URLs)
_URL_PARTS_REGEX = (
    r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://(?P<host>[^/:?#]+)"
    r"(?::(?P<port>[0-9]+))?(?P<path>/[^?#]*)?(?:\?(?P<query>[^#]*))?(?:#.*)?$"
)


def crawl_batch_from_pages(batch: pa.Table) -> pa.Table:
    """pages -> crawl-log fetches (doc_id, variant, raw_url, warc_ts).

    Fixture synthesis (like ``pages_batch_from_documents``), not the
    operator under test — the string assembly is a per-row comp over the
    small variant fan-out."""
    doc_ids = batch["doc_id"].to_numpy()
    langs = batch["lang"].to_pylist()
    ts = batch["warc_ts"].to_numpy()

    n_var = 1 + (doc_ids % spec.CRAWL_VAR_MOD)
    rep = np.repeat(np.arange(len(doc_ids)), n_var)
    variant = np.arange(len(rep)) - np.repeat(np.cumsum(n_var) - n_var, n_var)
    d = doc_ids[rep]
    raws = [
        raw_url_of(int(di), langs[ri], int(v))
        for di, ri, v in zip(d, rep, variant)
    ]
    out_ts = ts[rep] + variant.astype("timedelta64[h]").astype("timedelta64[us]")
    return pa.table(
        {
            "doc_id": pa.array(d, type=pa.int64()),
            "variant": pa.array(variant, type=pa.int64()),
            "raw_url": pa.array(raws, type=pa.string()),
            "warc_ts": pa.array(out_ts, type=pa.timestamp("us")),
        }
    )


def raw_url_of(doc_id: int, lang: str, v: int) -> str:
    """Messy raw URL of fetch ``v`` of a page (spec constants)."""
    host = "Corpus.LOCAL" if (doc_id + v) % spec.CRAWL_HOST_CASE_MOD == 0 else "corpus.local"
    port = ":443" if (doc_id + v) % spec.CRAWL_PORT_MOD == 0 else ""
    path = f"/{lang}/{doc_id}"
    if (doc_id + v) % spec.CRAWL_SLASH_MOD == 0:
        path += "/"
    params = []
    if v % 2 == 1:
        params.append(f"utm_source=s{doc_id % spec.CRAWL_UTM_SRC_MOD}")
        params.append(f"utm_medium=m{v}")
    if doc_id % spec.CRAWL_REF_MOD == 0:
        params.append(f"ref=r{doc_id % spec.CRAWL_REF_VAL_MOD}")
    query = "?" + "&".join(params) if params else ""
    frag = f"#sec{v}" if (doc_id + v) % spec.CRAWL_FRAG_MOD == 0 else ""
    return f"https://{host}{port}{path}{query}{frag}"


def canonical_url_of(doc_id: int, lang: str) -> str:
    """What the normalizer must produce for every fetch of a page."""
    q = (
        f"?ref=r{doc_id % spec.CRAWL_REF_VAL_MOD}"
        if doc_id % spec.CRAWL_REF_MOD == 0
        else ""
    )
    return f"{spec.URL_PREFIX}{lang}/{doc_id}{q}"


def crawl_log(sf_dir: str) -> ray.data.Dataset:
    """Synthesized directly from ``documents`` (url/warc_ts are pure
    functions of doc_id+lang — same values the pages synth produces)
    WITHOUT the html synthesis the pages path would pay for and this
    operator never reads; only doc_id and lang leave storage."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def f(batch: pa.Table) -> pa.Table:
        epoch = np.datetime64(spec.WARC_EPOCH.replace(" ", "T"), "us")
        ids = batch["doc_id"].to_numpy()
        ts = epoch + ids.astype("timedelta64[s]").astype("timedelta64[us]")
        pages = pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "warc_ts": pa.array(ts, type=pa.timestamp("us")),
            }
        )
        return crawl_batch_from_pages(pages)

    return docs.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def normalize_urls(raw: pa.Array) -> pa.Array:
    """Vectorized URL canonicalizer (the operator under test).

    Rules: lowercase scheme+host; strip default port (443/https, 80/http);
    strip fragment; drop ``utm_*``/``fbclid``/``gclid`` query params
    (preserving the order of the rest); strip the trailing slash of
    non-root paths; missing path -> "/".  All Arrow kernels — no Python
    loop over rows."""
    if isinstance(raw, pa.ChunkedArray):
        raw = raw.combine_chunks()
    parts = pc.extract_regex(raw, _URL_PARTS_REGEX)
    scheme = pc.utf8_lower(parts.field("scheme"))
    host = pc.utf8_lower(parts.field("host"))
    port = parts.field("port")

    # RE2 non-participating optional groups extract as "" (not null)
    default_port = pc.if_else(pc.equal(scheme, "https"), "443", "80")
    keep_port = pc.and_(pc.not_equal(port, ""), pc.not_equal(port, default_port))
    lit = lambda s: pa.array([s] * len(raw), type=pa.string())  # noqa: E731
    port_sfx = pc.if_else(
        keep_port, pc.binary_join_element_wise(lit(":"), port, ""), ""
    )

    path = parts.field("path")
    stripped = pc.replace_substring_regex(path, pattern="/$", replacement="")
    path = pc.if_else(pc.equal(stripped, ""), "/", stripped)

    query = parts.field("query")
    params = pc.split_pattern(query, "&")
    flat = params.flatten()
    parents = pc.list_parent_indices(params).to_numpy(zero_copy_only=False)
    keep = pc.and_(
        pc.invert(pc.match_substring_regex(flat, spec.TRACKING_PARAM_REGEX)),
        pc.not_equal(flat, ""),
    ).to_numpy(zero_copy_only=False)
    kept_counts = np.bincount(parents[keep], minlength=len(raw))
    offsets = np.zeros(len(raw) + 1, dtype=np.int32)
    np.cumsum(kept_counts, out=offsets[1:])
    kept_list = pa.ListArray.from_arrays(pa.array(offsets), flat.filter(pa.array(keep)))
    joined = pc.binary_join(kept_list, "&")
    query_sfx = pc.if_else(
        pc.equal(joined, ""),
        "",
        pc.binary_join_element_wise(lit("?"), joined, ""),
    )

    return pc.binary_join_element_wise(
        scheme, lit("://"), host, port_sfx, path, query_sfx, ""
    )


def url_normalize(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, variant, raw_url, url) — every crawl fetch with its
    canonical URL.  Pure map-side; gated against the DuckDB string-function
    normalization of the same raw URLs."""

    def f(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "variant": batch["variant"],
                "raw_url": batch["raw_url"],
                "url": normalize_urls(batch["raw_url"]),
            }
        )

    return crawl_log(sf_dir).map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def url_dedup(sf_dir: str) -> ray.data.Dataset:
    """Crawl-log dedup: one row per canonical URL with the earliest fetch
    time and the fetch count.  Map-side partial (per-block min/count per
    URL) bounds the shuffle at distinct-URLs-per-block rows."""
    import pandas as pd

    def partial(batch: pa.Table) -> "pd.DataFrame":
        df = pa.table(
            {
                "url": normalize_urls(batch["raw_url"]),
                "first_ts": batch["warc_ts"],
            }
        ).to_pandas()
        df["n_fetches"] = np.int64(1)
        return df.groupby("url", as_index=False).agg(
            first_ts=("first_ts", "min"), n_fetches=("n_fetches", "sum")
        )

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.groupby("url", as_index=False).agg(
            first_ts=("first_ts", "min"), n_fetches=("n_fetches", "sum")
        )
        return out.astype({"n_fetches": "int64"})

    return (
        crawl_log(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("url")
        .map_groups(final, batch_format="pandas")
    )


# hostile-HTML-tolerant canonical link matcher: attribute order free,
# double-/single-/un-quoted values, any case.  RE2 (no backrefs), so the
# three quoting styles are alternation groups.
# RE2 has no lookahead, so the unquoted alternative spells out its two
# legal ends: immediately '>' or a whitespace/slash then the rest of the tag
_CANON_TAG_RE = (
    r"(?i)(?P<t><link\b[^>]*\brel\s*=\s*(?:\"canonical\"[^>]*"
    r"|'canonical'[^>]*|canonical(?:[\s/][^>]*)?)>)"
)
_HREF_RE = r"(?i)\bhref\s*=\s*(?:\"(?P<d>[^\"]*)\"|'(?P<s>[^']*)'|(?P<u>[^\s>]+))"
# host per urlsplit().hostname: userinfo (everything to the LAST '@' in
# the authority — greedy RE2 '*' finds it) stripped, port stripped, IPv6
# brackets removed.  '@' is excluded from the plain-host class so a
# userinfo'd URL can't smuggle 'user@host' through as a host.
_ABS_HOST_RE = (
    r"(?i)^https?://(?:[^/?#]*@)?"
    r"(?:\[(?P<h6>[^\]/?#]+)\]|(?P<h>[^/:?#@\[\]]+))"
)


def canonical_hosts(s: pa.Array) -> pa.Array:
    """Canonical host of each page's html, hostile-HTML tolerant.

    Handles what real crawl HTML actually serves (VERDICT r4 item 7):
    attribute order (`href` before `rel`), single/double/no quotes, mixed
    case (`REL=Canonical`, `HTTP://`), and http as well as https.  A page
    with no canonical link, a RELATIVE canonical href, or a non-http(s)
    scheme yields null (no host claim).  Hosts are lowercased — the same
    normalization ``urllib.parse.urlsplit().hostname`` applies, which the
    conformance test uses as the stdlib reference implementation.  All
    Arrow re2 kernels, no Python row loop."""
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    tag = pc.struct_field(pc.extract_regex(s, _CANON_TAG_RE), "t")
    href_m = pc.extract_regex(tag, _HREF_RE)
    d = pc.struct_field(href_m, "d")
    sq = pc.struct_field(href_m, "s")
    uq = pc.struct_field(href_m, "u")
    # RE2 non-participating alternation groups extract as "" — first
    # non-empty wins (an attr genuinely set to "" has no host anyway)
    href = pc.if_else(
        pc.not_equal(pc.coalesce(d, ""), ""),
        d,
        pc.if_else(pc.not_equal(pc.coalesce(sq, ""), ""), sq, uq),
    )
    host_m = pc.extract_regex(href, _ABS_HOST_RE)
    h6 = pc.struct_field(host_m, "h6")
    h = pc.struct_field(host_m, "h")
    # non-participating RE2 groups extract as "": the populated one wins
    return pc.utf8_lower(pc.if_else(pc.not_equal(pc.coalesce(h6, ""), ""), h6, h))


def extract_host_links(batch: pa.Table) -> pa.Table:
    """pages html -> one (src_host, dst_host) row per footer anchor.

    The operator under test: genuinely parses the html BYTES with Arrow
    re2 kernels (canonical <link> for the source host, the LINK_K numbered
    <a rel="oN"> anchors for destinations) — no doc_id arithmetic on this
    side; the DuckDB oracle re-derives the truth from `documents` integer
    columns.  Vectorized per anchor slot (LINK_K fixed small), zero
    Python row loops."""
    s = batch["html"].combine_chunks().cast(pa.string())
    canon = canonical_hosts(s)
    parts = []
    for j in range(1, spec.LINK_K + 1):
        dst = pc.struct_field(
            pc.extract_regex(s, rf'<a rel="o{j}" href="https://(?P<h>[^/"]+)/'), "h"
        )
        parts.append(pa.table({"src_host": canon, "dst_host": dst}))
    return pa.concat_tables(parts)


def host_links(sf_dir: str) -> ray.data.Dataset:
    """Host-level web link graph: (src_host, dst_host, n_links) aggregated
    from the anchors of every page — the Common-Crawl web-graph product.

    Scale shape: per-batch partial counts bound the shuffle at
    O(distinct host pairs per block) <= LINK_HOST_MOD^2 rows, constant in
    corpus size; the final groupby folds partials."""
    import pandas as pd

    from ahrd_ray.pipelines.kg import pages_dataset

    def partial(batch: pa.Table) -> "pd.DataFrame":
        df = extract_host_links(batch).to_pandas()
        df["n_links"] = np.int64(1)
        return df.groupby(["src_host", "dst_host"], as_index=False).agg(
            n_links=("n_links", "sum")
        )

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.groupby(["src_host", "dst_host"], as_index=False).agg(
            n_links=("n_links", "sum")
        )
        return out.astype({"n_links": "int64"})

    return (
        pages_dataset(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .map_groups(final, batch_format="pandas")
    )


def cached_host_links(sf_dir: str) -> "tuple[ray.data.Dataset, np.ndarray]":
    """Session-scoped (materialized host link table, sorted distinct host
    vector) keyed on sf_dir through
    :func:`ahrd_ray.stages.score.session_cached`.  Three analytics
    (PageRank, harmonic, crawl_schedule via PageRank) consume the same
    aggregated link table; without the cache each re-runs the corpus-sized
    anchor extraction.  The table is distinct-host-pair-sized and the host
    vector is the O(|hosts|) broadcast class."""
    from ahrd_ray.stages.partitioning import prune_stats_parents
    from ahrd_ray.stages.score import session_cached

    def build():
        links = prune_stats_parents(host_links(sf_dir).materialize())
        return links, _distinct_hosts(links)

    return session_cached(("host_links", os.path.abspath(sf_dir)), build)


def host_driver_max() -> int:
    """Host-count threshold below which the AGGREGATED host graph is
    treated as dim-table-sized and the iteration runs on driver-collected
    numpy state.  Above it, :func:`host_pagerank` / :func:`host_harmonic`
    switch to the distributed integer edge-sweep / frontier branch (the
    entity-PageRank machinery) — the host EDGE table never lands on the
    driver and no dense n x n matrix is built.  Env-overridable so tests
    force the distributed branch on small fixtures."""
    import os

    return int(os.environ.get("AHRD_HOST_DRIVER_MAX", "4096"))


def _distinct_hosts(links: ray.data.Dataset) -> np.ndarray:
    """Sorted distinct host vector of the (already aggregated) link table.

    Distributed distinct: per-batch ``np.unique`` over both endpoint
    columns, deterministic-hash partition fold, then ONE O(|hosts|) driver
    gather — node-count-sized state, the same broadcast class as the
    entity catalog (hosts ~1e8 fit where edges ~1e10 would not)."""
    import pandas as pd

    from ahrd_ray.stages.partitioning import n_hash_parts

    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> pa.Table:
        h = np.unique(
            np.concatenate(
                [
                    batch["src_host"].to_numpy(zero_copy_only=False),
                    batch["dst_host"].to_numpy(zero_copy_only=False),
                ]
            )
        )
        # pd.util.hash_array is cross-process deterministic (fixed hash
        # key), which the fold REQUIRES: the same host must land in the
        # same partition from every block
        npart = (
            pd.util.hash_array(np.asarray(h, dtype=object), categorize=False)
            % n_parts
        ).astype(np.int32)
        return pa.table(
            {
                "host": pa.array(h, type=pa.string()),
                "npart": pa.array(npart, type=pa.int32()),
            }
        )

    parts = (
        links.map_batches(partial, batch_format="pyarrow")
        .groupby("npart")
        .map_groups(lambda df: df[["host"]].drop_duplicates(), batch_format="pandas")
    )
    chunks = [
        b["host"].to_numpy(zero_copy_only=False)
        for b in parts.iter_batches(batch_format="pyarrow")
    ]
    if not chunks:
        return np.empty(0, dtype=object)
    return np.sort(np.concatenate(chunks))


def _int_edges(links: ray.data.Dataset, hosts: np.ndarray) -> ray.data.Dataset:
    """(src, dst, w) int64 edge table: endpoints looked up in the broadcast
    sorted host vector with ``np.searchsorted`` (no per-row dict, no
    shuffle join — the host vector ships ONCE via ray.put)."""
    from ahrd_ray.stages.partitioning import prune_stats_parents
    from ahrd_ray.stages.score import get_broadcast

    hosts_ref = ray.put(hosts)

    def to_int(batch: pa.Table) -> pa.Table:
        hv = get_broadcast(hosts_ref)
        src = np.searchsorted(hv, batch["src_host"].to_numpy(zero_copy_only=False))
        dst = np.searchsorted(hv, batch["dst_host"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "src": pa.array(src.astype(np.int64), type=pa.int64()),
                "dst": pa.array(dst.astype(np.int64), type=pa.int64()),
                "w": batch["n_links"].combine_chunks().cast(pa.int64()),
            }
        )

    edges = links.map_batches(to_int, batch_format="pyarrow").materialize()
    prune_stats_parents(edges)
    return edges


def _node_sweep(edges: ray.data.Dataset, key: str, contrib_fn, n: int) -> np.ndarray:
    """One streaming pass over the distributed int edge table: per-batch
    exact int64 segment sums per ``key`` node (map-side combine), node-hash
    groupby finalize, dense O(|hosts|) driver gather — the weighted sibling
    of ``graph._edge_sweep``.  ``contrib_fn(src, dst, w) -> int64`` per
    edge."""
    from ahrd_ray.stages.graph import _segment_sums
    from ahrd_ray.stages.partitioning import n_hash_parts

    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> pa.Table:
        src = batch["src"].to_numpy()
        dst = batch["dst"].to_numpy()
        w = batch["w"].to_numpy()
        k = src if key == "src" else dst
        nodes, totals = _segment_sums(k, contrib_fn(src, dst, w))
        return pa.table(
            {
                "node": pa.array(nodes, type=pa.int64()),
                "c": pa.array(totals, type=pa.int64()),
                "npart": pa.array((nodes % n_parts).astype(np.int32), type=pa.int32()),
            }
        )

    per_node = (
        edges.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("npart")
        .map_groups(
            lambda df: df.groupby("node", as_index=False)["c"].sum(),
            batch_format="pandas",
        )
    )
    dense = np.zeros(n, dtype=np.int64)
    for b in per_node.iter_batches(batch_format="pyarrow"):
        dense[b["node"].to_numpy()] = b["c"].to_numpy()
    return dense


def _host_pagerank_driver(
    links: "object", hosts: np.ndarray, iters: int
) -> np.ndarray:
    """Driver-side power iteration on the collected link table (pandas) —
    the dim-sized branch.  Exact int64 q-unit arithmetic."""
    from ahrd_ray.stages.graph import PR_DAMP_DEN, PR_DAMP_NUM, PR_UNIT

    n = len(hosts)
    src = np.searchsorted(hosts, links["src_host"].to_numpy())
    dst = np.searchsorted(hosts, links["dst_host"].to_numpy())
    w = links["n_links"].to_numpy(np.int64)
    outw = np.zeros(n, np.int64)
    np.add.at(outw, src, w)
    teleport = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_UNIT // PR_DAMP_DEN
    r = np.full(n, PR_UNIT, np.int64)
    for _ in range(iters):
        share = np.where(outw > 0, r // np.maximum(outw, 1), np.int64(0))
        contrib = (PR_DAMP_NUM * (share[src] * w)) // PR_DAMP_DEN
        sums = np.zeros(n, np.int64)
        np.add.at(sums, dst, contrib)
        r = teleport + sums
    return r


def _host_pagerank_distributed(
    links: ray.data.Dataset, hosts: np.ndarray, iters: int
) -> np.ndarray:
    """Distributed power iteration: the edge table stays a Ray dataset;
    each iteration is ONE weighted edge sweep (broadcast O(|hosts|) share
    vector via ray.put, exact int64 per-dst segment sums, node-hash fold,
    dense gather).  Arithmetic is bit-identical to the driver branch —
    ``(DAMP_NUM * (share[src] * w)) // DAMP_DEN`` summed per dst — because
    per-edge contributions are exact integers whose sum is
    order-independent."""
    from ahrd_ray.stages.graph import PR_DAMP_DEN, PR_DAMP_NUM, PR_UNIT
    from ahrd_ray.stages.score import get_broadcast

    n = len(hosts)
    edges = _int_edges(links, hosts)
    outw = _node_sweep(edges, "src", lambda s, d, w: w, n)
    teleport = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_UNIT // PR_DAMP_DEN
    r = np.full(n, PR_UNIT, np.int64)
    for _ in range(iters):
        share_ref = ray.put(
            np.where(outw > 0, r // np.maximum(outw, 1), np.int64(0))
        )

        def contrib(src, dst, w, _ref=share_ref):
            share = get_broadcast(_ref)
            return (PR_DAMP_NUM * (share[src] * w)) // PR_DAMP_DEN

        r = teleport + _node_sweep(edges, "dst", contrib, n)
    return r


def host_pagerank(sf_dir: str, iters: int = 5) -> ray.data.Dataset:
    """(host, rank_units) — weighted integer-unit PageRank over the host
    link graph, the Common-Crawl web-graph ranking product.

    Scale shape: the corpus-sized work (anchor extraction + per-batch
    partial counts) streams through :func:`host_links`; the iteration then
    branches on :func:`host_driver_max` — a dim-sized host graph (the
    synthetic LINK_HOST_MOD=97 corpus) collects the slim aggregated table
    and iterates in numpy, while a web-scale host graph (~1e8 hosts) keeps
    the edge table DISTRIBUTED and runs the same exact-int64 power
    iteration as weighted edge sweeps with broadcast O(|hosts|) rank
    state — the entity-PageRank machinery (graph._edge_sweep).  Both
    branches are bit-identical (pytest cross-checks them on a fixture
    >> threshold).  Dangling hosts keep their teleport mass; mass flowing
    to them is dropped, mirrored on both sides of the SQL-unrolled
    oracle."""
    links, hosts = cached_host_links(sf_dir)
    if len(hosts) <= host_driver_max():
        r = _host_pagerank_driver(links.to_pandas(), hosts, iters)
    else:
        r = _host_pagerank_distributed(links, hosts, iters)
    return ray.data.from_arrow(
        pa.table(
            {
                "host": pa.array(hosts, type=pa.string()),
                "rank_units": pa.array(r, type=pa.int64()),
            }
        )
    )


def host_quality(sf_dir: str) -> ray.data.Dataset:
    """(host, n_docs, sum_quality, mean_quality) — domain-level quality
    aggregation, the host/domain filtering pass of C4/RefinedWeb-style
    cleaning (spam farms show up as low-mean hosts, not low single docs).

    One streaming pass over pages: canonical host parsed from the html
    bytes + the per-doc quality kernel on text, folded per host inside
    the batch — the shuffle carries <= LINK_HOST_MOD rows per block.
    Quality sums in exact q20 int64 units (the _qsum rule: a double sum
    goes order-dependent past 2^53 units); one final unit->double
    conversion mirrors the oracle bit-for-bit."""
    import pandas as pd

    from ahrd_ray.config import QUANT
    from ahrd_ray.pipelines.kg import pages_dataset
    from ahrd_ray.stages.textstats import quality_batch

    def partial(batch: pa.Table) -> "pd.DataFrame":
        host = canonical_hosts(batch["html"].combine_chunks().cast(pa.string()))
        q = quality_batch(batch)["quality"].to_numpy()
        units = np.floor(q * QUANT + 0.5).astype(np.int64)
        df = pd.DataFrame({"host": host.to_pylist(), "u": units})
        df["n"] = np.int64(1)
        return df.groupby("host", as_index=False).agg(n=("n", "sum"), u=("u", "sum"))

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("host", as_index=False).agg(n=("n", "sum"), u=("u", "sum"))
        sum_q = g["u"].to_numpy(np.int64).astype(np.float64) / QUANT
        out = pd.DataFrame(
            {
                "host": g["host"],
                "n_docs": g["n"].astype("int64"),
                "sum_quality": sum_q,
                "mean_quality": sum_q / g["n"].to_numpy(np.int64).astype(np.float64),
            }
        )
        return out

    return (
        pages_dataset(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .map_groups(final, batch_format="pandas")
    )


HC_HOPS = 4  # truncated-harmonic horizon (both sides cap at the same K)
HC_UNIT = 10**9  # 1/d in exact integer units: HC_UNIT // d


def _host_harmonic_driver(links, hosts: np.ndarray, hops: int) -> np.ndarray:
    """Driver-side K-truncated BFS on the collected link table — the
    dim-sized branch.  Dense boolean matmuls are fine here BECAUSE the
    branch only runs under :func:`host_driver_max` hosts."""
    n = len(hosts)
    adj = np.zeros((n, n), dtype=bool)
    adj[
        np.searchsorted(hosts, links["src_host"].to_numpy()),
        np.searchsorted(hosts, links["dst_host"].to_numpy()),
    ] = True

    dist = np.zeros((n, n), dtype=np.int64)  # 0 = not yet reached
    reach = np.eye(n, dtype=bool)  # paths of length k-1
    seen = np.eye(n, dtype=bool)
    for k in range(1, hops + 1):
        reach = reach @ adj  # boolean matmul: length-k reachability
        fresh = reach & ~seen
        dist[fresh] = k
        seen |= fresh
    np.fill_diagonal(dist, 0)  # u == v contributes nothing

    units = np.zeros(n, dtype=np.int64)
    for k in range(1, hops + 1):
        units += (dist == k).sum(axis=0).astype(np.int64) * (HC_UNIT // k)
    return units


def _dedup_pairs(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Distinct (src, node) pair table: per-batch drop_duplicates partial
    (map-side combine), pair-hash groupby fold — the shuffle carries
    distinct pairs per block, never the raw join output."""
    import pandas as pd

    from ahrd_ray.stages.partitioning import n_hash_parts

    n_parts = n_hash_parts()

    def partial(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df[["src", "node"]].drop_duplicates()
        out["npart"] = (
            (out["src"].to_numpy(np.int64) * np.int64(1_000_003)
             + out["node"].to_numpy(np.int64))
            % n_parts
        ).astype(np.int32)
        return out

    return (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("npart")
        .map_groups(
            lambda df: df[["src", "node"]].drop_duplicates(),
            batch_format="pandas",
        )
    )


def _host_harmonic_distributed(
    links: ray.data.Dataset, hosts: np.ndarray, hops: int
) -> np.ndarray:
    """Distributed K-truncated BFS over the int edge table — NO dense
    n x n matrix, no driver edge collect.  State is the (source, node)
    reached-pair table, held DISTRIBUTED: round k joins the frontier to
    the edge table (hash join under the aggregator budget), dedups pairs
    map-side, anti-joins the seen set to get fresh pairs, and folds fresh
    counts per node into the O(|hosts|) units vector (the only driver
    state, same class as the PageRank rank vector).  Pair-table size is
    the number of (u, v) pairs within K hops — the problem's output-sized
    lower bound, vs the driver branch's unconditional n^2."""
    from ahrd_ray.stages.graph import _segment_sums
    from ahrd_ray.stages.partitioning import (
        budgeted_join,
        n_hash_parts,
        prune_stats_parents,
    )

    n = len(hosts)
    n_parts = n_hash_parts()
    edges = _int_edges(links, hosts).map_batches(
        lambda b: pa.table({"esrc": b["src"], "edst": b["dst"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()
    prune_stats_parents(edges)

    seed = pa.table(
        {
            "src": pa.array(np.arange(n, dtype=np.int64), type=pa.int64()),
            "node": pa.array(np.arange(n, dtype=np.int64), type=pa.int64()),
        }
    )
    frontier = ray.data.from_arrow(seed).repartition(n_parts)
    seen = frontier
    units = np.zeros(n, dtype=np.int64)

    def count_partial(batch: pa.Table) -> pa.Table:
        nodes, totals = _segment_sums(
            batch["node"].to_numpy(),
            np.ones(batch.num_rows, dtype=np.int64),
        )
        return pa.table(
            {
                "node": pa.array(nodes, type=pa.int64()),
                "c": pa.array(totals, type=pa.int64()),
                "npart": pa.array((nodes % n_parts).astype(np.int32), type=pa.int32()),
            }
        )

    for k in range(1, hops + 1):
        expanded = budgeted_join(
            frontier, edges, on=["node"], right_on=["esrc"], n_joins=2
        ).map_batches(
            lambda b: pa.table({"src": b["src"], "node": b["edst"]}),
            batch_format="pyarrow",
        )
        fresh = budgeted_join(
            _dedup_pairs(expanded),
            seen.map_batches(
                lambda b: b.select(["src", "node"]).rename_columns(["s2", "n2"]),
                batch_format="pyarrow",
            ),
            on=["src", "node"],
            right_on=["s2", "n2"],
            n_joins=2,
            join_type="left_anti",
        ).materialize()
        prune_stats_parents(fresh)
        if fresh.count() == 0:
            break

        per_node = (
            fresh.map_batches(count_partial, batch_format="pyarrow")
            .groupby("npart")
            .map_groups(
                lambda df: df.groupby("node", as_index=False)["c"].sum(),
                batch_format="pandas",
            )
        )
        inc = np.zeros(n, dtype=np.int64)
        for b in per_node.iter_batches(batch_format="pyarrow"):
            inc[b["node"].to_numpy()] = b["c"].to_numpy()
        units += inc * (HC_UNIT // k)

        seen = seen.union(fresh.select_columns(["src", "node"])).materialize()
        prune_stats_parents(seen)
        frontier = fresh.select_columns(["src", "node"])
    return units


def host_harmonic(sf_dir: str, hops: int = HC_HOPS) -> ray.data.Dataset:
    """(host, harmonic_units) — K-truncated harmonic centrality over the
    directed host graph: sum over sources u != v within ``hops`` of
    HC_UNIT // d(u, v).  The ranking Common Crawl publishes for its
    host-level web graph (harmonic centrality is preferred over closeness
    because unreachable pairs contribute 0, not infinity).

    Scale shape: the corpus-sized anchor extraction streams through
    host_links; the centrality then branches on :func:`host_driver_max` —
    dim-sized graphs run K boolean matrix powers on the driver, while a
    web-scale host graph runs the distributed frontier BFS
    (:func:`_host_harmonic_distributed`): the reached-pair table stays a
    Ray dataset, no n x n matrix exists anywhere, and the only driver
    state is the O(|hosts|) units vector.  Both branches are bit-identical
    (pytest cross-checks them on a fixture >> threshold).  Exact integer
    arithmetic (floor-div reciprocal units) mirrors the SQL-unrolled
    oracle bit-for-bit."""
    links, hosts = cached_host_links(sf_dir)
    if len(hosts) <= host_driver_max():
        units = _host_harmonic_driver(links.to_pandas(), hosts, hops)
    else:
        units = _host_harmonic_distributed(links, hosts, hops)
    return ray.data.from_arrow(
        pa.table(
            {
                "host": pa.array(hosts, type=pa.string()),
                "harmonic_units": pa.array(units, type=pa.int64()),
            }
        )
    )


def extract_anchor_targets(batch: pa.Table) -> "np.ndarray":
    """pages html -> int64 array of anchor TARGET PAGE IDS (one per anchor).

    Parses the ``/p/{id}`` path segment out of every ``<a rel="oN">`` href
    with Arrow re2 kernels — the page-level analogue of
    :func:`extract_host_links` (which keeps only the host).  No doc_id
    arithmetic on this side; the oracle re-derives targets from
    `documents` integer columns."""
    s = batch["html"].combine_chunks().cast(pa.string())
    parts = []
    for j in range(1, spec.LINK_K + 1):
        t = pc.struct_field(
            pc.extract_regex(
                s, rf'<a rel="o{j}" href="https://[^/"]+/p/(?P<t>[0-9]+)"'
            ),
            "t",
        )
        # pages without anchor slot j extract null — drop BEFORE the int64
        # cast (a null would round-trip through numpy as a NaN float and
        # poison the pa.array(int64) downstream)
        parts.append(
            pc.cast(t.drop_null(), pa.int64()).to_numpy(zero_copy_only=False)
        )
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def page_inlinks(sf_dir: str) -> ray.data.Dataset:
    """(page_id, n_inlinks) — page-level in-degree of the web graph,
    counted from the anchors parsed out of every page's html bytes.

    The page-level counterpart of :func:`host_links`: where the host graph
    collapses to a dim-sized table, the page in-degree table is
    corpus-sized (every linked-to page id is a row), so this is the true
    Common-Crawl web-graph product shape.  Scale: per-batch partial counts
    (sort + reduceat, no Python rows) cut the shuffle to distinct targets
    per block; a node-hash groupby folds partials without ever building a
    global dict."""
    import pandas as pd

    from ahrd_ray.pipelines.kg import pages_dataset
    from ahrd_ray.stages.partitioning import n_hash_parts

    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> pa.Table:
        t = np.sort(extract_anchor_targets(batch))
        if t.size == 0:
            # over-parallelized reads emit empty blocks at small scales;
            # np.r_[True] over a zero-length array would yield starts=[0]
            # and t[starts] would raise
            return pa.table(
                {
                    "page_id": pa.array([], type=pa.int64()),
                    "n_inlinks": pa.array([], type=pa.int64()),
                    "npart": pa.array([], type=pa.int32()),
                }
            )
        starts = np.flatnonzero(np.r_[True, t[1:] != t[:-1]])
        ids = t[starts]
        counts = np.diff(np.r_[starts, t.size]).astype(np.int64)
        return pa.table(
            {
                "page_id": pa.array(ids, type=pa.int64()),
                "n_inlinks": pa.array(counts, type=pa.int64()),
                "npart": pa.array((ids % n_parts).astype(np.int32), type=pa.int32()),
            }
        )

    def fold(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.groupby("page_id", as_index=False)["n_inlinks"].sum()
        return out.astype({"n_inlinks": "int64"})

    return (
        pages_dataset(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("npart")
        .map_groups(fold, batch_format="pandas")
    )


REDIRECT_HOPS = 8  # pointer-doubling rounds = log2(REDIRECT_HOPS)


def redirect_resolve(sf_dir: str, max_hops: int = REDIRECT_HOPS) -> ray.data.Dataset:
    """(doc_id, final_id, hops) — canonical-chain resolution over the page
    graph: each page's ``<link rel="redirect">`` element (parsed from the
    html bytes) is a rewrite pointer — the moved-permanently /
    canonical-URL chain every crawl carries — and each page is resolved to
    the page reached after at most ``max_hops`` rewrites, stopping early
    at pages with no redirect element or with a redirect pointing outside
    the corpus (a dangling target).

    Scale shape — pointer doubling: the hop map J_k(d) = (page after
    min(2^k, chain) hops, hops taken) is a corpus-sized table; each round
    composes J with itself via ONE hash self-join, so ``max_hops`` hops
    cost log2(max_hops) joins instead of max_hops sequential map rounds.
    Terminal rows (hops short of 2^k) compose with themselves as the
    identity, so the join stays total — no branch, no anti-join, and the
    corpus-sized state never lands on the driver.

    Oracle: ``max_hops`` single steps unrolled in SQL (LEFT JOIN
    membership per step), the same unroll style as the PageRank/BFS
    oracles."""
    import pandas as pd

    from ahrd_ray.pipelines.kg import pages_dataset
    from ahrd_ray.stages.partitioning import budgeted_join

    if max_hops & (max_hops - 1):
        raise ValueError("max_hops must be a power of two (doubling rounds)")

    def seed(batch: pa.Table) -> pa.Table:
        s = batch["html"].combine_chunks().cast(pa.string())
        t = pc.struct_field(
            pc.extract_regex(
                s, r'<link rel="redirect" href="https://[^/"]+/p/(?P<t>[0-9]+)"'
            ),
            "t",
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"].combine_chunks().cast(pa.int64()),
                "nxt": pc.cast(t, pa.int64()),  # null: no redirect element
            }
        )

    pages = pages_dataset(sf_dir)
    seeds = pages.map_batches(seed, batch_format="pyarrow")
    member = pages.select_columns(["doc_id"]).map_batches(
        # the join output keeps only non-key right columns, so membership
        # is carried by an explicit marker column
        lambda b: b.rename_columns(["m_id"]).append_column(
            "m_hit", pa.array(np.ones(b.num_rows, dtype=np.int8))
        ),
        batch_format="pyarrow",
    )

    def seed_fold(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy()
        nxt = batch["nxt"].to_numpy(zero_copy_only=False)
        hit = batch["m_hit"].to_numpy(zero_copy_only=False)  # null: dangling/absent
        ok = ~pd.isna(hit)
        return pa.table(
            {
                "doc_id": pa.array(d, type=pa.int64()),
                "p": pa.array(np.where(ok, nxt, d).astype(np.int64), type=pa.int64()),
                "h": pa.array(ok.astype(np.int64), type=pa.int64()),
            }
        )

    j = (
        budgeted_join(seeds, member, on=["nxt"], right_on=["m_id"], join_type="left_outer")
        .map_batches(seed_fold, batch_format="pyarrow")
        .materialize()
    )

    import math

    for _ in range(int(math.log2(max_hops))):
        right = j.map_batches(
            lambda b: b.rename_columns(["d2", "p2", "h2"]), batch_format="pyarrow"
        )
        j = (
            budgeted_join(j, right, on=["p"], right_on=["d2"])
            .map_batches(
                lambda b: pa.table(
                    {
                        "doc_id": b["doc_id"],
                        "p": b["p2"],
                        "h": pc.add(b["h"], b["h2"]),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )

    return j.map_batches(
        lambda b: pa.table(
            {
                "doc_id": b["doc_id"],
                "final_id": b["p"],
                "hops": pc.cast(b["h"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# recrawl scheduling: staleness is measured against a fixed reference
# instant (a crawl cycle's launch time); priorities are exact int64
# rank_units * age_seconds products
CRAWL_REF_TS = np.datetime64("2025-03-01T00:00:00", "us")
CRAWL_TOP_K = 3


def crawl_schedule(sf_dir: str) -> ray.data.Dataset:
    """(host, doc_id, priority_units) — the recrawl frontier: per host, the
    CRAWL_TOP_K stalest-x-most-important pages, priority = host PageRank
    rank_units x whole seconds since the page's warc_ts (floor-div, clamped
    >= 1).  The scheduling pass of a continuous crawl: importance says
    which hosts deserve budget, staleness says which of their pages to
    spend it on.

    Scale shape: the host rank vector is dim-sized (LINK_HOST_MOD-bounded
    — the pagerank broadcast class) and ships once via ray.put; the
    corpus-sized work is ONE map pass (parse canonical host from the html
    bytes, int64 priority arithmetic, per-batch partial top-K per host) and
    the shuffle carries <= CRAWL_TOP_K rows per (host, block) into the
    host-hash finalize — never the page table."""
    import pandas as pd

    from ahrd_ray.pipelines.kg import pages_dataset
    from ahrd_ray.stages.score import get_broadcast

    pr = host_pagerank(sf_dir).to_pandas()  # dim-sized by LINK_HOST_MOD
    rank_ref = ray.put(pd.Series(
        pr["rank_units"].to_numpy(np.int64), index=pr["host"]
    ))

    def partial(batch: pa.Table) -> "pd.DataFrame":
        ranks = get_broadcast(rank_ref)
        s = batch["html"].combine_chunks().cast(pa.string())
        host = canonical_hosts(s).to_pandas()
        ts = batch["warc_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        age = np.maximum((int(CRAWL_REF_TS.astype(np.int64)) - ts) // 1_000_000, 1)
        df = pd.DataFrame(
            {
                "host": host,
                "doc_id": batch["doc_id"].to_numpy(),
                # fill_value=0: a canonical host absent from the PageRank
                # table (no outlinks anywhere) gets priority 0 instead of a
                # NaN that the int64 conversion would raise on
                "priority_units": ranks.reindex(host, fill_value=0).to_numpy(np.int64)
                * age,
            }
        )
        return (
            df.sort_values(
                ["host", "priority_units", "doc_id"],
                ascending=[True, False, True],
                kind="mergesort",
            )
            .groupby("host", as_index=False)
            .head(CRAWL_TOP_K)
        )

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.sort_values(
                ["priority_units", "doc_id"], ascending=[False, True], kind="mergesort"
            )
            .head(CRAWL_TOP_K)
            .astype({"doc_id": "int64", "priority_units": "int64"})
        )

    return (
        pages_dataset(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .map_groups(final, batch_format="pandas")
    )


def host_dup_rate(sf_dir: str) -> ray.data.Dataset:
    """(host, n_windows, n_dups, dup_ratio) — per-host paragraph-duplicate
    rate: the domain-level spam/boilerplate signal (C4/RefinedWeb drop
    whole hosts whose pages are mostly copies).  A window instance is a
    dup when it is NOT the corpus-first occurrence of its exact word
    sequence (dedup.paragraph_dedup's keep flag).

    Scale shape: rides paragraph_dedup's integer-only shuffle (hash,
    doc_id, para_idx — document text never moves), then a map-side partial
    rollup so the host groupby carries <= |hosts| rows per block.  The
    host key derives from the spec arithmetic the pages synth uses (the
    crawl_log precedent: fixture synthesis, not the operator under test —
    wb_host_quality covers parsing the canonical host out of html
    bytes)."""
    import pandas as pd

    from ahrd_ray.stages.dedup import paragraph_dedup

    def partial(t: pa.Table) -> "pd.DataFrame":
        d = t["doc_id"].to_numpy()
        keep = t["keep"].to_numpy(zero_copy_only=False).astype(bool)
        return (
            pd.DataFrame(
                {
                    "hostn": (d % spec.LINK_HOST_MOD).astype(np.int64),
                    "n_windows": np.ones(len(d), dtype=np.int64),
                    "n_dups": (~keep).astype(np.int64),
                }
            )
            .groupby("hostn", as_index=False)
            .sum()
        )

    def final(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby("hostn", as_index=False)[["n_windows", "n_dups"]].sum()
        return pd.DataFrame(
            {
                "host": "h" + g["hostn"].astype(str) + ".example.org",
                "n_windows": g["n_windows"].astype("int64"),
                "n_dups": g["n_dups"].astype("int64"),
                "dup_ratio": g["n_dups"].to_numpy(np.float64)
                / g["n_windows"].to_numpy(np.float64),
            }
        )

    return (
        paragraph_dedup(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("hostn")
        .map_groups(final, batch_format="pandas")
    )


def anchor_text_index(sf_dir: str) -> ray.data.Dataset:
    """(page_id, anchor_text, n) — the anchor-text index: for every linked-
    to page, the texts other pages use to link to it, counted.  THE
    classic web-IR aliasing signal (anchor text names entities better than
    the target page itself); the entity-linking stage consumes it as an
    alias table.

    Parses BOTH the href target and the anchor's inner text out of the
    html bytes with one re2 kernel per anchor slot.  Same partial-count /
    node-hash-fold shape as page_inlinks — the shuffle carries distinct
    (target, text) partials per block, never anchors."""
    import pandas as pd

    from ahrd_ray.pipelines.kg import pages_dataset
    from ahrd_ray.stages.partitioning import n_hash_parts

    n_parts = n_hash_parts()

    def partial(batch: pa.Table) -> "pd.DataFrame":
        s = batch["html"].combine_chunks().cast(pa.string())
        frames = []
        for j in range(1, spec.LINK_K + 1):
            m = pc.extract_regex(
                s,
                rf'<a rel="o{j}" href="https://[^/"]+/p/(?P<t>[0-9]+)">(?P<x>[^<]*)</a>',
            )
            frames.append(
                pd.DataFrame(
                    {
                        "page_id": pc.cast(pc.struct_field(m, "t"), pa.int64())
                        .to_numpy(zero_copy_only=False),
                        "anchor_text": pc.struct_field(m, "x").to_pandas(),
                    }
                )
            )
        df = pd.concat(frames)
        out = df.groupby(["page_id", "anchor_text"], as_index=False).size()
        out = out.rename(columns={"size": "n"}).astype({"page_id": "int64", "n": "int64"})
        out["npart"] = (out["page_id"] % n_parts).astype("int32")
        return out

    def fold(df: "pd.DataFrame") -> "pd.DataFrame":
        return (
            df.groupby(["page_id", "anchor_text"], as_index=False)["n"]
            .sum()
            .astype({"n": "int64"})
        )

    return (
        pages_dataset(sf_dir)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("npart")
        .map_groups(fold, batch_format="pandas")
    )


def robots_txt_of(host_id: int) -> str:
    """Synthesized robots.txt for host ``h{host_id}.example.org`` — three
    deterministic rule classes by host_id % 3, each with a decoy
    group for a different user-agent so group selection is exercised."""
    decoy = "User-agent: badbot\nDisallow: /\n\n"
    k = host_id % 3
    if k == 0:
        # longest-match precedence: /p/1* allowed, other /p/* blocked
        return decoy + "User-agent: *\n# block paged urls\nDisallow: /p/\nAllow: /p/1\n"
    if k == 1:
        return decoy + "User-Agent: *\r\nDisallow: /private/\r\n"
    return decoy  # no * group at all -> everything allowed


def parse_robots(text: str, agent: str = "*") -> "list[tuple[bool, str]]":
    """Minimal real RFC 9309 parser: select the group whose User-agent
    matches ``agent`` (exact, case-insensitive; groups may stack several
    User-agent lines), collect its Allow/Disallow rules in order.  Lines
    are comment-stripped (#), keys case-insensitive, CRLF tolerated.
    Returns [(is_allow, path_prefix), ...] for the matched group."""
    rules: list[tuple[bool, str]] = []
    current_agents: list[str] = []
    in_matched_group = False
    seen_rule_since_agents = True
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition(":")
        key = key.strip().lower()
        val = val.strip()
        if key == "user-agent":
            if seen_rule_since_agents:
                current_agents = []
                seen_rule_since_agents = False
            current_agents.append(val.lower())
            in_matched_group = agent.lower() in current_agents
        elif key in ("allow", "disallow"):
            seen_rule_since_agents = True
            if in_matched_group and val:
                rules.append((key == "allow", val))
    return rules


def robots_decide(paths: "np.ndarray", rules: "list[tuple[bool, str]]") -> "np.ndarray":
    """Vectorized longest-match decision over one host's rules: the rule
    with the longest matching prefix wins; Allow wins exact-length ties;
    no match -> allowed (RFC 9309 defaults)."""
    allowed = np.ones(len(paths), dtype=bool)
    best_len = np.zeros(len(paths), dtype=np.int64)
    arr = paths.astype(str)
    for is_allow, prefix in rules:
        m = np.char.startswith(arr, prefix)
        plen = len(prefix)
        better = m & (
            (plen > best_len) | ((plen == best_len) & np.logical_not(allowed) & is_allow)
        )
        allowed = np.where(better, is_allow, allowed)
        best_len = np.where(better, plen, best_len)
    return allowed


def robots_filter(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, host, allowed) — RFC 9309 robots.txt gating of every
    page's canonical URL (path /p/{doc_id} on host h{doc_id % M}): the
    crawl-politeness stage every fetch frontier runs.  robots.txt TEXTS
    are synthesized per host and parsed with the real group-selecting
    parser; decisions are vectorized longest-match with Allow tie-wins.

    Scale shape: the per-host rule table is dim-sized (parsed once in the
    task closure, broadcast by capture); the decision pass is one
    shuffle-free vectorized map over documents."""
    from ahrd_ray.sources import spec

    rules_of = {
        k: parse_robots(robots_txt_of(k)) for k in range(spec.LINK_HOST_MOD)
    }

    def decide(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        ks = ids % spec.LINK_HOST_MOD
        paths = np.array([f"/p/{d}" for d in ids], dtype=str)
        allowed = np.zeros(len(ids), dtype=bool)
        for k in np.unique(ks):
            m = ks == k
            allowed[m] = robots_decide(paths[m], rules_of[int(k)])
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "host": pa.array(
                    [f"h{int(k)}.example.org" for k in ks], type=pa.string()
                ),
                "allowed": pa.array(allowed.astype(np.int64), type=pa.int64()),
            }
        )

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return docs.map_batches(decide, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Sitemaps (sitemaps.org protocol 0.9)
# ---------------------------------------------------------------------------
# The crawl-discovery channel next to robots.txt: shard files of <urlset>
# entries plus ONE <sitemapindex> naming the shards (the protocol's answer
# to its own 50k-URL/50MB per-file caps).  The writer XML-escapes locs
# (some carry literal '&' in their query), the reader is a real namespace-
# aware ElementTree parse per shard — fixture synthesis on the write side,
# genuine XML parsing under test on the read side.

_SITEMAP_NS = "http://www.sitemaps.org/schemas/sitemap/0.9"
SITEMAP_QUERY_MOD = 7  # doc_id % 7 == 0 -> loc carries ?a=..&b=.. (escaping)
SITEMAP_PRIO_MOD = 11  # priority = (doc_id % 11) / 10, one decimal


def sitemap_loc_of(doc_id: int, lang: str) -> str:
    q = (
        f"?a={doc_id % 5}&b={doc_id % 3}"
        if doc_id % SITEMAP_QUERY_MOD == 0
        else ""
    )
    return f"{spec.URL_PREFIX}{lang}/{doc_id}{q}"


def sitemap_dir(sf_dir: str) -> str:
    """Sitemap shard fixture: one <urlset> file per documents block plus a
    <sitemapindex> written after the shards exist (it must name them)."""
    from xml.sax.saxutils import escape

    from ahrd_ray.sources.formats import _render

    def write(out_dir: str) -> None:
        import os as _os

        docs = ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
        )

        def write_block(batch: pa.Table) -> pa.Table:
            ids = batch["doc_id"].to_numpy()
            if not len(ids):  # over-parallel reads can emit empty blocks
                return batch.select(["doc_id"]).slice(0, 0)
            langs = batch["lang"].to_pylist()
            epoch = np.datetime64(spec.WARC_EPOCH.replace(" ", "T"), "s")
            lo = int(ids.min())
            rows = []
            for d, lang in zip(ids, langs):
                d = int(d)
                lastmod = str(epoch + np.timedelta64(d, "s")) + "+00:00"
                prio = (d % SITEMAP_PRIO_MOD) / 10
                rows.append(
                    "  <url>\n"
                    f"    <loc>{escape(sitemap_loc_of(d, lang))}</loc>\n"
                    f"    <lastmod>{lastmod}</lastmod>\n"
                    f"    <priority>{prio:.1f}</priority>\n"
                    "  </url>\n"
                )
            body = (
                '<?xml version="1.0" encoding="UTF-8"?>\n'
                f'<urlset xmlns="{_SITEMAP_NS}">\n' + "".join(rows) + "</urlset>\n"
            )
            with open(f"{out_dir}/sitemap-{lo:012d}.xml", "w", encoding="utf-8") as f:
                f.write(body)
            return batch.select(["doc_id"]).slice(0, 0)

        docs.map_batches(write_block, batch_format="pyarrow").materialize()
        shards = sorted(
            n for n in _os.listdir(out_dir) if n.startswith("sitemap-")
        )
        entries = "".join(
            f"  <sitemap><loc>file://{out_dir}/{n}</loc></sitemap>\n"
            for n in shards
        )
        with open(f"{out_dir}/sitemap-index.xml", "w", encoding="utf-8") as f:
            f.write(
                '<?xml version="1.0" encoding="UTF-8"?>\n'
                f'<sitemapindex xmlns="{_SITEMAP_NS}">\n'
                + entries
                + "</sitemapindex>\n"
            )

    return _render(sf_dir, "sitemaps", write)


def parse_sitemap_index(path: str) -> list[str]:
    """<sitemapindex> -> shard paths (file:// locs), namespace-aware."""
    import xml.etree.ElementTree as ET

    root = ET.parse(path).getroot()
    locs = [
        e.text.strip()
        for e in root.findall(f"{{{_SITEMAP_NS}}}sitemap/{{{_SITEMAP_NS}}}loc")
    ]
    return [l.removeprefix("file://") for l in locs]


def parse_sitemap_shard(path: str) -> pa.Table:
    """One <urlset> shard -> (url, lastmod, priority_milli) rows via a
    real namespace-aware XML parse (entity unescaping included)."""
    import datetime as _dt
    import xml.etree.ElementTree as ET

    root = ET.parse(path).getroot()
    urls, mods, prios = [], [], []
    for u in root.findall(f"{{{_SITEMAP_NS}}}url"):
        urls.append(u.find(f"{{{_SITEMAP_NS}}}loc").text.strip())
        lastmod = u.find(f"{{{_SITEMAP_NS}}}lastmod")
        mods.append(
            np.datetime64(
                _dt.datetime.fromisoformat(lastmod.text.strip()).replace(
                    tzinfo=None
                ),
                "us",
            )
            if lastmod is not None
            else np.datetime64("NaT", "us")
        )
        prio = u.find(f"{{{_SITEMAP_NS}}}priority")
        prios.append(
            round(float(prio.text) * 1000) if prio is not None else 500
        )
    return pa.table(
        {
            "url": pa.array(urls, type=pa.string()),
            "lastmod": pa.array(mods, type=pa.timestamp("us")),
            "priority_milli": pa.array(prios, type=pa.int64()),
        }
    )


def sitemap_urls(sf_dir: str) -> ray.data.Dataset:
    """Sitemap ingest: the index is one tiny driver-side parse (it lists
    shard paths, nothing else); shards fan out through ``from_items`` and
    parse inside the map tasks."""
    index = f"{sitemap_dir(sf_dir)}/sitemap-index.xml"
    paths = parse_sitemap_index(index)
    ds = ray.data.from_items([{"path": p} for p in paths])

    def parse(batch: pa.Table) -> pa.Table:
        tables = [parse_sitemap_shard(p) for p in batch["path"].to_pylist()]
        if not tables:
            return pa.table(
                {
                    "url": pa.array([], type=pa.string()),
                    "lastmod": pa.array([], type=pa.timestamp("us")),
                    "priority_milli": pa.array([], type=pa.int64()),
                }
            )
        return pa.concat_tables(tables)

    return ds.map_batches(parse, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Strongly-connected components of the directed host graph
# ---------------------------------------------------------------------------
# The web-graph structure decomposition (the "bow-tie" analysis input):
# mutually-reachable host groups.  Algorithm on BOTH branches is the
# iterated forward/backward min-label fixpoint: F[v] = min unassigned id
# that reaches v, B[v] = min unassigned id v reaches; v is assigned to
# component root F[v] exactly where F[v] == B[v] (then root reaches v and
# v reaches root — mutual), peeled and repeated.  Every pass is an edge
# sweep with broadcast O(|hosts|) label state; the edge table never lands
# on the driver in the distributed branch and no dense matrix exists
# anywhere.  Terminates in <= #components peels, each peel O(diameter)
# sweeps.

_SCC_BIG = np.int64(2**62)


def _scc_min_labels(sweep, n: int, active: np.ndarray) -> np.ndarray:
    """Min-label fixpoint: start from own id on active nodes, repeatedly
    take the elementwise min with the swept neighbor labels."""
    lab = np.where(active, np.arange(n, dtype=np.int64), _SCC_BIG)
    while True:
        cand = sweep(lab)
        new = np.minimum(lab, np.where(active, cand, _SCC_BIG))
        if (new == lab).all():
            return lab
        lab = new


def _scc_assign(fw_sweep, bw_sweep, n: int) -> np.ndarray:
    scc = np.full(n, -1, dtype=np.int64)
    guard = 0
    while (scc < 0).any():
        guard += 1
        if guard > n + 1:  # cannot happen: every peel assigns >= 1 root
            raise RuntimeError("SCC peeling failed to converge")
        active = scc < 0
        f = _scc_min_labels(lambda lab: fw_sweep(lab, active), n, active)
        b = _scc_min_labels(lambda lab: bw_sweep(lab, active), n, active)
        done = active & (f == b)
        scc[done] = f[done]
    return scc


def _scc_driver(links: "pd.DataFrame", hosts: np.ndarray) -> np.ndarray:
    """Dim-sized branch: edges as in-memory int arrays, sweeps are
    np.minimum.at scatters — no adjacency matrix."""
    src = np.searchsorted(hosts, links["src_host"].to_numpy())
    dst = np.searchsorted(hosts, links["dst_host"].to_numpy())
    n = len(hosts)

    def sweep(out_nodes, in_nodes):
        def f(lab: np.ndarray, active: np.ndarray) -> np.ndarray:
            cand = np.full(n, _SCC_BIG)
            m = active[src] & active[dst]
            np.minimum.at(cand, out_nodes[m], lab[in_nodes[m]])
            return cand

        return f

    return _scc_assign(sweep(dst, src), sweep(src, dst), n)


def _scc_distributed(links: ray.data.Dataset, hosts: np.ndarray) -> np.ndarray:
    """Web-scale branch: the edge table stays distributed; each sweep maps
    edge blocks against the broadcast label vector, emits per-block
    per-node min partials (node-state-sized), and folds them driver-side
    — the harmonic/PageRank distributed-branch contract."""
    edges = _int_edges(links, hosts)
    n = len(hosts)

    def make_sweep(key_out: str):
        def sweep(lab: np.ndarray, active: np.ndarray) -> np.ndarray:
            state_ref = ray.put((lab, active))

            def partial(batch: pa.Table) -> pa.Table:
                from ahrd_ray.stages.score import get_broadcast

                lb, act = get_broadcast(state_ref)
                src = batch["src"].to_numpy()
                dst = batch["dst"].to_numpy()
                m = act[src] & act[dst]
                out = (dst if key_out == "dst" else src)[m]
                inn = (src if key_out == "dst" else dst)[m]
                vals = lb[inn]
                order = np.argsort(out, kind="stable")
                out, vals = out[order], vals[order]
                starts = np.flatnonzero(np.r_[True, out[1:] != out[:-1]]) if len(out) else np.empty(0, np.int64)
                mins = np.minimum.reduceat(vals, starts) if len(out) else vals[:0]
                return pa.table(
                    {
                        "node": pa.array(out[starts.astype(np.int64)] if len(out) else out[:0], type=pa.int64()),
                        "v": pa.array(mins, type=pa.int64()),
                    }
                )

            dense = np.full(n, _SCC_BIG)
            for b in edges.map_batches(
                partial, batch_format="pyarrow", zero_copy_batch=True
            ).iter_batches(batch_format="pyarrow"):
                np.minimum.at(dense, b["node"].to_numpy(), b["v"].to_numpy())
            return dense

        return sweep

    return _scc_assign(make_sweep("dst"), make_sweep("src"), n)


def host_scc(sf_dir: str) -> ray.data.Dataset:
    """(host, scc_root, scc_size) — per host, its strongly-connected
    component's root (the MIN host string in the component — host indices
    are ranks in the sorted host vector, so min index == min string) and
    the component size."""
    links, hosts = cached_host_links(sf_dir)
    if len(hosts) <= host_driver_max():
        scc = _scc_driver(links.to_pandas(), hosts)
    else:
        scc = _scc_distributed(links, hosts)
    sizes = np.bincount(scc, minlength=len(hosts))
    return ray.data.from_arrow(
        pa.table(
            {
                "host": pa.array(hosts, type=pa.string()),
                "scc_root": pa.array(hosts[scc], type=pa.string()),
                "scc_size": pa.array(sizes[scc].astype(np.int64), type=pa.int64()),
            }
        )
    )


def host_reciprocity(sf_dir: str) -> ray.data.Dataset:
    """(host, n_neighbors, n_reciprocal) — per host, its distinct
    out-neighbors (self-loops excluded) and how many of them link back:
    the web-graph reciprocity signal (link exchanges / mutual-citation
    rings score high; organic authority links are mostly one-way).

    Shape: the cached aggregated link table streams through one
    canonical-pair groupby — each distinct directed edge becomes one
    (lo, hi, dir) row, the pair-hash fold decides reciprocity per
    undirected pair, and per-host counts ride a second slim fold.  The
    shuffle carries distinct host pairs only; nothing is dim-assumed, so
    this works unchanged on a web-scale host graph."""
    import pandas as pd

    from ahrd_ray.stages.partitioning import n_hash_parts

    links, _hosts = cached_host_links(sf_dir)
    n_parts = n_hash_parts()

    def pair_rows(batch: pa.Table) -> "pd.DataFrame":
        src = batch["src_host"].to_numpy(zero_copy_only=False)
        dst = batch["dst_host"].to_numpy(zero_copy_only=False)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        fwd = src < dst  # direction flag relative to the canonical pair
        df = pd.DataFrame(
            {"lo": lo, "hi": hi, "fwd": fwd.astype(np.int64),
             "rev": (~fwd).astype(np.int64)}
        ).drop_duplicates(["lo", "hi", "fwd"])
        df["ppart"] = (
            pd.util.hash_array(
                (df["lo"] + "|" + df["hi"]).to_numpy(dtype=object),
                categorize=False,
            )
            % n_parts
        ).astype("int32")
        return df

    def pair_fold(df: "pd.DataFrame") -> "pd.DataFrame":
        g = df.groupby(["lo", "hi"], as_index=False)[["fwd", "rev"]].max()
        both = (g["fwd"] + g["rev"] == 2).to_numpy()
        out = pd.concat(
            [
                pd.DataFrame(
                    {"host": g["lo"][g["fwd"] == 1],
                     "rec": both[(g["fwd"] == 1).to_numpy()]}
                ),
                pd.DataFrame(
                    {"host": g["hi"][g["rev"] == 1],
                     "rec": both[(g["rev"] == 1).to_numpy()]}
                ),
            ],
            ignore_index=True,
        )
        out["n_neighbors"] = np.int64(1)
        out["n_reciprocal"] = out.pop("rec").astype(np.int64)
        return out.groupby("host", as_index=False)[
            ["n_neighbors", "n_reciprocal"]
        ].sum()

    def host_fold(df: "pd.DataFrame") -> "pd.DataFrame":
        return df.groupby("host", as_index=False)[
            ["n_neighbors", "n_reciprocal"]
        ].sum().astype({"n_neighbors": "int64", "n_reciprocal": "int64"})

    return (
        links.map_batches(pair_rows, batch_format="pyarrow")
        .groupby("ppart")
        .map_groups(pair_fold, batch_format="pandas")
        .groupby("host")
        .map_groups(host_fold, batch_format="pandas")
    )
