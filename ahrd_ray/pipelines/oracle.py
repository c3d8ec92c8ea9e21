"""DuckDB oracle SQL generator.

Renders, from the SAME constants that drive the Ray pipeline
(``ahrd_ray.sources.spec`` + ``EngineConfig``), ANSI/DuckDB SQL equivalents
for every SQL-expressible operator.  The driver runs these side-by-side with
the Ray queries at sf0.01 and compares row-count + schema + value-hash — the
correctness gate.

Determinism: all reductions sum integers or 2^-20-quantized dyadics, so
DuckDB's parallel SUM and numpy's segment sums produce bit-identical doubles;
scalar formulas are written with the same operand order as the numpy kernel.
"""

from __future__ import annotations

from ahrd_ray.config import (
    QUANT,
    TOKEN_SPLITTER_REGEX,
    EngineConfig,
    load_regex_list,
)
from ahrd_ray.sources import spec


def _sq(s: str) -> str:
    """SQL single-quote escaping (DuckDB does not process backslashes in
    single-quoted literals, so regexes pass through verbatim)."""
    return s.replace("'", "''")


def _q20(expr: str) -> str:
    return f"floor(({expr}) * {QUANT!r} + 0.5) / {QUANT!r}"


SPLIT_SQL = _sq(TOKEN_SPLITTER_REGEX)


def _case_source(expr_by_source: dict[str, str]) -> str:
    whens = " ".join(f"WHEN '{s}' THEN {e}" for s, e in expr_by_source.items())
    return f"(CASE source {whens} END)"


def _filter_chain_sql(raw_expr: str, filters: list[str]) -> str:
    e = raw_expr
    for pat in filters:
        e = f"regexp_replace({e}, '{_sq(pat)}', ' ', 'g')"
    return f"trim(regexp_replace({e}, '\\s{{2,}}', ' ', 'g'))"


def _not_matches_all(expr: str, patterns: list[str]) -> str:
    return " AND ".join(f"NOT regexp_matches({expr}, '{_sq(p)}')" for p in patterns)


# ---------------------------------------------------------------------------
# Shared CTE blocks
# ---------------------------------------------------------------------------

def cte_doc_tokens() -> str:
    return f"""doc_tokens AS (
  SELECT DISTINCT doc_id, token FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '{SPLIT_SQL}')) AS token
    FROM documents
  ) WHERE token <> ''
)"""


def cte_vocab() -> str:
    return """vocab AS (
  SELECT array_agg(token ORDER BY token) AS arr, count(*) AS n
  FROM (SELECT DISTINCT token FROM doc_tokens)
)"""


def cte_catalog(cfg: EngineConfig) -> str:
    src_case = (
        f"(CASE p_partkey % 3 WHEN 0 THEN '{spec.SOURCE_BY_MOD3[0]}' "
        f"WHEN 1 THEN '{spec.SOURCE_BY_MOD3[1]}' ELSE '{spec.SOURCE_BY_MOD3[2]}' END)"
    )
    raw = (
        f"(CASE WHEN p_partkey % {spec.PUTATIVE_MOD} = 0 THEN 'Putative ' "
        f"WHEN p_partkey % {spec.UNCHAR_MOD} = 0 THEN 'uncharacterized ' ELSE '' END)"
        " || p_name || ' ' || lower(p_type) || ' assembly'"
        f" || (CASE WHEN p_partkey % {spec.FAMILY_MOD} = 0 THEN ' family protein' ELSE '' END)"
        f" || (CASE WHEN p_partkey % {spec.FRAGMENT_MOD} = 0 THEN ' (Fragment)' ELSE '' END)"
        f" || (CASE WHEN p_partkey % {spec.OS_MOD} = 0 THEN ' OS=Synthetica generica' ELSE '' END)"
    )
    # blacklist is shared across sources in the default config
    blacklist = cfg.sources[0].blacklist()
    filt = _case_source(
        {s.name: _filter_chain_sql("raw_description", s.filters()) for s in cfg.sources}
    )
    return f"""catalog_raw AS (
  SELECT p_partkey AS cand_ord,
         {src_case} AS source,
         'P' || CAST(p_partkey AS VARCHAR) AS cand_short,
         {src_case} || '|P' || CAST(p_partkey AS VARCHAR) || '|' || replace(p_brand, '#', '') AS cand_id,
         {raw} AS raw_description,
         CAST({spec.CAND_LEN_BASE} + p_size AS BIGINT) AS cand_len,
         p_name
  FROM part
),
catalog_flt AS (
  SELECT *, ({_not_matches_all('raw_description', blacklist)}) AS passes_blacklist,
         {filt} AS description
  FROM catalog_raw
),
catalog_tokens AS (
  SELECT DISTINCT cand_ord, token FROM (
    SELECT cand_ord, unnest(regexp_split_to_array(lower(description), '{SPLIT_SQL}')) AS token
    FROM catalog_flt WHERE passes_blacklist
  ) WHERE token <> '' AND {_not_matches_all('token', cfg.sources[0].token_blacklist())}
),
catalog AS (
  SELECT c.*, coalesce(t.n_tokens, 0) AS n_tokens,
         (c.passes_blacklist AND c.description <> '' AND coalesce(t.n_tokens, 0) > 0) AS valid
  FROM catalog_flt c
  LEFT JOIN (SELECT cand_ord, count(*) AS n_tokens FROM catalog_tokens GROUP BY cand_ord) t
    USING (cand_ord)
)"""


def cte_aliases() -> str:
    return f"""aliases AS (
  SELECT DISTINCT cand_ord, mention FROM (
    SELECT p_partkey AS cand_ord, unnest(string_split(lower(p_name), ' ')) AS mention FROM part
    UNION ALL
    SELECT p.p_partkey, v.arr[1 + (p.p_partkey % {spec.ALIAS_MOD})]
    FROM part p, vocab v WHERE (p.p_partkey % {spec.ALIAS_MOD}) < v.n
  )
)"""


def cte_candidates() -> str:
    """Raw candidate links (pre-dedup, pre-validity)."""
    return f"""candidates AS (
  SELECT dt.doc_id,
         c.source,
         a.cand_ord,
         CAST((a.cand_ord * {spec.E_RANK_MULT_P} + dt.doc_id * {spec.E_RANK_MULT_D}) % {spec.E_RANK_MOD} AS DOUBLE) / {spec.E_RANK_DIV!r} AS e_rank,
         CAST((a.cand_ord * {spec.MS_MULT_P} + dt.doc_id * {spec.MS_MULT_D} + length(a.mention)) % {spec.MS_MOD} + {spec.MS_OFF} AS DOUBLE) AS match_score,
         strpos(lower(d.text), a.mention) AS span_start,
         strpos(lower(d.text), a.mention) + length(a.mention) AS span_end,
         1 + (a.cand_ord % {spec.CSTART_MOD}) AS cand_start,
         1 + (a.cand_ord % {spec.CSTART_MOD}) + 1 + ((a.cand_ord + dt.doc_id) % {spec.CEND_MOD}) AS cand_end,
         strpos(lower(d.text), a.mention) AS ingest_seq,
         length(d.text) AS doc_len,
         c.cand_len, c.cand_id, c.cand_short, c.description, c.valid
  FROM doc_tokens dt
  JOIN aliases a ON dt.token = a.mention
  JOIN documents d ON d.doc_id = dt.doc_id
  JOIN catalog c ON c.cand_ord = a.cand_ord
)"""


def cte_valid_dedup() -> str:
    """M8 validity filter + S4 HSP dedup (keep max match_score, reading
    order first on ties)."""
    return """vcands AS (
  SELECT * FROM candidates
  WHERE valid AND span_start < span_end AND cand_start < cand_end AND match_score > 0
),
dcands AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (
        PARTITION BY doc_id, cand_ord
        ORDER BY match_score DESC, ingest_seq ASC) AS hsp_rn
    FROM vcands
  ) WHERE hsp_rn = 1
)"""


def cte_scoring(cfg: EngineConfig, top_k: int | None = None) -> str:
    """The A2-A10 chain over dcands."""
    k = cfg.top_k if top_k is None else top_k
    w_by = cfg.weights_by_source()
    w_case = _case_source({s: str(w) for s, w in w_by.items()})
    dsbs_case = _case_source({s: repr(w) for s, w in cfg.dsbs_by_source().items()})
    ov = (
        "(CAST(span_end - span_start + 1 AS DOUBLE) + CAST(cand_end - cand_start + 1 AS DOUBLE))"
        " / CAST(doc_len + cand_len AS DOUBLE)"
    )
    w_bit = repr(cfg.token_score_bit_score_weight)
    w_db = repr(cfg.token_score_database_score_weight)
    w_ov = repr(cfg.token_score_overlap_score_weight)
    ts_formula = (
        f"{w_bit} * c.cum_bit / t.tot_bit + {w_db} * c.cum_db / t.tot_db"
        f" + {w_ov} * c.cum_ov / t.tot_ov"
    )
    return f"""fcands AS (
  SELECT *, CAST({w_case} AS DOUBLE) AS src_weight, {_q20(ov)} AS ov_q, {dsbs_case} AS dsbs_w
  FROM dcands
),
totals AS (
  SELECT doc_id, sum(match_score) AS tot_bit, sum(src_weight) AS tot_db,
         sum(ov_q) AS tot_ov, max(match_score) AS max_bit
  FROM fcands GROUP BY doc_id
),
cum AS (
  SELECT f.doc_id, ct.token, sum(f.match_score) AS cum_bit,
         sum(f.src_weight) AS cum_db, sum(f.ov_q) AS cum_ov
  FROM fcands f JOIN catalog_tokens ct ON ct.cand_ord = f.cand_ord
  GROUP BY f.doc_id, ct.token
),
token_scores AS (
  SELECT c.doc_id, c.token, {_q20(ts_formula)} AS ts_q
  FROM cum c JOIN totals t ON t.doc_id = c.doc_id
),
topk AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (
        PARTITION BY doc_id, source ORDER BY e_rank ASC, cand_ord ASC) AS topk_rn
    FROM fcands
  ) WHERE topk_rn <= {k}
),
doc_high AS (
  SELECT ts.doc_id, max(ts.ts_q) AS hs
  FROM token_scores ts
  JOIN (SELECT DISTINCT k.doc_id, ct.token
        FROM topk k JOIN catalog_tokens ct ON ct.cand_ord = k.cand_ord) tk
    ON tk.doc_id = ts.doc_id AND tk.token = ts.token
  GROUP BY ts.doc_id
),
filtered_ts AS (
  SELECT ts.doc_id, ts.token, h.hs,
         CASE WHEN ts.ts_q > h.hs / 2 THEN ts.ts_q ELSE ts.ts_q - h.hs / 2 END AS ts_f,
         (ts.ts_q > h.hs / 2) AS informative
  FROM token_scores ts JOIN doc_high h ON h.doc_id = ts.doc_id
),
cand_tok_agg AS (
  SELECT k.doc_id, k.cand_ord, sum(f.ts_f) AS sum_ts,
         count(*) AS n_tok, sum(CASE WHEN f.informative THEN 1 ELSE 0 END) AS n_inf
  FROM topk k
  JOIN catalog_tokens ct ON ct.cand_ord = k.cand_ord
  JOIN filtered_ts f ON f.doc_id = k.doc_id AND f.token = ct.token
  GROUP BY k.doc_id, k.cand_ord
),
scored AS (
  SELECT k.*, h.hs, t.max_bit, a.sum_ts, a.n_tok, a.n_inf,
         CASE WHEN a.n_inf = 0 OR h.hs = 0 THEN 0.0
              ELSE (a.sum_ts / h.hs) / (CAST(a.n_tok AS DOUBLE) / CAST(a.n_inf AS DOUBLE))
         END AS lexical_score,
         CASE WHEN a.n_inf = 0 OR h.hs = 0 THEN 0.0
              ELSE (a.sum_ts / h.hs) / (CAST(a.n_tok AS DOUBLE) / CAST(a.n_inf AS DOUBLE))
         END + k.dsbs_w * k.match_score / t.max_bit AS description_score
  FROM topk k
  JOIN doc_high h ON h.doc_id = k.doc_id
  JOIN totals t ON t.doc_id = k.doc_id
  JOIN cand_tok_agg a ON a.doc_id = k.doc_id AND a.cand_ord = k.cand_ord
)"""


def cte_winners(restrict_annotated: bool) -> str:
    """A10 argmax with the deterministic tie-break (score DESC, cand_ord
    DESC, source ASC, cand_id ASC)."""
    if restrict_annotated:
        elig = """elig AS (
  SELECT s.*, (s.cand_short IN (SELECT cand_short FROM attrs_present)) AS has_attr
  FROM scored s
),
elig2 AS (
  SELECT e.* FROM elig e
  JOIN (SELECT doc_id, bool_or(has_attr) AS doc_has FROM elig GROUP BY doc_id) d
    ON d.doc_id = e.doc_id
  WHERE NOT d.doc_has OR e.has_attr
)"""
        src = "elig2"
    else:
        elig = "elig2 AS (SELECT * FROM scored)"
        src = "elig2"
    return f"""{elig},
winners AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (
        PARTITION BY doc_id
        ORDER BY description_score DESC, cand_ord DESC, source ASC, cand_id ASC) AS win_rn
    FROM {src}
  ) WHERE win_rn = 1
)"""


def cte_attrs() -> str:
    """F5 attr map from orders + semi-join to catalog shorts present in any
    valid candidate (ReferenceGoAnnotations.java:44-53)."""
    return f"""attrs_all AS (
  SELECT DISTINCT 'P' || CAST(o_orderkey % ({spec.ATTR_SHORT_SPAN} * (SELECT count(*) FROM part)) AS VARCHAR) AS cand_short,
         'A' || CAST(o_orderkey % {spec.ATTR_VAL_MOD} AS VARCHAR) AS attr
  FROM orders WHERE o_orderkey % {spec.ATTR_KEEP_MOD} = 0
),
attrs_present AS (
  SELECT DISTINCT a.cand_short, a.attr
  FROM attrs_all a
  WHERE a.cand_short IN (SELECT DISTINCT cand_short FROM vcands)
)"""


WINNER_QUALITY = (
    "(CASE WHEN match_score > 50 AND e_rank < 0.1 THEN '*' ELSE '-' END)"
    " || (CASE WHEN ov_q > 0.6 THEN '*' ELSE '-' END)"
    " || (CASE WHEN description_score >= 0.5 THEN '*' ELSE '-' END)"
)


def _with(*ctes: str) -> str:
    return "WITH " + ",\n".join(ctes)


# ---------------------------------------------------------------------------
# Full oracle statements, one per driver query
# ---------------------------------------------------------------------------

def sql_pages_extract() -> str:
    return (
        f"SELECT '{spec.URL_PREFIX}' || lang || '/' || CAST(doc_id AS VARCHAR) AS url,"
        " text, lang FROM documents"
    )


def sql_doc_tokens() -> str:
    return _with(cte_doc_tokens()) + "\nSELECT doc_id, token FROM doc_tokens"


def sql_vocab() -> str:
    return (
        _with(cte_doc_tokens())
        + "\nSELECT DISTINCT token FROM doc_tokens ORDER BY token"
    )


def sql_catalog(cfg: EngineConfig) -> str:
    return (
        _with(cte_doc_tokens(), cte_vocab(), cte_catalog(cfg))
        + "\nSELECT cand_ord, cand_id, cand_short, source, description, cand_len,"
        " n_tokens, valid FROM catalog"
    )


def sql_catalog_tokens(cfg: EngineConfig) -> str:
    return (
        _with(cte_doc_tokens(), cte_vocab(), cte_catalog(cfg))
        + "\nSELECT cand_ord, token FROM catalog_tokens"
    )


def _cands_prefix(cfg: EngineConfig) -> list[str]:
    return [
        cte_doc_tokens(),
        cte_vocab(),
        cte_catalog(cfg),
        cte_aliases(),
        cte_candidates(),
    ]


def sql_candidates(cfg: EngineConfig) -> str:
    return (
        _with(*_cands_prefix(cfg))
        + "\nSELECT doc_id, source, cand_ord, e_rank, match_score, span_start,"
        " span_end, cand_start, cand_end, ingest_seq, doc_len FROM candidates"
    )


def sql_candidates_dedup(cfg: EngineConfig) -> str:
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup())
        + "\nSELECT doc_id, source, cand_ord, e_rank, match_score, ingest_seq"
        " FROM dcands"
    )


def sql_top_k(cfg: EngineConfig, k: int) -> str:
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), cte_scoring(cfg, top_k=k))
        + "\nSELECT doc_id, source, cand_ord, e_rank, match_score FROM topk"
    )


def sql_token_scores(cfg: EngineConfig) -> str:
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), cte_scoring(cfg))
        + "\nSELECT doc_id, token, ts_q AS token_score FROM token_scores"
    )


def sql_winners(cfg: EngineConfig) -> str:
    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            cte_scoring(cfg),
            cte_winners(restrict_annotated=False),
        )
        + "\nSELECT doc_id, source, cand_id, cand_short, description,"
        " description_score, lexical_score, hs AS token_high_score, match_score,"
        f" max_bit AS max_match_score, {WINNER_QUALITY} AS quality_code FROM winners"
    )


def sql_winners_annotated(cfg: EngineConfig) -> str:
    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            cte_attrs(),
            cte_scoring(cfg),
            cte_winners(restrict_annotated=True),
        )
        + "\nSELECT doc_id, source, cand_id, cand_short, description,"
        " description_score FROM winners"
    )


def sql_attrs_present(cfg: EngineConfig) -> str:
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), cte_attrs())
        + "\nSELECT cand_short, attr FROM attrs_present"
    )


def sql_triples(cfg: EngineConfig) -> str:
    url = f"'{spec.URL_PREFIX}' || d.lang || '/' || CAST(w.doc_id AS VARCHAR)"
    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            cte_attrs(),
            cte_scoring(cfg),
            cte_winners(restrict_annotated=False),
        )
        + f"""
, wdocs AS (
  SELECT w.*, {url} AS url, {WINNER_QUALITY} AS quality_code
  FROM winners w JOIN documents d ON d.doc_id = w.doc_id
)
SELECT DISTINCT subj, pred, obj FROM (
  SELECT url AS subj, '{spec.PRED_LINKED}' AS pred, cand_id AS obj FROM wdocs
  UNION ALL
  SELECT url, '{spec.PRED_DESC}', description FROM wdocs
  UNION ALL
  SELECT url, '{spec.PRED_QUALITY}', quality_code FROM wdocs
  UNION ALL
  SELECT cand_id, '{spec.PRED_LABEL}', description FROM wdocs
  UNION ALL
  SELECT w.url, '{spec.PRED_ATTR}', a.attr FROM wdocs w
    JOIN attrs_present a ON a.cand_short = w.cand_short
  UNION ALL
  SELECT w.cand_id, '{spec.PRED_ATTR}', a.attr FROM wdocs w
    JOIN attrs_present a ON a.cand_short = w.cand_short
) ORDER BY subj, pred, obj"""
    )


def sql_annotations(cfg: EngineConfig) -> str:
    """Per-doc annotation table incl. docs without a winner (the reference's
    "Unknown protein" rows, AbstractOutputWriter.java:50-57)."""
    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            cte_scoring(cfg),
            cte_winners(restrict_annotated=False),
        )
        + f"""
SELECT d.doc_id,
       coalesce(w.cand_id, '') AS cand_id,
       coalesce(w.description, '{spec.UNKNOWN_DESC}') AS description,
       coalesce({"w.description_score"}, 0.0) AS description_score
FROM documents d LEFT JOIN winners w ON w.doc_id = d.doc_id"""
    )


# ---------------------------------------------------------------------------
# Dedup / similarity / text-stats / generic relational oracles
# ---------------------------------------------------------------------------

def sql_exact_dedup() -> str:
    return (
        "SELECT min(doc_id) AS doc_id, sha256(text) AS text_sha"
        " FROM documents GROUP BY sha256(text)"
    )


def sql_ngram_jaccard_pairs(n: int = 3, threshold: float = 0.5) -> str:
    gram = " || ' ' || ".join(f"arr[i+{j}]" for j in range(n))
    return f"""WITH shingles AS (
  SELECT DISTINCT doc_id, sh FROM (
    SELECT doc_id, unnest(list_transform(generate_series(1, len(arr) - {n - 1}),
                                         i -> {gram})) AS sh
    FROM (SELECT doc_id, string_split(text, ' ') AS arr FROM documents)
  )
),
sizes AS (SELECT doc_id, count(*) AS n_sh FROM shingles GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
  FROM shingles a JOIN shingles b ON a.sh = b.sh AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT i.doc_a, i.doc_b,
       CAST(i.inter AS DOUBLE) / CAST(sa.n_sh + sb.n_sh - i.inter AS DOUBLE) AS jaccard
FROM inter i
JOIN sizes sa ON sa.doc_id = i.doc_a
JOIN sizes sb ON sb.doc_id = i.doc_b
WHERE CAST(i.inter AS DOUBLE) / CAST(sa.n_sh + sb.n_sh - i.inter AS DOUBLE) >= {threshold!r}"""


_QVEC = "list_transform(embedding, x -> floor(CAST(x AS DOUBLE) * 1024.0 + 0.5) / 1024.0)"


def sql_embedding_near_dup(threshold: float = 0.2) -> str:
    return f"""WITH q AS (
  SELECT vec_id, {_QVEC} AS v FROM embeddings
),
n AS (SELECT vec_id, v, sqrt(list_inner_product(v, v)) AS nrm FROM q)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       list_inner_product(a.v, b.v) / (a.nrm * b.nrm) AS cosine
FROM n a JOIN n b ON a.vec_id < b.vec_id
WHERE list_inner_product(a.v, b.v) / (a.nrm * b.nrm) >= {threshold!r}"""


def sql_cosine_topk(k: int = 5, every: int = 50) -> str:
    return f"""WITH q AS (
  SELECT vec_id, {_QVEC} AS v FROM embeddings
),
n AS (SELECT vec_id, v, sqrt(list_inner_product(v, v)) AS nrm FROM q),
qs AS (SELECT * FROM n WHERE vec_id % {every} = 0),
scored AS (
  SELECT qs.vec_id AS query_id, n.vec_id AS neighbor_id,
         list_inner_product(n.v, qs.v) / (n.nrm * qs.nrm) AS cosine
  FROM qs JOIN n ON n.vec_id <> qs.vec_id
)
SELECT query_id, neighbor_id, rank, cosine FROM (
  SELECT *, row_number() OVER (
      PARTITION BY query_id ORDER BY cosine DESC, neighbor_id ASC) AS rank
  FROM scored
) WHERE rank <= {k}"""


def _sql_tok_arr() -> str:
    return f"list_filter(regexp_split_to_array(lower(text), '{SPLIT_SQL}'), x -> x <> '')"


def sql_token_counts() -> str:
    return (
        f"SELECT doc_id, CAST(len({_sql_tok_arr()}) AS BIGINT) AS n_tokens,"
        f" CAST(len(list_distinct({_sql_tok_arr()})) AS BIGINT) AS n_distinct"
        " FROM documents"
    )


def sql_quality() -> str:
    arr = _sql_tok_arr()
    sr = (
        f"CASE WHEN len({arr}) = 0 THEN 0.0 ELSE "
        f"CAST(len(list_filter({arr}, x -> x IN ('a','the'))) AS DOUBLE)"
        f" / CAST(len({arr}) AS DOUBLE) END"
    )
    ttr = (
        f"CASE WHEN len({arr}) = 0 THEN 0.0 ELSE "
        f"CAST(len(list_distinct({arr})) AS DOUBLE) / CAST(len({arr}) AS DOUBLE) END"
    )
    quality = _q20(f"(1.0 - ({sr})) * 0.6 + ({ttr}) * 0.4")
    return (
        f"SELECT doc_id, length(text) AS n_chars,"
        f" CAST(len({arr}) AS BIGINT) AS n_tokens,"
        f" {sr} AS stopword_ratio, {ttr} AS type_token_ratio,"
        f" {quality} AS quality FROM documents"
    )


def _qsum(expr: str) -> str:
    """Exact group sum of a 2^-20-quantized measure: sum int64 UNITS, one
    final unit->double conversion.  A q20 DOUBLE sum goes order-dependent
    once the group total exceeds 2^53 units (~8.6e9 in value) — caught live
    by the sf0.1 range-join stress compare; the unit sum is exact to 2^63
    units and the final CAST rounds identically in numpy and DuckDB."""
    return (
        f"CAST(sum(CAST(floor(({expr}) * {QUANT!r} + 0.5) AS BIGINT)) AS DOUBLE)"
        f" / {QUANT!r}"
    )


def sql_lineitem_agg() -> str:
    return f"""SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
       {_qsum('l_extendedprice * (1.0 - l_discount)')} AS sum_rev, count(*) AS n_rows,
       sum(l_quantity) / CAST(count(*) AS DOUBLE) AS avg_qty
FROM lineitem GROUP BY l_returnflag, l_linestatus"""


def sql_orders_by_segment() -> str:
    return f"""SELECT c.c_mktsegment, {_qsum('o.o_totalprice')} AS sum_price,
       count(*) AS n_orders
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY c.c_mktsegment"""


def sql_events_hourly() -> str:
    return f"""SELECT event_type, date_trunc('hour', ts) AS window_start,
       {_qsum('value')} AS sum_value, count(*) AS n_events
FROM events GROUP BY event_type, date_trunc('hour', ts)"""


def sql_top_events(n: int = 100) -> str:
    return (
        "SELECT event_id, value FROM events"
        f" ORDER BY value DESC, event_id ASC LIMIT {n}"
    )


def sql_distinct_users() -> str:
    return (
        "SELECT event_type, count(DISTINCT user_id) AS n_users"
        " FROM events GROUP BY event_type"
    )


# ---------------------------------------------------------------------------
# Evaluation harness (E1-E6) + taxonomy DAG filter (A12)
# ---------------------------------------------------------------------------

GOLD_PREFIX_CHARS = 40


def _eval_ctes(cfg: EngineConfig, gold_text_expr: str | None = None, b2g: bool = False) -> str:
    """Shared evaluation CTE block.

    ``gold_text_expr`` overrides the SQL expression yielding each doc's gold
    description (default: the derived-gold 40-char prefix); ``b2g`` adds the
    file-competitor CTEs (fixture spec: two distinct descriptions per doc,
    see sources/goldfiles.write_annot_fixture) and folds their best F-beta
    into best_comp_score via greatest()."""
    gold_text = gold_text_expr or f"substr(text, 1, {GOLD_PREFIX_CHARS})"
    b2g_ctes = ""
    if b2g:
        from ahrd_ray.sources.goldfiles import ANNOT1_CHARS, ANNOT2_CHARS, ANNOT2_FROM

        b2g_ctes = f"""b2g AS (
  SELECT DISTINCT doc_id, adesc FROM (
    SELECT doc_id, trim(substr(text, 1, {ANNOT1_CHARS})) AS adesc FROM documents
    UNION ALL
    SELECT doc_id, trim(substr(text, {ANNOT2_FROM + 1}, {ANNOT2_CHARS})) FROM documents
  ) WHERE adesc <> ''
),
b2g_tok AS (
  SELECT DISTINCT doc_id, adesc, token FROM (
    SELECT doc_id, adesc, unnest(regexp_split_to_array(lower(adesc), '{SPLIT_SQL}')) AS token
    FROM b2g
  ) WHERE token <> ''
),
b2g_sizes AS (SELECT doc_id, adesc, count(*) AS n_ev FROM b2g_tok GROUP BY doc_id, adesc),
b2g_tp AS (
  SELECT t.doc_id, t.adesc, count(*) AS tp FROM b2g_tok t
  JOIN gold g ON g.doc_id = t.doc_id AND g.token = t.token
  GROUP BY t.doc_id, t.adesc
),
b2g_best AS (
  SELECT s.doc_id, max(
    CASE WHEN coalesce(p.tp, 0) = 0 OR coalesce(gs.n_gold, 0) = 0 THEN 0.0
         ELSE 2.0 * ((CAST(p.tp AS DOUBLE) / s.n_ev) * (CAST(p.tp AS DOUBLE) / gs.n_gold))
              / ((CAST(p.tp AS DOUBLE) / s.n_ev) + (CAST(p.tp AS DOUBLE) / gs.n_gold))
    END) AS best
  FROM b2g_sizes s
  LEFT JOIN b2g_tp p ON p.doc_id = s.doc_id AND p.adesc = s.adesc
  LEFT JOIN gold_sizes gs ON gs.doc_id = s.doc_id
  GROUP BY s.doc_id
),
"""
    best_comp = (
        "greatest(coalesce(bc.best, 0.0), coalesce(bb.best, 0.0))"
        if b2g
        else "coalesce(bc.best, 0.0)"
    )
    bb_join = "\n  LEFT JOIN b2g_best bb ON bb.doc_id = d.doc_id" if b2g else ""
    return f"""gold AS (
  SELECT DISTINCT doc_id, token FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower({gold_text}), '{SPLIT_SQL}')) AS token
    FROM documents
  ) WHERE token <> ''
),
gold_sizes AS (SELECT doc_id, count(*) AS n_gold FROM gold GROUP BY doc_id),
ev_tokens AS (
  SELECT DISTINCT cand_ord, token FROM (
    SELECT cand_ord, unnest(regexp_split_to_array(lower(description), '{SPLIT_SQL}')) AS token
    FROM catalog_flt
  ) WHERE token <> ''
),
ev_sizes AS (SELECT cand_ord, count(*) AS n_ev FROM ev_tokens GROUP BY cand_ord),
dall AS (
  SELECT * FROM (
    SELECT *, row_number() OVER (
        PARTITION BY doc_id, cand_ord ORDER BY match_score DESC, ingest_seq ASC) AS dall_rn
    FROM candidates
  ) WHERE dall_rn = 1
),
unch AS (
  SELECT doc_id, cand_ord FROM (
    SELECT *, row_number() OVER (
        PARTITION BY doc_id, source ORDER BY match_score DESC, cand_ord ASC) AS unch_rn
    FROM dall
  ) WHERE unch_rn = 1
),
need AS (
  SELECT doc_id, cand_ord FROM winners
  UNION SELECT doc_id, cand_ord FROM unch
  UNION SELECT doc_id, cand_ord FROM topk
),
tp AS (
  SELECT n.doc_id, n.cand_ord, count(*) AS tp
  FROM need n
  JOIN ev_tokens e ON e.cand_ord = n.cand_ord
  JOIN gold g ON g.doc_id = n.doc_id AND g.token = e.token
  GROUP BY n.doc_id, n.cand_ord
),
fb AS (
  SELECT n.doc_id, n.cand_ord,
    CASE WHEN coalesce(t.tp, 0) = 0 OR coalesce(gs.n_gold, 0) = 0 OR coalesce(es.n_ev, 0) = 0
         THEN 0.0
         ELSE 2.0 * ((CAST(t.tp AS DOUBLE) / es.n_ev) * (CAST(t.tp AS DOUBLE) / gs.n_gold))
              / ((CAST(t.tp AS DOUBLE) / es.n_ev) + (CAST(t.tp AS DOUBLE) / gs.n_gold))
    END AS f
  FROM need n
  LEFT JOIN tp t ON t.doc_id = n.doc_id AND t.cand_ord = n.cand_ord
  LEFT JOIN gold_sizes gs ON gs.doc_id = n.doc_id
  LEFT JOIN ev_sizes es ON es.cand_ord = n.cand_ord
),
{b2g_ctes}eval_rows AS (
  SELECT d.doc_id,
         coalesce(fw.f, 0.0) AS eval_score,
         {best_comp} AS best_comp_score,
         coalesce(fw.f, 0.0) - {best_comp} AS delta,
         coalesce(hp.best, 0.0) AS highest_possible
  FROM documents d
  LEFT JOIN winners w ON w.doc_id = d.doc_id
  LEFT JOIN fb fw ON fw.doc_id = w.doc_id AND fw.cand_ord = w.cand_ord
  LEFT JOIN (SELECT u.doc_id, max(f.f) AS best FROM unch u
             JOIN fb f ON f.doc_id = u.doc_id AND f.cand_ord = u.cand_ord
             GROUP BY u.doc_id) bc ON bc.doc_id = d.doc_id
  LEFT JOIN (SELECT k.doc_id, max(f.f) AS best FROM topk k
             JOIN fb f ON f.doc_id = k.doc_id AND f.cand_ord = k.cand_ord
             GROUP BY k.doc_id) hp ON hp.doc_id = d.doc_id{bb_join}
)"""


def sql_eval_scores(cfg: EngineConfig) -> str:
    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            cte_scoring(cfg),
            cte_winners(restrict_annotated=False),
            _eval_ctes(cfg),
        )
        + "\nSELECT doc_id, eval_score, best_comp_score, delta, highest_possible"
        " FROM eval_rows"
    )


def sql_eval_summary(cfg: EngineConfig) -> str:
    cols = ["eval_score", "best_comp_score", "delta", "highest_possible"]
    means = ", ".join(
        f"sum({_q20(c)}) / CAST(count(*) AS DOUBLE) AS mean_{c}" for c in cols
    )
    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            cte_scoring(cfg),
            cte_winners(restrict_annotated=False),
            _eval_ctes(cfg),
        )
        + f"\nSELECT {means}, count(*) AS n_docs FROM eval_rows"
    )


def sql_eval_threshold_curve(cfg: EngineConfig) -> str:
    """Acceptance curve over per-doc eval scores
    (stages/evaluate.eval_threshold_curve): 11 thresholds t/10 as the same
    double on both sides, exact q20 score-mass sums."""
    inner = sql_eval_scores(cfg)
    sq = _q20("e.eval_score")
    return f"""WITH ev AS (
{inner}
), t AS (SELECT unnest(generate_series(0, 10)) AS thr)
SELECT CAST(t.thr AS BIGINT) AS thr,
  CAST(count(CASE WHEN {sq} >= CAST(t.thr AS DOUBLE) / 10 THEN 1 END)
    AS BIGINT) AS n_ge,
  COALESCE(SUM(CASE WHEN {sq} >= CAST(t.thr AS DOUBLE) / 10
    THEN {sq} END), 0.0) AS sum_score
FROM t CROSS JOIN ev e
GROUP BY t.thr"""


def sql_eval_by_lang(cfg: EngineConfig) -> str:
    """Per-language eval summary (evaluate.eval_scores_by_lang): the full
    ev_scores chain joined back to the documents language, exact q20 unit
    sums per lang, the engine's fixed-order mean divisions."""
    return f"""WITH ev AS ({sql_eval_scores(cfg)}),
j AS (
  SELECT d.lang,
         CAST(floor(ev.eval_score * {QUANT!r} + 0.5) AS BIGINT) AS ue,
         CAST(floor(ev.best_comp_score * {QUANT!r} + 0.5) AS BIGINT) AS uc
  FROM ev JOIN documents d ON d.doc_id = ev.doc_id)
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(ue) AS DOUBLE) / CAST(count(*) AS DOUBLE) / {QUANT!r}
         AS mean_eval,
       CAST(sum(uc) AS DOUBLE) / CAST(count(*) AS DOUBLE) / {QUANT!r}
         AS mean_best_comp
FROM j GROUP BY lang"""


def sql_mcnemar(cfg: EngineConfig) -> str:
    """Paired-comparison oracle (evaluate.mcnemar_vs_competitor): sign
    counts over the ev_scores delta column, chi-square as an exact
    rational."""
    return f"""WITH ev AS ({sql_eval_scores(cfg)}),
s AS (
  SELECT CAST(count(*) FILTER (delta > 0) AS BIGINT) AS n_better,
         CAST(count(*) FILTER (delta < 0) AS BIGINT) AS n_worse,
         CAST(count(*) FILTER (delta = 0) AS BIGINT) AS n_tied
  FROM ev)
SELECT n_better, n_worse, n_tied,
       CAST((n_better - n_worse) * (n_better - n_worse) AS BIGINT) AS chi2_num,
       CAST(greatest(n_better + n_worse, 1) AS BIGINT) AS chi2_den
FROM s"""


def sql_ev_bootstrap(cfg: EngineConfig) -> str:
    """Poisson-bootstrap distribution over the eval scores
    (evaluate.bootstrap_scores): the full ev_scores chain as a CTE, then
    per-(doc, resample) weights from a bit-exact HUGEINT splitmix64
    (inverse-CDF thresholds 6/6/3/1 of 16 ~ Poisson(1) for w=0..3) and
    exact integer weighted sums per resample."""
    from ahrd_ray.stages.evaluate import BOOT_B
    from ahrd_ray.stages.generic import HLL_C1, HLL_C2, HLL_C3

    m64 = 1 << 64

    def mulmod(z: str, c: int) -> str:
        return (
            f"(((({z}) % 4294967296) * {c}"
            f" + ((({z}) // 4294967296) * {c} % 4294967296) * 4294967296) % {m64})"
        )

    return f"""WITH ev AS ({sql_eval_scores(cfg)}),
draws AS (
  SELECT doc_id,
         CAST(floor(eval_score * {QUANT!r} + 0.5) AS BIGINT) AS u,
         b.b AS resample_id,
         (CAST(doc_id AS HUGEINT) * {BOOT_B} + b.b + {HLL_C1}) % {m64} AS z0
  FROM ev CROSS JOIN generate_series(0, {BOOT_B - 1}) b(b)
),
h1 AS (SELECT *, {mulmod("xor(z0, z0 // 1073741824)", HLL_C2)} AS z1 FROM draws),
h2 AS (SELECT *, {mulmod("xor(z1, z1 // 134217728)", HLL_C3)} AS z2 FROM h1),
w AS (
  SELECT resample_id, u,
         CAST(xor(z2, z2 // 2147483648) % 16 AS BIGINT) AS h16
  FROM h2
),
ws AS (
  SELECT resample_id, u,
         (CASE WHEN h16 >= 6 THEN 1 ELSE 0 END)
         + (CASE WHEN h16 >= 12 THEN 1 ELSE 0 END)
         + (CASE WHEN h16 >= 15 THEN 1 ELSE 0 END) AS w
  FROM w
)
SELECT CAST(resample_id AS BIGINT) AS resample_id,
       CAST(sum(w) AS BIGINT) AS n_draws,
       CAST(sum(w * u) AS BIGINT) AS score_units,
       CAST(sum(w * u) AS DOUBLE) / CAST(sum(w) AS DOUBLE) / {QUANT!r}
         AS mean_score
FROM ws GROUP BY 1"""


def sql_eval_scores_file(cfg: EngineConfig) -> str:
    """File-gold evaluation oracle.

    The gold fixture header is ``{doc_id} {substr(text,1,60)}`` and the
    reader removes every occurrence of the accession from the header (Java
    String.replace semantics, ReferenceDescription.java:25) — replicated
    with replace() over the reconstructed header; the competitor fixture
    adds the b2g CTE block (greatest() fold into best_comp_score)."""
    from ahrd_ray.sources.goldfiles import GOLD_FIXTURE_CHARS

    gold_text = (
        f"trim(replace(CAST(doc_id AS VARCHAR) || ' ' || substr(text, 1, {GOLD_FIXTURE_CHARS}),"
        " CAST(doc_id AS VARCHAR), ''))"
    )
    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            cte_scoring(cfg),
            cte_winners(restrict_annotated=False),
            _eval_ctes(cfg, gold_text_expr=gold_text, b2g=True),
        )
        + "\nSELECT doc_id, eval_score, best_comp_score, delta, highest_possible"
        " FROM eval_rows"
    )


def sql_most_informative() -> str:
    return """WITH RECURSIVE dag AS (
  SELECT 'N' || CAST(n_nationkey AS VARCHAR) AS node_id,
         'R' || CAST(n_regionkey AS VARCHAR) AS parent_id
  FROM nation
  UNION ALL
  SELECT 'R' || CAST(r_regionkey AS VARCHAR), NULL FROM region
),
assign AS (
  SELECT doc_id, 'N' || CAST(doc_id % 25 AS VARCHAR) AS node_id FROM documents
  UNION
  SELECT d.doc_id, 'R' || CAST(n.n_regionkey AS VARCHAR)
  FROM documents d JOIN nation n ON n.n_nationkey = d.doc_id % 25
  WHERE d.doc_id % 7 = 0
),
anc(node_id, anc_id) AS (
  SELECT node_id, parent_id FROM dag WHERE parent_id IS NOT NULL
  UNION
  SELECT a.node_id, d.parent_id FROM anc a
  JOIN dag d ON d.node_id = a.anc_id WHERE d.parent_id IS NOT NULL
)
SELECT x.doc_id, x.node_id FROM assign x
WHERE NOT EXISTS (
  SELECT 1 FROM assign y
  JOIN anc ON anc.node_id = y.node_id AND anc.anc_id = x.node_id
  WHERE y.doc_id = x.doc_id
)"""


def sql_salted_user_counts() -> str:
    # the salted two-phase aggregation is functionally a plain GROUP BY
    return "SELECT user_id, count(*) AS n_events FROM events GROUP BY user_id"


def sql_media_dims() -> str:
    """Decode-metadata oracle for the multimodal pipeline: width/height in
    the payload containers are pure arithmetic on doc_id
    (multimodal.payloads_dataset), so the task decode path is
    content-gated on them across all three container formats."""
    return (
        "SELECT doc_id, 32 + (doc_id % 97) AS width, 16 + (doc_id % 53) AS height"
        " FROM documents"
    )


# The multimodal raster spec (multimodal._raster): w = 32 + doc_id % 97,
# h = 16 + doc_id % 53, raster byte i = text byte i for i < min(len, w*h),
# else 0 (zero-padded).  The synthetic corpus is ASCII, so text byte i ==
# ord(substr(text, i+1, 1)).  All three container formats (P5/BMP/ARIM)
# carry the identical raster, so these oracles gate the real decoders'
# CONTENT, not just dims.
_MM_RASTER_BYTE = (
    "CASE WHEN {i} < least(length(text), w*h)"
    " THEN ord(substr(text, CAST({i} + 1 AS BIGINT), 1)) ELSE 0 END"
)


def sql_media_hist() -> str:
    """(doc_id, bin, n) byte histogram (bin = byte // 16, n > 0 only) of the
    decoded raster — mirrors multimodal.MediaHistogram.  DuckDB 1.0 has no
    lateral table-function args, so per-doc positions come from
    unnest(generate_series(...)) in the SELECT list."""
    byte = _MM_RASTER_BYTE.format(i="i")
    return f"""WITH pos AS (
  SELECT doc_id, text, w, h,
         unnest(generate_series(0, CAST(w * h - 1 AS BIGINT))) AS i
  FROM (SELECT doc_id, text, 32 + doc_id % 97 AS w, 16 + doc_id % 53 AS h
        FROM documents)
), px AS (SELECT doc_id, {byte} AS v FROM pos)
SELECT doc_id, CAST(v // 16 AS BIGINT) AS bin, count(*) AS n
FROM px GROUP BY doc_id, bin"""


def sql_resized_pixels(out_w: int = 16, out_h: int = 8) -> str:
    """(doc_id, r, c, v) nearest-neighbor resample — mirrors
    multimodal.ImageResizer's index grids rows[r] = r*h // out_h,
    cols[c] = c*w // out_w, gated through the P5 encode/decode round trip."""
    byte = _MM_RASTER_BYTE.format(i="(t.r * h // {oh}) * w + (t.c * w // {ow})").format(
        oh=out_h, ow=out_w
    )
    return f"""SELECT d.doc_id, t.r, t.c, CAST({byte} AS BIGINT) AS v
FROM (SELECT doc_id, text, 32 + doc_id % 97 AS w, 16 + doc_id % 53 AS h
      FROM documents) d,
     (SELECT r.r, c.c FROM generate_series(0, {out_h - 1}) AS r(r),
                           generate_series(0, {out_w - 1}) AS c(c)) t"""


def sql_frame_sums(every_n: int = 4, fsize: int = 64) -> str:
    """(doc_id, frame_idx, f_sum) per-sampled-frame byte sums — mirrors
    multimodal.frame_sums (8x8 frames over the raster, every Nth)."""
    byte = _MM_RASTER_BYTE.format(i=f"(fi * {fsize} + s.j)")
    return f"""WITH f AS (
  SELECT doc_id, text, w, h,
         unnest(generate_series(0, CAST(w * h // {fsize} - 1 AS BIGINT),
                                {every_n})) AS fi
  FROM (SELECT doc_id, text, 32 + doc_id % 97 AS w, 16 + doc_id % 53 AS h
        FROM documents)
)
SELECT f.doc_id, f.fi AS frame_idx, CAST(sum({byte}) AS BIGINT) AS f_sum
FROM f, generate_series(0, {fsize - 1}) AS s(j)
GROUP BY f.doc_id, f.fi"""


def sql_ahash(side: int = 8) -> str:
    """Perceptual average-hash oracle (multimodal.AverageHasher): the 8x8
    nearest-neighbor grid of sql_resized_pixels, a strict integer mean
    threshold (v*64 > total), bits packed with BIGINT shifts into two
    non-negative halves (hi = bits 32..63, lo = 0..31) so the sign bit is
    never touched on either side."""
    byte = _MM_RASTER_BYTE.format(
        i=f"(t.r * h // {side}) * w + (t.c * w // {side})"
    )
    return f"""WITH px AS (
  SELECT d.doc_id, t.r, t.c, CAST({byte} AS BIGINT) AS v
  FROM (SELECT doc_id, text, 32 + doc_id % 97 AS w, 16 + doc_id % 53 AS h
        FROM documents) d,
       (SELECT r.r, c.c FROM generate_series(0, {side - 1}) AS r(r),
                             generate_series(0, {side - 1}) AS c(c)) t
), tot AS (SELECT doc_id, SUM(v) AS total FROM px GROUP BY 1)
SELECT p.doc_id,
  CAST(COALESCE(SUM(CASE WHEN p.v * 64 > t.total AND p.r * {side} + p.c >= 32
    THEN CAST(1 AS BIGINT) << CAST(p.r * {side} + p.c - 32 AS INTEGER) END), 0)
    AS BIGINT) AS ahash_hi,
  CAST(COALESCE(SUM(CASE WHEN p.v * 64 > t.total AND p.r * {side} + p.c < 32
    THEN CAST(1 AS BIGINT) << CAST(p.r * {side} + p.c AS INTEGER) END), 0)
    AS BIGINT) AS ahash_lo
FROM px p JOIN tot t ON t.doc_id = p.doc_id
GROUP BY 1"""


def sql_audio_stats() -> str:
    """WAV decode stats — mirrors multimodal.wav_payloads' integer waveform
    sample[i] = ((doc_id*7 + i*13) % 512) - 256 over n = 100 + doc_id % 50
    frames at 8 kHz, decoded by the real RIFF/PCM parser."""
    return """WITH s AS (
  SELECT doc_id,
         unnest(generate_series(0, CAST(99 + doc_id % 50 AS BIGINT))) AS i
  FROM documents
)
SELECT doc_id,
  CAST(100 + doc_id % 50 AS BIGINT) AS n_samples,
  CAST(8000 AS BIGINT) AS sample_rate,
  CAST(sum((doc_id * 7 + i * 13) % 512 - 256) AS BIGINT) AS amp_sum,
  CAST(min((doc_id * 7 + i * 13) % 512 - 256) AS BIGINT) AS amp_min,
  CAST(max((doc_id * 7 + i * 13) % 512 - 256) AS BIGINT) AS amp_max
FROM s GROUP BY doc_id"""


def sql_props_agg() -> str:
    # CAST the sum back to BIGINT: DuckDB's sum(BIGINT) is HUGEINT, the
    # pipeline emits int64.  Extract the "k" field specifically (not just
    # the first number anywhere in the payload).
    return (
        "SELECT event_type,"
        " CAST(sum(CAST(regexp_extract(props, '\"k\": ([0-9]+)', 1) AS BIGINT)) AS BIGINT) AS sum_k,"
        " count(*) AS n_events FROM events GROUP BY event_type"
    )


# ---------------------------------------------------------------------------
# Approximate-operator oracles (VERDICT round-1 item #8): the minhash /
# simhash / sign-LSH candidate generation is fixed-coefficient arithmetic,
# so DuckDB can replicate it exactly.  Assumption (holds for the synthetic
# corpus): text is ASCII, so ord(char) == utf-8 byte.
# ---------------------------------------------------------------------------

_M61_SQL = "2305843009213693951"  # 2^61 - 1
_POW64_SQL = "CAST(18446744073709551616 AS HUGEINT)"  # 2^64


def _sql_polyhash(expr: str) -> str:
    """61-bit polynomial hash of a string expression (base 1000003), equal
    to ahrd_ray.functions.hash61.polyhash_arr for ASCII input."""
    return (
        f"list_reduce(list_prepend(CAST(0 AS HUGEINT), "
        f"list_transform(string_split({expr}, ''), c -> CAST(ord(c) AS HUGEINT))), "
        f"(h, b) -> (h * 1000003 + b) % {_M61_SQL})"
    )


def _cte_shingles(n: int, source: str = "documents") -> str:
    """(doc_id, sh) distinct hashed word-n-grams — mirrors
    ahrd_ray.stages.dedup.shingle_explode.  ``source`` is any relation with
    (doc_id, text) columns (paragraph units pass a derived subquery)."""
    gram = " || ' ' || ".join(f"arr[i+{j}]" for j in range(n))
    return f"""warr AS (SELECT doc_id, string_split(text, ' ') AS arr FROM {source}),
grams AS (
  SELECT DISTINCT doc_id, g FROM (
    SELECT doc_id, unnest(list_transform(generate_series(1, len(arr) - {n - 1}),
                                         i -> {gram})) AS g
    FROM warr WHERE len(arr) >= {n}
    UNION ALL
    SELECT doc_id, array_to_string(arr, ' ') AS g FROM warr WHERE len(arr) < {n}
  )
),
sh AS (SELECT doc_id, {_sql_polyhash('g')} AS sh FROM grams)"""


def sql_ngram_novelty(n: int = 3) -> str:
    """Document-novelty oracle (stages/dedup.ngram_novelty): per doc, its
    distinct gram count and how many grams it introduces to the corpus
    (min doc_id ownership)."""
    return f"""WITH {_cte_shingles(n)},
f AS (SELECT sh.sh, min(doc_id) AS first_doc FROM sh GROUP BY sh.sh)
SELECT s.doc_id, CAST(count(*) AS BIGINT) AS n_ngrams,
       CAST(sum(CASE WHEN s.doc_id = f.first_doc THEN 1 ELSE 0 END) AS BIGINT)
         AS n_novel
FROM sh s JOIN f ON f.sh = s.sh
GROUP BY s.doc_id"""


def sql_minhash_lsh(
    n: int = 3, threshold: float = 0.5, source: str = "documents", prefix: str = ""
) -> str:
    """Band-collision candidates + exact Jaccard verify, with the SAME
    minhash coefficients as stages/dedup.py (_A/_B rendered as literals).
    ``source``/``prefix`` re-point the unit table (paragraph variant)."""
    from ahrd_ray.stages.dedup import _A, _B, N_HASHES, ROWS_PER_BAND

    a_lit = ", ".join(str(int(x)) for x in _A)
    b_lit = ", ".join(str(int(x)) for x in _B)
    jac = "CAST(i.inter AS DOUBLE) / CAST(sa.n_sh + sb.n_sh - i.inter AS DOUBLE)"
    return f"""WITH {prefix}{_cte_shingles(n, source=source)},
consts AS (SELECT [{a_lit}] AS a_arr, [{b_lit}] AS b_arr),
hi AS (SELECT unnest(range({N_HASHES})) AS i),
mins AS (
  SELECT s.doc_id, hi.i,
         min((CAST(c.a_arr[hi.i + 1] AS HUGEINT) * s.sh + c.b_arr[hi.i + 1]) % {_POW64_SQL}) AS mh
  FROM sh s CROSS JOIN hi CROSS JOIN consts c
  GROUP BY s.doc_id, hi.i
),
bands AS (
  SELECT doc_id, CAST(i // {ROWS_PER_BAND} AS INTEGER) AS band,
         list(mh ORDER BY i ASC) AS sig
  FROM mins GROUP BY doc_id, i // {ROWS_PER_BAND}
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bands a JOIN bands b
    ON a.band = b.band AND a.sig = b.sig AND a.doc_id < b.doc_id
),
sizes AS (SELECT doc_id, count(*) AS n_sh FROM sh GROUP BY doc_id),
inter AS (
  SELECT c.doc_a, c.doc_b, count(*) AS inter
  FROM cand c
  JOIN sh x ON x.doc_id = c.doc_a
  JOIN sh y ON y.doc_id = c.doc_b AND y.sh = x.sh
  GROUP BY c.doc_a, c.doc_b
)
SELECT i.doc_a, i.doc_b, {jac} AS jaccard
FROM inter i
JOIN sizes sa ON sa.doc_id = i.doc_a
JOIN sizes sb ON sb.doc_id = i.doc_b
WHERE {jac} >= {threshold!r}"""


def sql_paragraph_minhash(
    w: int | None = None, n: int = 3, threshold: float = 0.5
) -> str:
    """Paragraph-granularity banded MinHash near-dup
    (stages/dedup.paragraph_minhash_pairs): fixed w-word windows become
    unit docs with packed pid = doc_id * PARA_PID_MUL + para_idx, then the
    document-level minhash chain runs unchanged over the unit relation and
    the final projection unpacks the pids."""
    from ahrd_ray.stages.dedup import PARA_PID_MUL, PARA_WORDS

    w = w or PARA_WORDS
    mul = PARA_PID_MUL
    prefix = f"""pwarr AS (SELECT doc_id, string_split(text, ' ') AS arr FROM documents),
punits AS (
  SELECT doc_id * {mul} + CAST(k - 1 AS BIGINT) AS doc_id,
         array_to_string(arr[(k - 1) * {w} + 1 : k * {w}], ' ') AS text
  FROM (
    SELECT doc_id, arr,
           unnest(generate_series(1, CAST(ceil(len(arr) / {w}.0) AS BIGINT))) AS k
    FROM pwarr
  )
),
"""
    inner = sql_minhash_lsh(n=n, threshold=threshold, source="punits", prefix=prefix)
    return f"""SELECT doc_a // {mul} AS doc_a, doc_a % {mul} AS para_a,
       doc_b // {mul} AS doc_b, doc_b % {mul} AS para_b, jaccard
FROM ({inner})"""


def _cte_simhash() -> str:
    """(doc_id, simhash) — mirrors stages/dedup._simhash_batch: word hashes
    are 61-bit, so only bits 0..60 can ever be set."""
    return f"""words AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents),
wh AS (SELECT doc_id, CAST({_sql_polyhash('w')} AS BIGINT) AS h FROM words),
bitsidx AS (SELECT unnest(range(61)) AS bit),
votes AS (
  SELECT wh.doc_id, b.bit,
         sum(CASE WHEN (wh.h >> b.bit) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM wh CROSS JOIN bitsidx b GROUP BY wh.doc_id, b.bit
),
sim AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN v > 0 THEN (CAST(1 AS BIGINT) << bit) ELSE 0 END) AS BIGINT) AS simhash
  FROM votes GROUP BY doc_id
)"""


def sql_simhash_table() -> str:
    return f"WITH {_cte_simhash()}\nSELECT doc_id, simhash FROM sim"


def sql_simhash_pairs(radius: int = 3) -> str:
    return f"""WITH {_cte_simhash()},
bands AS (
  SELECT doc_id, simhash, CAST(b.band AS INTEGER) AS band,
         (simhash >> (16 * b.band)) & 65535 AS key
  FROM sim CROSS JOIN (SELECT unnest(range(4)) AS band) b
)
SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM bands a JOIN bands b
  ON a.band = b.band AND a.key = b.key AND a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {radius}"""


def sql_embedding_near_dup_lsh(threshold: float = 0.2) -> str:
    """Sign-random-projection banding + exact quantized-cosine verify; the
    +-1 projection matrix is the same closed-form pattern as
    stages/simsearch.projection_matrix."""
    cos = "list_inner_product(na.v, nb.v) / (na.nrm * nb.nrm)"
    return f"""WITH q AS (
  SELECT vec_id, {_QVEC} AS v FROM embeddings
),
n AS (SELECT vec_id, v, sqrt(list_inner_product(v, v)) AS nrm FROM q),
dims AS (SELECT max(len(v)) AS dim FROM q),
comp AS (SELECT vec_id, generate_subscripts(v, 1) - 1 AS j, unnest(v) AS x FROM q),
js AS (SELECT DISTINCT j FROM comp),
pr AS (
  SELECT i.i, js.j,
         CASE WHEN ((i.i * d.dim + js.j) * 2654435761) % 97 < 48 THEN 1.0 ELSE -1.0 END AS p
  FROM (SELECT unnest(range(32)) AS i) i CROSS JOIN js CROSS JOIN dims d
),
dots AS (
  SELECT c.vec_id, p.i, sum(c.x * p.p) AS dp
  FROM comp c JOIN pr p ON p.j = c.j GROUP BY c.vec_id, p.i
),
keys AS (
  SELECT vec_id, CAST(i // 8 AS INTEGER) AS band,
         CAST(sum(CASE WHEN dp > 0 THEN (CAST(1 AS BIGINT) << (i % 8)) ELSE 0 END) AS BIGINT) AS key
  FROM dots GROUP BY vec_id, i // 8
),
cand AS (
  SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
  FROM keys a JOIN keys b ON a.band = b.band AND a.key = b.key AND a.vec_id < b.vec_id
)
SELECT c.vec_a, c.vec_b, {cos} AS cosine
FROM cand c JOIN n na ON na.vec_id = c.vec_a JOIN n nb ON nb.vec_id = c.vec_b
WHERE {cos} >= {threshold!r}"""


def sql_fingerprints(window: int = 16) -> str:
    """Winnowing fingerprint: min polynomial hash over all byte windows
    (char windows in SQL — identical for ASCII corpora)."""
    win = _sql_polyhash(f"substring(text, i, {window})")
    return f"""SELECT doc_id, CAST(min(h) AS BIGINT) AS fingerprint FROM (
  SELECT doc_id, unnest(list_transform(range(1, length(text) - {window - 2}),
                                       i -> {win})) AS h
  FROM documents WHERE length(text) > {window}
  UNION ALL
  SELECT doc_id, {_sql_polyhash('text')} AS h
  FROM documents WHERE length(text) <= {window}
) GROUP BY doc_id"""


def sql_langid() -> str:
    """Per-lang scores as explicit left-associated float expressions (same
    operand order as the numpy kernel), argmax with (score DESC, lang ASC)."""
    from ahrd_ray.stages.textstats import _LANG_PROFILES, _lang_weights

    selects = []
    for lang in sorted(_LANG_PROFILES):
        terms = []
        for gram, w in zip(_LANG_PROFILES[lang], _lang_weights(lang)):
            cnt = (
                f"CAST((length(low) - length(replace(low, '{_sq(gram)}', '')))"
                f" // {len(gram)} AS DOUBLE)"
            )
            terms.append(f"{cnt} * {w!r}")
        selects.append(
            f"SELECT doc_id, '{lang}' AS lang, {' + '.join(terms)} AS score FROM lowdocs"
        )
    union = "\n  UNION ALL\n  ".join(selects)
    return f"""WITH lowdocs AS (SELECT doc_id, lower(text) AS low FROM documents),
scores AS (
  {union}
)
SELECT doc_id, lang AS pred_lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, lang ASC) AS rn
  FROM scores
) WHERE rn = 1"""


# ---------------------------------------------------------------------------
# Windowed / sessionized / as-of operators over events
# ---------------------------------------------------------------------------

def sql_events_sliding(window_min: int = 30, slide_min: int = 10) -> str:
    """30-min windows sliding by 10: each event contributes to
    window_min/slide_min buckets (same fan-out the map side emits)."""
    k = window_min // slide_min
    s = slide_min * 60
    offs = ", ".join(str(i) for i in range(k))
    return f"""WITH fan AS (
  SELECT event_type,
         time_bucket(INTERVAL '{slide_min} minutes', ts) - o.i * INTERVAL '{s} seconds' AS window_start,
         value
  FROM events CROSS JOIN (SELECT unnest([{offs}]) AS i) o
)
SELECT event_type, window_start, {_qsum('value')} AS sum_value,
       count(*) AS n_events
FROM fan GROUP BY event_type, window_start"""


def sql_grouping_sets() -> str:
    """Arbitrary grouping sets (generic.orders_grouping_sets): the SQL
    GROUPING SETS form with 'ALL' coalesce markers matching the engine's
    cube convention."""
    return f"""SELECT COALESCE(o_orderpriority, 'ALL') AS o_orderpriority,
  COALESCE(o_orderstatus, 'ALL') AS o_orderstatus,
  CAST(count(*) AS BIGINT) AS n,
  {_qsum("o_totalprice")} AS sum_value
FROM orders
GROUP BY GROUPING SETS ((o_orderpriority, o_orderstatus), (o_orderstatus), ())"""


def sql_range_frame() -> str:
    """RANGE-frame trailing-hour window (generic.range_frame_sums):
    DuckDB's RANGE frame includes current-row time peers, matching the
    engine's searchsorted(left/right) bounds; sums ride exact q20 units."""
    from ahrd_ray.stages.generic import RANGE_FRAME_MIN

    return f"""SELECT event_id, user_id,
  CAST(count(*) OVER w AS BIGINT) AS range_n,
  CAST(sum(CAST(floor(value * {QUANT!r} + 0.5) AS BIGINT)) OVER w AS BIGINT)
    AS range_sum_units
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL '{RANGE_FRAME_MIN} minutes' PRECEDING
                       AND CURRENT ROW)"""


def sql_dq_violations() -> str:
    """Declarative rule suite (generic.dq_violations): each rule is one
    SELECT; the engine side evaluates all of them in a single streaming
    pass with the FK rule as broadcast key membership."""
    from ahrd_ray.stages.generic import DQ_PURCHASE_MIN, DQ_VALUE_MAX

    return f"""SELECT 'value_ceiling' AS rule_id, event_id FROM events
  WHERE value > {DQ_VALUE_MAX!r}
UNION ALL
SELECT 'purchase_value_floor', event_id FROM events
  WHERE event_type = 'purchase' AND value < {DQ_PURCHASE_MIN!r}
UNION ALL
SELECT 'props_nonempty', event_id FROM events
  WHERE props IS NULL OR length(props) = 0
UNION ALL
SELECT 'user_fk_customer', event_id FROM events e
  WHERE NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = e.user_id)"""


def sql_late_data() -> str:
    """Allowed-lateness accounting (generic.late_data_windows): arrival =
    ts + (event_id % skew) minutes; late iff arrival > window close +
    allowed.  On-time value sums ride exact q20 int64 units."""
    from ahrd_ray.stages.generic import (
        LATE_ALLOWED_MIN,
        LATE_SKEW_MOD,
        LATE_WINDOW_MIN,
    )

    fire = LATE_WINDOW_MIN + LATE_ALLOWED_MIN
    return f"""WITH b AS (
  SELECT event_type,
         time_bucket(INTERVAL '{LATE_WINDOW_MIN} minutes', ts) AS window_start,
         value,
         CASE WHEN ts + (event_id % {LATE_SKEW_MOD}) * INTERVAL 1 MINUTE
                   > time_bucket(INTERVAL '{LATE_WINDOW_MIN} minutes', ts)
                     + INTERVAL '{fire} minutes'
              THEN 1 ELSE 0 END AS late
  FROM events)
SELECT event_type, window_start,
  CAST(count(*) FILTER (late = 0) AS BIGINT) AS n_ontime,
  CAST(count(*) FILTER (late = 1) AS BIGINT) AS n_late,
  CAST(sum(CASE WHEN late = 0
       THEN CAST(floor(value * {QUANT!r} + 0.5) AS BIGINT) ELSE 0 END)
       AS DOUBLE) / {QUANT!r} AS ontime_value
FROM b GROUP BY 1, 2"""


def sql_sessionize(gap_min: int = 30) -> str:
    return f"""WITH o AS (
  SELECT user_id, event_id, ts, {_q20('value')} AS qv,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pts
  FROM events
),
m AS (
  SELECT *, CASE WHEN pts IS NULL OR ts - pts > INTERVAL '{gap_min} minutes'
                 THEN 1 ELSE 0 END AS brk
  FROM o
),
s AS (
  SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS sess
  FROM m
)
SELECT user_id, CAST(sess AS BIGINT) AS session_seq, count(*) AS n_events,
       min(ts) AS first_ts, max(ts) AS last_ts, sum(qv) AS sum_value
FROM s GROUP BY user_id, sess"""


def sql_session_windows(gap_min: int = 30) -> str:
    """Interval-overlap join oracle (generic.session_hour_windows): the
    sessionize chain, then one generate_series unnest per session over
    its spanned hour buckets with the exact microsecond overlap."""
    return f"""WITH sess AS ({sql_sessionize(gap_min)})
SELECT user_id, session_seq, ws.ws AS window_start,
       CAST(epoch_us(least(last_ts, ws.ws + INTERVAL 1 HOUR))
            - epoch_us(greatest(first_ts, ws.ws)) AS BIGINT) AS overlap_us
FROM sess,
     LATERAL unnest(generate_series(date_trunc('hour', first_ts),
                                    date_trunc('hour', last_ts),
                                    INTERVAL 1 HOUR)) AS ws(ws)"""


def sql_asof_latest_order() -> str:
    """For every event, the customer's latest order with o_orderdate <= ts
    (ties broken toward the larger order key); -1 when none exists."""
    return """SELECT event_id, CAST(coalesce(order_key, -1) AS BIGINT) AS order_key FROM (
  SELECT e.event_id, o.o_orderkey AS order_key,
         row_number() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e
  LEFT JOIN orders o ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
) WHERE rn = 1"""


def sql_cosine_topk_ivf(
    k: int = 5, every: int = 50, nprobe: int = 4, n_seeds: int = 16
) -> str:
    """IVF-style ANN: deterministic coarse quantizer (first n_seeds vectors),
    assignment and probing replicated exactly (quantized-dyadic cosines)."""
    return f"""WITH q AS (
  SELECT vec_id, {_QVEC} AS v FROM embeddings
),
n AS (SELECT vec_id, v, sqrt(list_inner_product(v, v)) AS nrm FROM q),
seeds AS (SELECT vec_id AS sid, v, nrm FROM n WHERE vec_id < {n_seeds}),
assign AS (
  SELECT vec_id, sid FROM (
    SELECT x.vec_id, s.sid,
           row_number() OVER (PARTITION BY x.vec_id
               ORDER BY list_inner_product(x.v, s.v) / (x.nrm * s.nrm) DESC,
                        s.sid ASC) AS rn
    FROM n x CROSS JOIN seeds s
  ) WHERE rn = 1
),
qs AS (SELECT * FROM n WHERE vec_id % {every} = 0),
probe AS (
  SELECT query_id, sid FROM (
    SELECT qs.vec_id AS query_id, s.sid,
           row_number() OVER (PARTITION BY qs.vec_id
               ORDER BY list_inner_product(qs.v, s.v) / (qs.nrm * s.nrm) DESC,
                        s.sid ASC) AS rn
    FROM qs CROSS JOIN seeds s
  ) WHERE rn <= {nprobe}
),
scored AS (
  SELECT p.query_id, a.vec_id AS neighbor_id,
         list_inner_product(x.v, qv.v) / (x.nrm * qv.nrm) AS cosine
  FROM probe p
  JOIN assign a ON a.sid = p.sid
  JOIN n x ON x.vec_id = a.vec_id
  JOIN n qv ON qv.vec_id = p.query_id
  WHERE a.vec_id <> p.query_id
)
SELECT query_id, neighbor_id, rank, cosine FROM (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY cosine DESC, neighbor_id ASC) AS rank
  FROM scored
) WHERE rank <= {k}"""


def sql_pq_topk(k: int = 5, every: int = 50) -> str:
    """Product-quantization ANN (simsearch.pq_topk): seed-subvector
    codebooks, per-subspace nearest-centroid codes, asymmetric-distance
    top-k.  Everything rides int64 units (2^-10 grid squared -> integers),
    so sums are exact on both sides; d2 CTE doubles as encoder input
    (vec rows) and ADC lookup table (query rows)."""
    from ahrd_ray.stages.simsearch import PQ_K, PQ_M

    d = 64 // PQ_M
    return f"""WITH u AS (
  SELECT vec_id,
         list_transform(embedding, x -> CAST(floor(x * 1024.0 + 0.5) AS BIGINT)) AS u
  FROM embeddings
),
sub AS (
  SELECT vec_id, s.s AS sub, (u)[s.s * {d} + 1 : s.s * {d} + {d}] AS su
  FROM u CROSS JOIN generate_series(0, {PQ_M - 1}) s(s)
),
cent AS (SELECT vec_id AS code, sub, su AS cu FROM sub WHERE vec_id < {PQ_K}),
d2 AS (
  SELECT x.vec_id, x.sub, c.code,
         list_inner_product(x.su, x.su) - 2 * list_inner_product(x.su, c.cu)
           + list_inner_product(c.cu, c.cu) AS dist
  FROM sub x JOIN cent c ON c.sub = x.sub
),
codes AS (
  SELECT vec_id, sub, code FROM (
    SELECT *, row_number() OVER (PARTITION BY vec_id, sub
                                 ORDER BY dist ASC, code ASC) AS rn
    FROM d2) WHERE rn = 1
),
lut AS (
  SELECT d.vec_id AS query_id, d.sub, d.code, d.dist
  FROM d2 d WHERE d.vec_id % {every} = 0
),
scored AS (
  SELECT lut.query_id, c.vec_id AS neighbor_id,
         CAST(SUM(lut.dist) AS BIGINT) AS adc_units
  FROM codes c JOIN lut ON lut.sub = c.sub AND lut.code = c.code
  WHERE c.vec_id <> lut.query_id
  GROUP BY 1, 2
)
SELECT query_id, neighbor_id, rank, adc_units FROM (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY adc_units ASC, neighbor_id ASC) AS rank
  FROM scored) WHERE rank <= {k}"""


def sql_subword_counts() -> str:
    from ahrd_ray.stages.textstats import BPE_SPLIT_REGEX

    return (
        f"SELECT doc_id, CAST(len(regexp_extract_all(text, '{_sq(BPE_SPLIT_REGEX)}'))"
        " AS BIGINT) AS n_subwords FROM documents"
    )


def sql_sample_events(rate_num: int = 1, rate_den: int = 10) -> str:
    from ahrd_ray.stages.generic import SAMPLE_MOD, SAMPLE_MULT

    thresh = (SAMPLE_MOD * rate_num) // rate_den
    # HUGEINT product (no BIGINT overflow); mod 2^32 of the exact product
    # equals the pipeline's uint64 (mod-2^64) computation because 2^32 | 2^64
    return (
        "SELECT event_id, event_type, user_id FROM events"
        f" WHERE (CAST(event_id AS HUGEINT) * {SAMPLE_MULT}) % {SAMPLE_MOD} < {thresh}"
    )


def sql_mojibake_repair() -> str:
    """Identity-shaped oracle: the engine corrupts 2/3 of docs (UTF-8 seen
    through cp1252) and repairs with the ftfy re-encode/strict-decode
    move; bit-exact recovery of the ORIGINAL is the whole claim, so the
    oracle simply states the original."""
    return """SELECT doc_id,
  text || ' — résumé №' || CAST(doc_id % 7 AS VARCHAR) AS repaired
FROM documents"""


def sql_scrub_text() -> str:
    # DuckDB's regexp engine is RE2 like Arrow's, so the replace and the
    # non-overlapping match count agree exactly; the 'g' flag mirrors the
    # replace-all semantics of pc.replace_substring_regex.
    from ahrd_ray.stages.textstats import SCRUB_PATTERN, SCRUB_TOKEN

    p = _sq(SCRUB_PATTERN)
    return (
        f"SELECT doc_id, CAST(len(regexp_extract_all(text, '{p}')) AS BIGINT)"
        f" AS n_hits, regexp_replace(text, '{p}', '{SCRUB_TOKEN}', 'g')"
        " AS redacted FROM documents"
    )


def sql_order_customer_join(n: int = 100) -> str:
    return (
        "SELECT o_orderkey, o_totalprice, c_name, c_mktsegment FROM orders"
        " JOIN customer ON o_custkey = c_custkey"
        f" ORDER BY o_totalprice DESC, o_orderkey LIMIT {n}"
    )


def sql_top_events_per_user(n: int = 3) -> str:
    return f"""SELECT user_id, event_id, value, rank FROM (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY value DESC, event_id ASC) AS rank
  FROM events
) WHERE rank <= {n}"""


# ---------------------------------------------------------------------------
# Crawl-log URL operators (webstats)
# ---------------------------------------------------------------------------

def cte_crawl() -> str:
    """Raw crawl-log fetches re-derived from ``documents`` with the SAME
    spec constants as ``webstats.crawl_batch_from_pages``."""
    return f"""crawl_v AS (
  SELECT doc_id, unnest(range(1 + doc_id % {spec.CRAWL_VAR_MOD})) AS variant, lang
  FROM documents
), crawl AS (
  SELECT doc_id, variant,
    'https://' ||
    (CASE WHEN (doc_id + variant) % {spec.CRAWL_HOST_CASE_MOD} = 0
          THEN 'Corpus.LOCAL' ELSE 'corpus.local' END) ||
    (CASE WHEN (doc_id + variant) % {spec.CRAWL_PORT_MOD} = 0 THEN ':443' ELSE '' END) ||
    '/' || lang || '/' || CAST(doc_id AS VARCHAR) ||
    (CASE WHEN (doc_id + variant) % {spec.CRAWL_SLASH_MOD} = 0 THEN '/' ELSE '' END) ||
    (CASE
       WHEN variant % 2 = 1 AND doc_id % {spec.CRAWL_REF_MOD} = 0
         THEN '?utm_source=s' || CAST(doc_id % {spec.CRAWL_UTM_SRC_MOD} AS VARCHAR)
              || '&utm_medium=m' || CAST(variant AS VARCHAR)
              || '&ref=r' || CAST(doc_id % {spec.CRAWL_REF_VAL_MOD} AS VARCHAR)
       WHEN variant % 2 = 1
         THEN '?utm_source=s' || CAST(doc_id % {spec.CRAWL_UTM_SRC_MOD} AS VARCHAR)
              || '&utm_medium=m' || CAST(variant AS VARCHAR)
       WHEN doc_id % {spec.CRAWL_REF_MOD} = 0
         THEN '?ref=r' || CAST(doc_id % {spec.CRAWL_REF_VAL_MOD} AS VARCHAR)
       ELSE '' END) ||
    (CASE WHEN (doc_id + variant) % {spec.CRAWL_FRAG_MOD} = 0
          THEN '#sec' || CAST(variant AS VARCHAR) ELSE '' END) AS raw_url,
    TIMESTAMP '{spec.WARC_EPOCH}' + doc_id * INTERVAL 1 SECOND
      + variant * INTERVAL 1 HOUR AS warc_ts
  FROM crawl_v
)"""


def cte_url_norm() -> str:
    """GENUINE SQL re-implementation of the URL canonicalizer (not a
    re-derivation of the canonical form): regexp part extraction +
    list_filter of tracking params, mirroring webstats.normalize_urls."""
    pre = r"^(?:[A-Za-z][A-Za-z0-9+.\-]*)://"
    return f"""url_parts AS (
  SELECT doc_id, variant, raw_url, warc_ts,
    lower(regexp_extract(raw_url, '^([A-Za-z][A-Za-z0-9+.\\-]*)://', 1)) AS scheme,
    lower(regexp_extract(raw_url, '{pre}([^/:?#]+)', 1)) AS host,
    regexp_extract(raw_url, '{pre}[^/:?#]+:([0-9]+)', 1) AS port,
    regexp_extract(raw_url, '{pre}[^/?#]+(/[^?#]*)', 1) AS path,
    regexp_extract(raw_url, '\\?([^#]*)', 1) AS query
  FROM crawl
), url_kept AS (
  SELECT *, coalesce(array_to_string(list_filter(string_split(query, '&'),
      x -> x <> '' AND NOT regexp_matches(x, '{spec.TRACKING_PARAM_REGEX}')), '&'), '') AS kq
  FROM url_parts
), url_norm AS (
  SELECT doc_id, variant, raw_url, warc_ts,
    scheme || '://' || host ||
    (CASE WHEN port <> '' AND port <> (CASE WHEN scheme = 'https' THEN '443' ELSE '80' END)
          THEN ':' || port ELSE '' END) ||
    (CASE WHEN regexp_replace(path, '/$', '') = ''
          THEN '/' ELSE regexp_replace(path, '/$', '') END) ||
    (CASE WHEN kq = '' THEN '' ELSE '?' || kq END) AS url
  FROM url_kept
)"""


def sql_url_normalize() -> str:
    return (
        _with(cte_crawl(), cte_url_norm())
        + "\nSELECT doc_id, variant, raw_url, url FROM url_norm"
    )


def sql_url_dedup() -> str:
    return (
        _with(cte_crawl(), cte_url_norm())
        + """
SELECT url, min(warc_ts) AS first_ts, CAST(count(*) AS BIGINT) AS n_fetches
FROM url_norm GROUP BY url"""
    )


def sql_sitemap_urls() -> str:
    """Sitemap ingest truth re-derived arithmetically from ``documents``
    (webstats.sitemap_loc_of constants) — the engine side writes real
    sitemaps.org XML shards (entity-escaped locs, W3C datetimes, a
    <sitemapindex>) and parses them back with namespace-aware
    ElementTree, so the XML round trip is what the bit-exact compare
    proves."""
    from ahrd_ray.stages import webstats as wb

    return f"""SELECT
  '{spec.URL_PREFIX}' || lang || '/' || CAST(doc_id AS VARCHAR)
    || CASE WHEN doc_id % {wb.SITEMAP_QUERY_MOD} = 0
         THEN '?a=' || CAST(doc_id % 5 AS VARCHAR)
              || '&b=' || CAST(doc_id % 3 AS VARCHAR)
         ELSE '' END AS url,
  TIMESTAMP '{spec.WARC_EPOCH}' + doc_id * INTERVAL 1 SECOND AS lastmod,
  CAST((doc_id % {wb.SITEMAP_PRIO_MOD}) * 100 AS BIGINT) AS priority_milli
FROM documents"""


def sql_host_links() -> str:
    """Host-level link graph truth re-derived ARITHMETICALLY from
    `documents` (spec.link_host / spec.link_target constants) — the engine
    side parses the actual anchor hrefs out of the html bytes, so the two
    sides share no code path."""
    m, t_mult, t_step, t_mod = (
        spec.LINK_HOST_MOD,
        spec.LINK_TARGET_MULT,
        spec.LINK_TARGET_STEP,
        spec.LINK_TARGET_MOD,
    )
    vals = ", ".join(f"({j})" for j in range(1, spec.LINK_K + 1))
    return f"""WITH js(j) AS (VALUES {vals}),
tgt AS (
  SELECT doc_id, (doc_id * {t_mult} + j * {t_step}) % {t_mod} AS t
  FROM documents CROSS JOIN js
),
links AS (
  SELECT 'h' || CAST(doc_id % {m} AS VARCHAR) || '.example.org' AS src_host,
         'h' || CAST((t * t) % {m} AS VARCHAR) || '.example.org' AS dst_host
  FROM tgt
)
SELECT src_host, dst_host, CAST(count(*) AS BIGINT) AS n_links
FROM links GROUP BY src_host, dst_host"""


def sql_host_reciprocity() -> str:
    """Link reciprocity per host (webstats.host_reciprocity): distinct
    directed edges (self-loops excluded) from the arithmetic link
    derivation; a neighbor is reciprocal when the reverse edge exists."""
    m, t_mult, t_step, t_mod = (
        spec.LINK_HOST_MOD,
        spec.LINK_TARGET_MULT,
        spec.LINK_TARGET_STEP,
        spec.LINK_TARGET_MOD,
    )
    vals = ", ".join(f"({j})" for j in range(1, spec.LINK_K + 1))
    return f"""WITH js(j) AS (VALUES {vals}),
tgt AS (
  SELECT doc_id, (doc_id * {t_mult} + j * {t_step}) % {t_mod} AS t
  FROM documents CROSS JOIN js
),
e AS (
  SELECT DISTINCT
         'h' || CAST(doc_id % {m} AS VARCHAR) || '.example.org' AS src,
         'h' || CAST((t * t) % {m} AS VARCHAR) || '.example.org' AS dst
  FROM tgt
),
d AS (SELECT src, dst FROM e WHERE src <> dst)
SELECT a.src AS host, CAST(count(*) AS BIGINT) AS n_neighbors,
       CAST(sum(CASE WHEN b.src IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT)
         AS n_reciprocal
FROM d a LEFT JOIN d b ON b.src = a.dst AND b.dst = a.src
GROUP BY 1"""


def sql_host_scc() -> str:
    """Host SCC truth: reflexive-transitive closure over the
    arithmetically re-derived host edge set (the sql_host_links
    derivation), mutual reachability, min-member root + component size.
    The engine side peels components with distributed min-label edge
    sweeps — no shared code path, no closure table anywhere but here."""
    m, t_mult, t_step, t_mod = (
        spec.LINK_HOST_MOD,
        spec.LINK_TARGET_MULT,
        spec.LINK_TARGET_STEP,
        spec.LINK_TARGET_MOD,
    )
    vals = ", ".join(f"({j})" for j in range(1, spec.LINK_K + 1))
    return f"""WITH RECURSIVE js(j) AS (VALUES {vals}),
tgt AS (
  SELECT doc_id, (doc_id * {t_mult} + j * {t_step}) % {t_mod} AS t
  FROM documents CROSS JOIN js
),
e AS (
  SELECT DISTINCT
         'h' || CAST(doc_id % {m} AS VARCHAR) || '.example.org' AS a,
         'h' || CAST((t * t) % {m} AS VARCHAR) || '.example.org' AS b
  FROM tgt
),
hosts AS (SELECT DISTINCT h FROM (SELECT a AS h FROM e UNION SELECT b FROM e)),
reach AS (
  SELECT h AS a, h AS b FROM hosts
  UNION
  SELECT r.a, e.b FROM reach r JOIN e ON e.a = r.b
),
mutual AS (
  SELECT r1.a AS host, r1.b AS other
  FROM reach r1 JOIN reach r2 ON r2.a = r1.b AND r2.b = r1.a
)
SELECT host, MIN(other) AS scc_root, CAST(COUNT(*) AS BIGINT) AS scc_size
FROM mutual GROUP BY host"""


def sql_host_quality() -> str:
    """Domain-level quality aggregation (stages/webstats.host_quality):
    per-doc q20 quality (the sql_quality expression) summed per host in
    exact int64 units, one final unit->double conversion and a
    fixed-order mean division — bit-identical to the engine."""
    return f"""WITH q AS ({sql_quality()}),
h AS (
  SELECT 'h' || CAST(doc_id % {spec.LINK_HOST_MOD} AS VARCHAR) || '.example.org'
           AS host,
         CAST(floor(quality * {QUANT!r} + 0.5) AS BIGINT) AS u
  FROM q
)
SELECT host, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(u) AS DOUBLE) / {QUANT!r} AS sum_quality,
       (CAST(sum(u) AS DOUBLE) / {QUANT!r}) / CAST(count(*) AS DOUBLE)
         AS mean_quality
FROM h GROUP BY host"""


def sql_host_harmonic(hops: int = 4) -> str:
    """K-truncated harmonic centrality (stages/webstats.host_harmonic):
    path sets unrolled per length, shortest distance = min over the union,
    reciprocal in exact HC_UNIT floor-div integer units."""
    from ahrd_ray.stages.webstats import HC_UNIT

    m, t_mult, t_step, t_mod = (
        spec.LINK_HOST_MOD,
        spec.LINK_TARGET_MULT,
        spec.LINK_TARGET_STEP,
        spec.LINK_TARGET_MOD,
    )
    vals = ", ".join(f"({j})" for j in range(1, spec.LINK_K + 1))
    ctes = [
        f"js(j) AS (VALUES {vals})",
        f"""tgt AS (
  SELECT doc_id, (doc_id * {t_mult} + j * {t_step}) % {t_mod} AS t
  FROM documents CROSS JOIN js
)""",
        f"""e AS (
  SELECT DISTINCT
    'h' || CAST(doc_id % {m} AS VARCHAR) || '.example.org' AS s,
    'h' || CAST((t * t) % {m} AS VARCHAR) || '.example.org' AS d
  FROM tgt
)""",
        "hosts AS (SELECT s AS host FROM e UNION SELECT d FROM e)",
        "p1 AS (SELECT s, d FROM e)",
    ]
    for k in range(2, hops + 1):
        ctes.append(
            f"p{k} AS (SELECT DISTINCT p.s, e.d FROM p{k - 1} p"
            " JOIN e ON e.s = p.d)"
        )
    union = "\n  UNION ALL ".join(
        f"SELECT s, d, {k} AS k FROM p{k}" for k in range(1, hops + 1)
    )
    ctes.append(
        f"""dists AS (
  SELECT s, d, min(k) AS dist FROM ({union}) WHERE s <> d GROUP BY s, d
)"""
    )
    return (
        _with(*ctes)
        + f"""
SELECT h.host,
       CAST(coalesce(sum({HC_UNIT} // dist), 0) AS BIGINT) AS harmonic_units
FROM hosts h LEFT JOIN dists ON dists.d = h.host
GROUP BY h.host"""
    )


def sql_host_pagerank(iters: int = 5) -> str:
    """Weighted host PageRank, iterations unrolled with the SAME exact
    int64 arithmetic as stages/webstats.host_pagerank (per-edge floor-div
    share, dangling hosts hold teleport mass)."""
    from ahrd_ray.stages.graph import PR_DAMP_DEN, PR_DAMP_NUM, PR_UNIT

    teleport = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_UNIT // PR_DAMP_DEN
    m, t_mult, t_step, t_mod = (
        spec.LINK_HOST_MOD,
        spec.LINK_TARGET_MULT,
        spec.LINK_TARGET_STEP,
        spec.LINK_TARGET_MOD,
    )
    vals = ", ".join(f"({j})" for j in range(1, spec.LINK_K + 1))
    ctes = [
        f"""js(j) AS (VALUES {vals})""",
        f"""tgt AS (
  SELECT doc_id, (doc_id * {t_mult} + j * {t_step}) % {t_mod} AS t
  FROM documents CROSS JOIN js
)""",
        f"""raw AS (
  SELECT 'h' || CAST(doc_id % {m} AS VARCHAR) || '.example.org' AS src_host,
         'h' || CAST((t * t) % {m} AS VARCHAR) || '.example.org' AS dst_host
  FROM tgt
)""",
        "w AS (SELECT src_host, dst_host, CAST(count(*) AS BIGINT) AS w"
        " FROM raw GROUP BY 1, 2)",
        "hosts AS (SELECT src_host AS host FROM w UNION SELECT dst_host FROM w)",
        "outw AS (SELECT src_host, sum(w) AS ow FROM w GROUP BY 1)",
        f"r0 AS (SELECT host, CAST({PR_UNIT} AS BIGINT) AS r FROM hosts)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"""r{k} AS (
  SELECT h.host,
         {teleport} + coalesce(CAST((
            SELECT sum(({PR_DAMP_NUM} * ((r.r // o.ow) * w.w)) // {PR_DAMP_DEN})
            FROM w JOIN r{k - 1} r ON r.host = w.src_host
                   JOIN outw o ON o.src_host = w.src_host
            WHERE w.dst_host = h.host) AS BIGINT), 0) AS r
  FROM hosts h
)"""
        )
    return _with(*ctes) + f"\nSELECT host, r AS rank_units FROM r{iters}"


def sql_repetition() -> str:
    """Mirrors textstats.repetition_batch: same lower+regex split (empties
    dropped BEFORE pairing, so bigrams pair adjacent KEPT tokens), integer
    counts, double division."""
    return f"""WITH toks AS (
  SELECT doc_id, tok, pos FROM (
    SELECT doc_id, unnest(arr) AS tok, generate_subscripts(arr, 1) AS pos
    FROM (SELECT doc_id, regexp_split_to_array(lower(text), '{SPLIT_SQL}') AS arr
          FROM documents)
  ) WHERE tok <> ''
), tok_counts AS (
  SELECT doc_id, tok, count(*) AS c FROM toks GROUP BY doc_id, tok
), totals AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens,
         CAST(count(*) AS BIGINT) AS n_distinct, max(c) AS top_tok
  FROM tok_counts GROUP BY doc_id
), bigrams AS (
  SELECT doc_id, tok, lead(tok) OVER (PARTITION BY doc_id ORDER BY pos) AS nxt
  FROM toks
), big_counts AS (
  SELECT doc_id, tok, nxt, count(*) AS c FROM bigrams
  WHERE nxt IS NOT NULL GROUP BY doc_id, tok, nxt
), big_max AS (
  SELECT doc_id, max(c) AS top_big FROM big_counts GROUP BY doc_id
)
SELECT t.doc_id, t.n_tokens, t.n_distinct,
  CASE WHEN t.n_tokens > 0 THEN CAST(t.n_distinct AS DOUBLE) / t.n_tokens ELSE 0.0 END AS distinct_ratio,
  CASE WHEN t.n_tokens > 0 THEN CAST(t.top_tok AS DOUBLE) / t.n_tokens ELSE 0.0 END AS top_token_frac,
  CASE WHEN t.n_tokens > 1 THEN CAST(coalesce(b.top_big, 0) AS DOUBLE) / (t.n_tokens - 1) ELSE 0.0 END AS top_bigram_frac
FROM totals t LEFT JOIN big_max b USING (doc_id)"""


def sql_price_band_join() -> str:
    from ahrd_ray.stages.generic import PRICE_BANDS

    rows = ", ".join(f"('{b}', {lo!r}, {hi!r})" for b, lo, hi in PRICE_BANDS)
    # integer 2^-20-unit sum, one final unit->double conversion (a per-band
    # q20 DOUBLE sum exceeds 2^53 units at sf0.1 — mirrors generic.prep)
    return f"""WITH bands(band, lo, hi) AS (VALUES {rows})
SELECT band, CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(CAST(floor(l_extendedprice * {QUANT!r} + 0.5) AS BIGINT)) AS DOUBLE)
         / {QUANT!r} AS sum_price
FROM lineitem JOIN bands ON l_extendedprice >= lo AND l_extendedprice < hi
GROUP BY band"""


def sql_customers_without_big_order() -> str:
    from ahrd_ray.stages.generic import BIG_ORDER_PRICE

    return f"""SELECT c_custkey, c_name, c_acctbal FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM orders o
                  WHERE o.o_custkey = c.c_custkey
                    AND o.o_totalprice > {BIG_ORDER_PRICE!r})"""


def sql_price_quantiles() -> str:
    from ahrd_ray.stages.generic import QUANTILE_QS

    legs = "\nUNION ALL\n".join(
        f"""SELECT l_returnflag, {num / den!r} AS q,
       quantile_disc(l_extendedprice, {num / den!r}) AS price
FROM lineitem GROUP BY l_returnflag"""
        for num, den in QUANTILE_QS
    )
    return legs


def sql_tfidf_top() -> str:
    """Mirrors textstats.tfidf_top: score = (tf * n_docs) / df as one double
    division (no log), winner per doc by (score desc, token asc)."""
    return f"""WITH toks AS (
  SELECT doc_id, tok FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '{SPLIT_SQL}')) AS tok
    FROM documents
  ) WHERE tok <> ''
), tf AS (
  SELECT doc_id, tok AS token, CAST(count(*) AS BIGINT) AS tf
  FROM toks GROUP BY doc_id, tok
), dfq AS (
  SELECT token, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY token
), nd AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents)
SELECT doc_id, token, tf, df, score FROM (
  SELECT t.doc_id, t.token, t.tf, d.df,
         CAST(t.tf * (SELECT n FROM nd) AS DOUBLE) / d.df AS score,
         row_number() OVER (PARTITION BY t.doc_id
                            ORDER BY CAST(t.tf * (SELECT n FROM nd) AS DOUBLE) / d.df DESC,
                                     t.token ASC) AS rn
  FROM tf t JOIN dfq d USING (token)
) WHERE rn = 1"""


def sql_dup_clusters(radius: int = 3) -> str:
    """Connected components over the SimHash near-dup pairs (same bands/
    radius as sql_simhash_pairs) via a recursive closure + min label."""
    return f"""WITH RECURSIVE {_cte_simhash()},
bands AS (
  SELECT doc_id, simhash, CAST(b.band AS INTEGER) AS band,
         (simhash >> (16 * b.band)) & 65535 AS key
  FROM sim CROSS JOIN (SELECT unnest(range(4)) AS band) b
),
pairs AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bands a JOIN bands b
    ON a.band = b.band AND a.key = b.key AND a.doc_id < b.doc_id
  WHERE bit_count(xor(a.simhash, b.simhash)) <= {radius}
),
edges AS (
  SELECT doc_a AS src, doc_b AS dst FROM pairs
  UNION ALL SELECT doc_b, doc_a FROM pairs
),
reach(src, dst) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src
),
rmin AS (SELECT src, min(dst) AS m FROM reach GROUP BY src)
SELECT d.doc_id, CAST(least(d.doc_id, coalesce(m, d.doc_id)) AS BIGINT) AS cluster_rep
FROM documents d LEFT JOIN rmin ON d.doc_id = rmin.src"""


def sql_decontaminate(n: int = 3) -> str:
    from ahrd_ray.stages.dedup import BENCH_DOC_MOD

    return f"""WITH {_cte_shingles(n)},
bench AS (SELECT DISTINCT s.sh FROM sh s WHERE s.doc_id % {BENCH_DOC_MOD} = 0)
SELECT s.doc_id, CAST(count(*) AS BIGINT) AS n_shared
FROM sh s JOIN bench b ON s.sh = b.sh
WHERE s.doc_id % {BENCH_DOC_MOD} <> 0
GROUP BY s.doc_id"""


def _cte_cooccur_pairs(cfg: EngineConfig) -> str:
    """Entity co-occurrence edges over the deduped valid candidate set,
    capped at the COOCCUR_CAP strongest entities per doc
    (stages/graph.cooccurrence_edges — see the constant's comment for the
    measured quadratic blowup the cap prevents)."""
    from ahrd_ray.stages.graph import COOCCUR_CAP

    return f"""ccands AS (
  SELECT doc_id, cand_ord FROM (
    SELECT doc_id, cand_ord, row_number() OVER (
        PARTITION BY doc_id ORDER BY match_score DESC, cand_ord ASC) AS crn
    FROM dcands
  ) WHERE crn <= {COOCCUR_CAP}
),
pairs AS (
  SELECT a.cand_ord AS cand_a, b.cand_ord AS cand_b,
         CAST(count(*) AS BIGINT) AS n_docs
  FROM ccands a JOIN ccands b
    ON a.doc_id = b.doc_id AND a.cand_ord < b.cand_ord
  GROUP BY 1, 2
)"""


def sql_cooc_window(cfg: EngineConfig, window: int | None = None) -> str:
    """Proximity-windowed co-occurrence (stages/graph.cooc_window_edges):
    the same COOCCUR_CAP candidate cut with span_start carried, pairs
    restricted to |span_a - span_b| <= window, min_gap = closest distance."""
    from ahrd_ray.stages.graph import COOC_WINDOW, COOCCUR_CAP

    w = COOC_WINDOW if window is None else window
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup())
        + f""",
ccs AS (
  SELECT doc_id, cand_ord, span_start FROM (
    SELECT doc_id, cand_ord, span_start, row_number() OVER (
        PARTITION BY doc_id ORDER BY match_score DESC, cand_ord ASC) AS crn
    FROM dcands
  ) WHERE crn <= {COOCCUR_CAP}
)
SELECT a.cand_ord AS cand_a, b.cand_ord AS cand_b,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min(abs(a.span_start - b.span_start)) AS BIGINT) AS min_gap
FROM ccs a JOIN ccs b
  ON a.doc_id = b.doc_id AND a.cand_ord < b.cand_ord
 AND abs(a.span_start - b.span_start) <= {w}
GROUP BY 1, 2"""
    )


def sql_cooccurrence(cfg: EngineConfig) -> str:
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + "\nSELECT cand_a, cand_b, n_docs FROM pairs"
    )


def sql_pmi_edges(cfg: EngineConfig) -> str:
    """PMI-ratio-weighted co-occurrence edges (stages/graph.pmi_edges):
    lift = (n_ab * N) / (n_a * n_b) as one double division of exact BIGINT
    products — no transcendental log, so both sides hash bit-equal.
    Marginals count docs where the entity survives the same COOCCUR_CAP
    cut as the pairs (the ccands CTE)."""
    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            _cte_cooccur_pairs(cfg),
            "marg AS (SELECT cand_ord, CAST(count(*) AS BIGINT) AS n_ent"
            " FROM ccands GROUP BY 1)",
            "nd AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents)",
        )
        + """
SELECT p.cand_a, p.cand_b, p.n_docs, ma.n_ent AS n_a, mb.n_ent AS n_b,
       CAST(p.n_docs * (SELECT n FROM nd) AS DOUBLE)
         / (ma.n_ent * mb.n_ent) AS lift
FROM pairs p
JOIN marg ma ON ma.cand_ord = p.cand_a
JOIN marg mb ON mb.cand_ord = p.cand_b"""
    )


def sql_edge_support(cfg: EngineConfig) -> str:
    """Per-edge triangle count (stages/graph.edge_support): support(a, b) =
    number of common neighbors c — expressed as the symmetric-adjacency
    self-join, left-joined onto the edge list so support-0 edges survive."""
    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            _cte_cooccur_pairs(cfg),
            """adj AS (
  SELECT cand_a AS u, cand_b AS v FROM pairs
  UNION ALL SELECT cand_b, cand_a FROM pairs
)""",
            """common AS (
  SELECT x.u AS a, y.u AS b, CAST(count(*) AS BIGINT) AS c
  FROM adj x JOIN adj y ON x.v = y.v
  WHERE x.u < y.u
  GROUP BY 1, 2
)""",
        )
        + """
SELECT p.cand_a, p.cand_b, p.n_docs,
       CAST(coalesce(s.c, 0) AS BIGINT) AS support
FROM pairs p
LEFT JOIN common s ON s.a = p.cand_a AND s.b = p.cand_b"""
    )


def _walk_ctes(cfg: EngineConfig, steps: int) -> list[str]:
    """Shared CTE chain for the deterministic walk family: adjacency,
    degrees, ascending-id neighbor ranks, and the unrolled hops w0..wN
    (next hop at node v on step t of the walk from s = neighbor rank
    (s*A + t*B + v) mod deg(v) — exact BIGINT modular arithmetic)."""
    from ahrd_ray.stages.graph import WALK_A, WALK_B

    ctes = [
        *_cands_prefix(cfg),
        cte_valid_dedup(),
        _cte_cooccur_pairs(cfg),
        """adj AS (
  SELECT cand_a AS u, cand_b AS v FROM pairs
  UNION ALL SELECT cand_b, cand_a FROM pairs
)""",
        "wdeg AS (SELECT u, CAST(count(*) AS BIGINT) AS deg FROM adj GROUP BY 1)",
        "wnbr AS (SELECT u, v, row_number() OVER (PARTITION BY u ORDER BY v) - 1 AS rn"
        " FROM adj)",
        "w0 AS (SELECT u AS start, u AS node FROM wdeg)",
    ]
    for t in range(1, steps + 1):
        ctes.append(
            f"""w{t} AS (
  SELECT w.start, n.v AS node
  FROM w{t - 1} w
  JOIN wdeg d ON d.u = w.node
  JOIN wnbr n ON n.u = w.node
   AND n.rn = (w.start * {WALK_A} + {t} * {WALK_B} + w.node) % d.deg
)"""
        )
    ctes.append(
        "w_all AS (\n"
        + "\n  UNION ALL ".join(
            f"SELECT start, CAST({t} AS BIGINT) AS step, node FROM w{t}"
            for t in range(steps + 1)
        )
        + "\n)"
    )
    return ctes


def sql_walk_corpus(cfg: EngineConfig, steps: int | None = None) -> str:
    """Deterministic walk corpus (stages/graph.walk_corpus), steps unrolled
    (the pagerank/BFS unroll precedent)."""
    from ahrd_ray.stages.graph import WALK_STEPS

    steps = WALK_STEPS if steps is None else steps
    return _with(*_walk_ctes(cfg, steps)) + "\nSELECT start, step, node FROM w_all"


def sql_walk_pairs(cfg: EngineConfig, steps: int | None = None) -> str:
    """Skip-gram (center, context, cnt) pairs within WALK_WINDOW positions
    of the same walk (stages/graph.walk_pairs): ordered pairs, both
    directions, aggregated across walks."""
    from ahrd_ray.stages.graph import WALK_STEPS, WALK_WINDOW

    steps = WALK_STEPS if steps is None else steps
    return (
        _with(*_walk_ctes(cfg, steps))
        + f"""
SELECT a.node AS center, b.node AS context, CAST(count(*) AS BIGINT) AS cnt
FROM w_all a
JOIN w_all b ON a.start = b.start
 AND a.step <> b.step
 AND abs(a.step - b.step) <= {WALK_WINDOW}
GROUP BY 1, 2"""
    )


def sql_pagerank(cfg: EngineConfig, iters: int = 5) -> str:
    """Integer-unit PageRank, iterations unrolled (stages/graph.pagerank).

    Identical arithmetic to the numpy side: BIGINT floor division and exact
    integer sums, so the fixed-point result hashes bit-equal."""
    from ahrd_ray.stages.graph import PR_DAMP_DEN, PR_DAMP_NUM, PR_UNIT

    teleport = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_UNIT // PR_DAMP_DEN
    ctes = [
        *_cands_prefix(cfg),
        cte_valid_dedup(),
        _cte_cooccur_pairs(cfg),
        """edges AS (
  SELECT cand_a AS src, cand_b AS dst FROM pairs
  UNION ALL SELECT cand_b, cand_a FROM pairs
)""",
        "deg AS (SELECT src AS node, count(*) AS deg FROM edges GROUP BY 1)",
        f"r0 AS (SELECT node, CAST({PR_UNIT} AS BIGINT) AS r FROM deg)",
    ]
    for k in range(1, iters + 1):
        ctes.append(
            f"""r{k} AS (
  SELECT e.dst AS node,
         {teleport} + CAST(sum(({PR_DAMP_NUM} * (r.r // d.deg)) // {PR_DAMP_DEN}) AS BIGINT) AS r
  FROM edges e
  JOIN r{k - 1} r ON r.node = e.src
  JOIN deg d ON d.node = e.src
  GROUP BY e.dst
)"""
        )
    return _with(*ctes) + f"\nSELECT node, r AS rank_units FROM r{iters}"


def sql_bigram_counts() -> str:
    """Corpus bigram frequencies (stages/textstats.bigram_counts): zip the
    filtered token array against itself shifted by one."""
    arr = _sql_tok_arr()
    return f"""WITH toks AS (SELECT {arr} AS arr FROM documents),
bg AS (
  SELECT unnest(arr[1:len(arr) - 1]) AS tok_a, unnest(arr[2:len(arr)]) AS tok_b
  FROM toks WHERE len(arr) >= 2
)
SELECT tok_a, tok_b, CAST(count(*) AS BIGINT) AS n FROM bg GROUP BY 1, 2"""


def sql_events_row_number() -> str:
    return (
        "SELECT event_id, user_id, CAST(row_number() OVER ("
        "PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS rn FROM events"
    )


def sql_customers_with_big_order() -> str:
    from ahrd_ray.stages.generic import BIG_ORDER_PRICE

    return (
        "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE EXISTS ("
        "SELECT 1 FROM orders WHERE o_custkey = c_custkey"
        f" AND o_totalprice > {BIG_ORDER_PRICE!r})"
    )


def sql_events_rollup() -> str:
    return f"""WITH b AS (
  SELECT event_type, CAST(hour(ts) AS BIGINT) AS hr, value FROM events
)
SELECT coalesce(event_type, 'ALL') AS event_type,
       coalesce(CAST(hr AS VARCHAR), 'ALL') AS hr,
       CAST(count(*) AS BIGINT) AS n,
       {_qsum('value')} AS sum_value
FROM b
GROUP BY GROUPING SETS ((event_type, hr), (event_type), ())"""


# the pivot ORACLE pins the synthetic event vocabulary; the Ray operator
# discovers it with a distinct pass, so a vocabulary drift shows up as a
# schema mismatch in the gate rather than silently passing
PIVOT_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def sql_event_type_pivot() -> str:
    cols = ",\n       ".join(
        f"CAST(count(*) FILTER (event_type = '{t}') AS BIGINT) AS n_{t}"
        for t in PIVOT_EVENT_TYPES
    )
    return f"""SELECT user_id,
       {cols},
       CAST(count(*) AS BIGINT) AS n_total
FROM events GROUP BY user_id"""


def sql_cooccur_degree(cfg: EngineConfig) -> str:
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + """,
edges AS (
  SELECT cand_a AS src, n_docs FROM pairs
  UNION ALL SELECT cand_b, n_docs FROM pairs
)
SELECT src AS node, CAST(count(*) AS BIGINT) AS degree,
       CAST(sum(n_docs) AS BIGINT) AS w_docs
FROM edges GROUP BY 1"""
    )


def sql_doc_features() -> str:
    """Fused doc-feature assembly (stages/textstats.doc_features): the
    per-feature oracle queries joined on doc_id — proves the one-pass fused
    map equals the operator-at-a-time plan."""
    return f"""WITH q AS ({sql_quality()}),
t AS ({sql_token_counts()}),
l AS ({sql_langid()}),
f AS ({sql_fingerprints()})
SELECT q.doc_id, q.n_chars, q.n_tokens, t.n_distinct, q.stopword_ratio,
       q.type_token_ratio, q.quality, l.pred_lang, f.fingerprint
FROM q JOIN t USING (doc_id) JOIN l USING (doc_id) JOIN f USING (doc_id)"""


def sql_semantic_clusters(threshold: float = 0.2) -> str:
    """Connected components over the embedding LSH near-dup pairs
    (stages/simsearch.semantic_clusters): the LSH+verify CTE chain from
    sql_embedding_near_dup_lsh, then the same recursive min-reach closure
    as sql_dup_clusters."""
    cos = "list_inner_product(na.v, nb.v) / (na.nrm * nb.nrm)"
    return f"""WITH RECURSIVE q AS (
  SELECT vec_id, {_QVEC} AS v FROM embeddings
),
n AS (SELECT vec_id, v, sqrt(list_inner_product(v, v)) AS nrm FROM q),
dims AS (SELECT max(len(v)) AS dim FROM q),
comp AS (SELECT vec_id, generate_subscripts(v, 1) - 1 AS j, unnest(v) AS x FROM q),
js AS (SELECT DISTINCT j FROM comp),
pr AS (
  SELECT i.i, js.j,
         CASE WHEN ((i.i * d.dim + js.j) * 2654435761) % 97 < 48 THEN 1.0 ELSE -1.0 END AS p
  FROM (SELECT unnest(range(32)) AS i) i CROSS JOIN js CROSS JOIN dims d
),
dots AS (
  SELECT c.vec_id, p.i, sum(c.x * p.p) AS dp
  FROM comp c JOIN pr p ON p.j = c.j GROUP BY c.vec_id, p.i
),
keys AS (
  SELECT vec_id, CAST(i // 8 AS INTEGER) AS band,
         CAST(sum(CASE WHEN dp > 0 THEN (CAST(1 AS BIGINT) << (i % 8)) ELSE 0 END) AS BIGINT) AS key
  FROM dots GROUP BY vec_id, i // 8
),
cand AS (
  SELECT DISTINCT a.vec_id AS vec_a, b.vec_id AS vec_b
  FROM keys a JOIN keys b ON a.band = b.band AND a.key = b.key AND a.vec_id < b.vec_id
),
pairs AS (
  SELECT c.vec_a, c.vec_b
  FROM cand c JOIN n na ON na.vec_id = c.vec_a JOIN n nb ON nb.vec_id = c.vec_b
  WHERE {cos} >= {threshold!r}
),
edges AS (
  SELECT vec_a AS src, vec_b AS dst FROM pairs
  UNION ALL SELECT vec_b, vec_a FROM pairs
),
reach(src, dst) AS (
  SELECT src, dst FROM edges
  UNION
  SELECT r.src, e.dst FROM reach r JOIN edges e ON r.dst = e.src
),
rmin AS (SELECT src, min(dst) AS m FROM reach GROUP BY src)
SELECT emb.vec_id, CAST(least(emb.vec_id, coalesce(m, emb.vec_id)) AS BIGINT) AS cluster_rep
FROM embeddings emb LEFT JOIN rmin ON emb.vec_id = rmin.src"""


def sql_sample_events_stratified() -> str:
    from ahrd_ray.stages.generic import (
        SAMPLE_MOD,
        SAMPLE_MULT,
        SAMPLE_RATE_DEN,
        STRATA_DEFAULT_RATE,
        STRATA_RATES,
    )

    cases = " ".join(
        f"WHEN '{t}' THEN {(SAMPLE_MOD * num) // SAMPLE_RATE_DEN}"
        for t, num in sorted(STRATA_RATES.items())
    )
    default = (SAMPLE_MOD * STRATA_DEFAULT_RATE) // SAMPLE_RATE_DEN
    return (
        "SELECT event_id, event_type, user_id FROM events"
        f" WHERE (CAST(event_id AS HUGEINT) * {SAMPLE_MULT}) % {SAMPLE_MOD}"
        f" < (CASE event_type {cases} ELSE {default} END)"
    )


def sql_hll_distinct_users() -> str:
    """HyperLogLog registers + estimate (stages/generic.hll_distinct_users)
    in SQL: splitmix64 replicated bit-exactly over HUGEINT (64x64 mod-2^64
    products split into 32x64 pieces — the full product overflows INT128),
    bit length via binary-format string length (exact — float log2 is not),
    identical integer register units, one fixed-order division, and the
    linear-counting small-range correction as a shared integer lookup."""
    from ahrd_ray.stages.generic import (
        HLL_BUCKET_SHIFT,
        HLL_C1,
        HLL_C2,
        HLL_C3,
        HLL_LINEAR_COUNT,
        HLL_M,
        HLL_NUM,
        HLL_RHO_CAP,
    )

    m64 = 1 << 64
    two58 = 1 << HLL_BUCKET_SHIFT

    def mulmod(z: str, c: int) -> str:
        return (
            f"(((({z}) % 4294967296) * {c}"
            f" + ((({z}) // 4294967296) * {c} % 4294967296) * 4294967296) % {m64})"
        )

    lc = " ".join(
        f"WHEN {v} THEN {e}" for v, e in enumerate(HLL_LINEAR_COUNT, start=1)
    )
    return f"""WITH h0 AS (
  SELECT event_type, (CAST(user_id AS HUGEINT) + {HLL_C1}) % {m64} AS z0 FROM events
),
h1 AS (SELECT event_type, {mulmod("xor(z0, z0 // 1073741824)", HLL_C2)} AS z1 FROM h0),
h2 AS (SELECT event_type, {mulmod("xor(z1, z1 // 134217728)", HLL_C3)} AS z2 FROM h1),
h AS (SELECT event_type, xor(z2, z2 // 2147483648) AS h64 FROM h2),
parts AS (
  SELECT event_type,
         CAST(h64 // {two58} AS BIGINT) AS bucket,
         CAST(h64 % {two58} AS BIGINT) AS r
  FROM h
),
rhos AS (
  SELECT event_type, bucket,
         least(1 + {HLL_BUCKET_SHIFT} -
               (CASE WHEN r = 0 THEN 0 ELSE length(format('{{:b}}', r)) END),
               {HLL_RHO_CAP}) AS rho
  FROM parts
),
regs AS (
  SELECT event_type, bucket, max(rho) AS mr FROM rhos GROUP BY 1, 2
),
sums AS (
  SELECT event_type,
         CAST(sum(CAST(1 AS BIGINT) << ({HLL_RHO_CAP} - mr)) AS BIGINT)
           + ({HLL_M} - count(*)) * {1 << HLL_RHO_CAP} AS s_units,
         CAST(count(*) AS BIGINT) AS buckets_used
  FROM regs GROUP BY 1
),
raw AS (
  SELECT event_type,
         CAST(floor({HLL_NUM!r} / CAST(s_units AS DOUBLE)) AS BIGINT) AS raw_est,
         buckets_used
  FROM sums
)
SELECT event_type,
       CASE WHEN raw_est <= {(5 * HLL_M) // 2} AND buckets_used < {HLL_M}
            THEN CAST((CASE {HLL_M} - buckets_used {lc} END) AS BIGINT)
            ELSE raw_est END AS est_users,
       buckets_used
FROM raw"""


def sql_kmv_distinct_users() -> str:
    """K-Minimum-Values sketch (stages/generic.kmv_distinct_users): same
    HUGEINT splitmix64 as the HLL oracle over the DISTINCT user set, k-th
    smallest hash by window rank, one exact HUGEINT division.  splitmix64
    is a bijection, so distinct users == distinct hashes on both sides."""
    from ahrd_ray.stages.generic import HLL_C1, HLL_C2, HLL_C3, KMV_K

    m64 = 1 << 64

    def mulmod(z: str, c: int) -> str:
        return (
            f"(((({z}) % 4294967296) * {c}"
            f" + ((({z}) // 4294967296) * {c} % 4294967296) * 4294967296) % {m64})"
        )

    return f"""WITH du AS (SELECT DISTINCT event_type, user_id FROM events),
h0 AS (
  SELECT event_type, (CAST(user_id AS HUGEINT) + {HLL_C1}) % {m64} AS z0 FROM du
),
h1 AS (SELECT event_type, {mulmod("xor(z0, z0 // 1073741824)", HLL_C2)} AS z1 FROM h0),
h2 AS (SELECT event_type, {mulmod("xor(z1, z1 // 134217728)", HLL_C3)} AS z2 FROM h1),
h AS (SELECT event_type, xor(z2, z2 // 2147483648) AS h64 FROM h2),
ranked AS (
  SELECT event_type, h64,
         row_number() OVER (PARTITION BY event_type ORDER BY h64 ASC) AS rn
  FROM h
),
cnt AS (SELECT event_type, CAST(count(*) AS BIGINT) AS c FROM h GROUP BY 1)
SELECT r.event_type,
       CAST(CASE WHEN c.c < {KMV_K} THEN CAST(c.c AS HUGEINT)
            ELSE (CAST({KMV_K - 1} AS HUGEINT) * CAST({m64} AS HUGEINT))
                 // max(CASE WHEN r.rn = {KMV_K} THEN r.h64 END)
            END AS BIGINT) AS est_users,
       CAST(least(c.c, {KMV_K}) AS BIGINT) AS n_kept
FROM ranked r JOIN cnt c ON c.event_type = r.event_type
WHERE r.rn <= {KMV_K}
GROUP BY r.event_type, c.c"""


def sql_kmv_overlap() -> str:
    """KMV set-expression estimates (stages/generic.kmv_overlap): merged
    bottom-k of each type pair's signature union, n_common = merged hashes
    present in both signatures, est_inter = n_common * est_union // k —
    all HUGEINT-exact; below k union hashes everything is exact."""
    from ahrd_ray.stages.generic import HLL_C1, HLL_C2, HLL_C3, KMV_K

    m64 = 1 << 64
    k = KMV_K

    def mulmod(z: str, c: int) -> str:
        return (
            f"(((({z}) % 4294967296) * {c}"
            f" + ((({z}) // 4294967296) * {c} % 4294967296) * 4294967296) % {m64})"
        )

    est_u = (
        f"(CAST({k - 1} AS HUGEINT) * CAST({m64} AS HUGEINT)) // mk.hk"
    )
    return f"""WITH du AS (SELECT DISTINCT event_type, user_id FROM events),
h0 AS (
  SELECT event_type, (CAST(user_id AS HUGEINT) + {HLL_C1}) % {m64} AS z0 FROM du
),
h1 AS (SELECT event_type, {mulmod("xor(z0, z0 // 1073741824)", HLL_C2)} AS z1 FROM h0),
h2 AS (SELECT event_type, {mulmod("xor(z1, z1 // 134217728)", HLL_C3)} AS z2 FROM h1),
h AS (SELECT event_type, xor(z2, z2 // 2147483648) AS h64 FROM h2),
s AS (
  SELECT event_type, h64 FROM (
    SELECT event_type, h64,
           row_number() OVER (PARTITION BY event_type ORDER BY h64 ASC) AS rn
    FROM h
  ) WHERE rn <= {k}
),
tp AS (SELECT DISTINCT event_type FROM s),
pr AS (
  SELECT a.event_type AS ta, b.event_type AS tb
  FROM tp a JOIN tp b ON a.event_type < b.event_type
),
ux AS (
  SELECT DISTINCT p.ta, p.tb, x.h64
  FROM pr p JOIN s x ON x.event_type = p.ta OR x.event_type = p.tb
),
m AS (
  SELECT ta, tb, h64,
         row_number() OVER (PARTITION BY ta, tb ORDER BY h64 ASC) AS rn,
         count(*) OVER (PARTITION BY ta, tb) AS ucnt
  FROM ux
),
mk AS (
  SELECT ta, tb, max(CASE WHEN rn = {k} THEN h64 END) AS hk, max(ucnt) AS ucnt
  FROM m WHERE rn <= {k} GROUP BY 1, 2
),
cm AS (
  SELECT m.ta, m.tb, count(*) AS nc
  FROM m
  JOIN s sa ON sa.event_type = m.ta AND sa.h64 = m.h64
  JOIN s sb ON sb.event_type = m.tb AND sb.h64 = m.h64
  WHERE m.rn <= {k}
  GROUP BY 1, 2
)
SELECT mk.ta AS type_a, mk.tb AS type_b,
  CAST(COALESCE(cm.nc, 0) AS BIGINT) AS n_common,
  CAST(CASE WHEN mk.ucnt < {k} THEN mk.ucnt ELSE {est_u} END AS BIGINT)
    AS est_union,
  CAST(CASE WHEN mk.ucnt < {k} THEN COALESCE(cm.nc, 0)
       ELSE (CAST(COALESCE(cm.nc, 0) AS HUGEINT) * ({est_u})) // {k} END
    AS BIGINT) AS est_inter
FROM mk LEFT JOIN cm ON cm.ta = mk.ta AND cm.tb = mk.tb"""


def sql_label_centroids() -> str:
    """Per-label centroid in long form (stages/simsearch.label_centroids):
    exact q10 unit sums per (label, dim), one final float division."""
    return """WITH comp AS (
  SELECT e.label,
         generate_subscripts(e.embedding, 1) - 1 AS j,
         CAST(floor(CAST(unnest(e.embedding) AS DOUBLE) * 1024.0 + 0.5) AS BIGINT) AS u
  FROM embeddings e
),
agg AS (
  SELECT label, j, CAST(sum(u) AS BIGINT) AS units, CAST(count(*) AS BIGINT) AS n
  FROM comp GROUP BY 1, 2
)
SELECT CAST(label AS BIGINT) AS label, j, n,
       CAST(units AS DOUBLE) / (1024.0 * CAST(n AS DOUBLE)) AS mean_q
FROM agg"""


def sql_centroid_assign() -> str:
    """Nearest-class-prototype assignment (simsearch.centroid_assign):
    per-label centroids trunc-divided onto the 2^-10 grid (DuckDB ``//``
    truncates toward zero — the kmeans convention), exact int64 squared
    distances, ties to the smaller label."""
    return """WITH comp AS (
  SELECT vec_id, CAST(label AS BIGINT) AS label,
         generate_subscripts(embedding, 1) - 1 AS j,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1024.0 + 0.5) AS BIGINT) AS u
  FROM embeddings
),
cent AS (
  SELECT label, j, CAST(sum(u) // count(*) AS BIGINT) AS cu
  FROM comp GROUP BY 1, 2
),
d AS (
  SELECT c.vec_id, ct.label AS pred,
         CAST(sum((c.u - ct.cu) * (c.u - ct.cu)) AS BIGINT) AS dist
  FROM comp c JOIN cent ct ON ct.j = c.j
  GROUP BY 1, 2
)
SELECT vec_id, CAST(pred AS BIGINT) AS pred_label, dist AS dist_units FROM (
  SELECT *, row_number() OVER (PARTITION BY vec_id
                               ORDER BY dist ASC, pred ASC) AS rn
  FROM d) WHERE rn = 1"""


def sql_kmeans(k: int | None = None, iters: int | None = None) -> str:
    """Unrolled Lloyd iterations (stages/simsearch.kmeans_embeddings).
    Centroids stay on the 2^-10 grid (HUGEINT sum truncate-divided by the
    count — DuckDB `//` truncates toward zero, mirrored by the pipeline's
    _truncdiv), so every squared distance is an exact dyadic sum and the
    argmin is order-independent; ties break to the smaller cluster id.
    Empty clusters carry the previous centroid (LEFT JOIN + coalesce)."""
    from ahrd_ray.stages.simsearch import KMEANS_ITERS, KMEANS_K

    k = k or KMEANS_K
    iters = iters or KMEANS_ITERS
    ctes = [
        """comp AS (
  SELECT vec_id,
         generate_subscripts(embedding, 1) - 1 AS j,
         floor(CAST(unnest(embedding) AS DOUBLE) * 1024.0 + 0.5) / 1024.0 AS x,
         CAST(floor(CAST(unnest(embedding) AS DOUBLE) * 1024.0 + 0.5) AS BIGINT) AS u
  FROM embeddings
)""",
        f"cent0 AS (SELECT vec_id AS cluster, j, x AS c FROM comp WHERE vec_id < {k})",
    ]
    for it in range(1, iters + 1):
        prev = f"cent{it - 1}"
        ctes.append(
            f"""d{it} AS (
  SELECT comp.vec_id, p.cluster, sum((comp.x - p.c) * (comp.x - p.c)) AS d
  FROM comp JOIN {prev} p ON p.j = comp.j
  GROUP BY 1, 2
),
a{it} AS (
  SELECT vec_id, cluster FROM (
    SELECT vec_id, cluster,
           row_number() OVER (PARTITION BY vec_id ORDER BY d ASC, cluster ASC) AS rn
    FROM d{it}
  ) WHERE rn = 1
)"""
        )
        if it < iters:
            ctes.append(
                f"""cu{it} AS (
  SELECT a.cluster, comp.j,
         CAST(CAST(sum(comp.u) AS HUGEINT) // CAST(count(*) AS HUGEINT) AS BIGINT) AS cu
  FROM comp JOIN a{it} a USING (vec_id)
  GROUP BY 1, 2
),
cent{it} AS (
  SELECT p.cluster, p.j, coalesce(CAST(cu.cu AS DOUBLE) / 1024.0, p.c) AS c
  FROM {prev} p LEFT JOIN cu{it} cu ON cu.cluster = p.cluster AND cu.j = p.j
)"""
            )
    return (
        _with(*ctes)
        + f"\nSELECT vec_id, CAST(cluster AS BIGINT) AS cluster FROM a{iters}"
    )


def sql_events_regression() -> str:
    """Grouped least-squares (stages/generic.events_regression): HUGEINT
    sufficient statistics, the same two fixed-order float ops at the end."""
    q = QUANT
    return f"""WITH s AS (
  SELECT event_type,
         CAST(count(*) AS HUGEINT) AS n,
         CAST(sum(hour(ts)) AS HUGEINT) AS sx,
         CAST(sum(CAST(floor(value * {q!r} + 0.5) AS BIGINT)) AS HUGEINT) AS syu,
         CAST(sum(hour(ts) * hour(ts)) AS HUGEINT) AS sxx,
         CAST(sum(hour(ts) * CAST(floor(value * {q!r} + 0.5) AS BIGINT)) AS HUGEINT) AS sxyu
  FROM events GROUP BY 1
),
solved AS (
  SELECT event_type, n,
         CAST(n * sxyu - sx * syu AS DOUBLE)
           / (CAST(n * sxx - sx * sx AS DOUBLE) * {q!r}) AS slope,
         sx, syu
  FROM s
)
SELECT event_type, CAST(n AS BIGINT) AS n, slope,
       (CAST(syu AS DOUBLE) / {q!r} - slope * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE)
         AS intercept
FROM solved"""


def sql_filtered_docs() -> str:
    """Gopher-gate document filter (stages/textstats.filtered_docs): the
    quality-feature oracle with the same predicate as a WHERE clause."""
    from ahrd_ray.stages.textstats import (
        FILTER_MAX_STOPWORD_RATIO,
        FILTER_MAX_TOKENS,
        FILTER_MIN_TOKENS,
        FILTER_MIN_TTR,
    )

    return f"""WITH q AS ({sql_quality()})
SELECT doc_id, n_tokens, stopword_ratio, type_token_ratio, quality
FROM q
WHERE n_tokens >= {FILTER_MIN_TOKENS} AND n_tokens <= {FILTER_MAX_TOKENS}
  AND stopword_ratio <= {FILTER_MAX_STOPWORD_RATIO!r}
  AND type_token_ratio >= {FILTER_MIN_TTR!r}"""


def sql_pack_chunks() -> str:
    """Concat-and-chunk packing (stages/textstats.pack_chunks): window
    prefix sum over doc_id order, pure BIGINT arithmetic."""
    from ahrd_ray.stages.textstats import SEQ_LEN

    s = SEQ_LEN
    return f"""WITH t AS (
  SELECT doc_id, CAST(len({_sql_tok_arr()}) AS BIGINT) AS n_tokens FROM documents
), c AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS start_tok
  FROM t
)
SELECT doc_id, n_tokens, start_tok,
       CAST(start_tok // {s} AS BIGINT) AS seq_start,
       CAST(start_tok % {s} AS BIGINT) AS seq_offset,
       CAST(CASE WHEN n_tokens = 0 THEN 0
            ELSE (start_tok + n_tokens - 1) // {s} - start_tok // {s} + 1 END
            AS BIGINT) AS n_seqs
FROM c"""


def sql_substring_spans(n: int | None = None) -> str:
    """Repeated-substring spans (stages/dedup.substring_spans): positional
    gram hashes, HAVING count(*) > 1, gaps-and-islands merge."""
    from ahrd_ray.stages.dedup import SPAN_GRAM

    n = n or SPAN_GRAM
    gram = " || ' ' || ".join(f"arr[i+{j}]" for j in range(n))
    return f"""WITH warr AS (
  SELECT doc_id, string_split(text, ' ') AS arr FROM documents
), idx AS (
  SELECT doc_id, arr, unnest(generate_series(1, len(arr) - {n - 1})) AS i
  FROM warr WHERE len(arr) >= {n}
), pos AS (
  SELECT doc_id, CAST(i - 1 AS BIGINT) AS pos, {_sql_polyhash(gram)} AS sh FROM idx
), dup AS (
  SELECT sh FROM pos GROUP BY sh HAVING count(*) > 1
), dpos AS (
  SELECT p.doc_id, p.pos FROM pos p JOIN dup d USING (sh)
), isl AS (
  SELECT doc_id, pos,
         pos - row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS island
  FROM dpos
)
SELECT doc_id, CAST(min(pos) AS BIGINT) AS span_start,
       CAST(max(pos) + {n - 1} AS BIGINT) AS span_end,
       CAST(count(*) AS BIGINT) AS n_grams
FROM isl GROUP BY doc_id, island"""


def sql_paragraph_dedup(w: int | None = None) -> str:
    """Paragraph keep-first dedup (stages/dedup.paragraph_dedup): fixed
    w-word windows, row_number() = 1 per exact window text."""
    from ahrd_ray.stages.dedup import PARA_WORDS

    w = w or PARA_WORDS
    return f"""WITH warr AS (
  SELECT doc_id, string_split(text, ' ') AS arr FROM documents
), paras AS (
  SELECT doc_id, CAST(k - 1 AS BIGINT) AS para_idx,
         array_to_string(arr[(k - 1) * {w} + 1 : k * {w}], ' ') AS ptxt
  FROM (
    SELECT doc_id, arr,
           unnest(generate_series(1, CAST(ceil(len(arr) / {w}.0) AS BIGINT))) AS k
    FROM warr
  )
), ph AS (
  SELECT doc_id, para_idx, {_sql_polyhash('ptxt')} AS sh FROM paras
)
SELECT doc_id, para_idx,
       row_number() OVER (PARTITION BY sh ORDER BY doc_id, para_idx) = 1 AS keep
FROM ph"""


def sql_lang_resample() -> str:
    """Language-balanced hash resampling (stages/textstats.lang_resample):
    per-lang thresholds derived from counts, same multiplicative hash as
    sql_sample_events; integer floor-division both sides (HUGEINT so the
    threshold product never overflows BIGINT)."""
    from ahrd_ray.stages.generic import SAMPLE_MOD, SAMPLE_MULT

    return f"""WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
m AS (SELECT min(n) AS mn FROM c)
SELECT d.doc_id, d.lang
FROM documents d JOIN c ON d.lang = c.lang CROSS JOIN m
WHERE (CAST(d.doc_id AS HUGEINT) * {SAMPLE_MULT}) % {SAMPLE_MOD}
      < (CAST({SAMPLE_MOD} AS HUGEINT) * m.mn) // c.n"""


def sql_lm_score() -> str:
    """Corpus-bigram-LM doc score (stages/textstats.lm_score): per-position
    MLE probability quantized to 2^-20 units, exact BIGINT unit sums, one
    final double division — identical double ops both sides."""
    from ahrd_ray.stages.textstats import LM_QUANT

    arr = _sql_tok_arr()
    return f"""WITH toks AS (SELECT doc_id, {arr} AS arr FROM documents),
bg AS (
  SELECT doc_id, unnest(arr[1:len(arr) - 1]) AS a, unnest(arr[2:len(arr)]) AS b
  FROM toks WHERE len(arr) >= 2
),
bgn AS (SELECT a, b, CAST(count(*) AS BIGINT) AS n FROM bg GROUP BY a, b),
pre AS (SELECT a, CAST(sum(n) AS BIGINT) AS np FROM bgn GROUP BY a),
per AS (
  SELECT g.doc_id,
         CAST(floor(CAST(bn.n AS DOUBLE) / CAST(p.np AS DOUBLE) * {LM_QUANT}
                    + 0.5) AS BIGINT) AS u
  FROM bg g JOIN bgn bn ON g.a = bn.a AND g.b = bn.b JOIN pre p ON g.a = p.a
),
agg AS (
  SELECT doc_id, CAST(sum(u) AS BIGINT) AS units,
         CAST(count(*) AS BIGINT) AS n_bigrams
  FROM per GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(a.n_bigrams, 0) AS n_bigrams,
       CASE WHEN a.n_bigrams IS NULL THEN 0.0
            ELSE CAST(a.units AS DOUBLE) / ({LM_QUANT}.0 * a.n_bigrams) END AS lm_q
FROM documents d LEFT JOIN agg a USING (doc_id)"""


def sql_postings() -> str:
    """Inverted-index posting-list heads (stages/textstats.postings)."""
    from ahrd_ray.stages.textstats import POSTINGS_TOP

    return f"""WITH toks AS (
  SELECT doc_id, unnest({_sql_tok_arr()}) AS token FROM documents
), tf AS (
  SELECT token, doc_id, CAST(count(*) AS BIGINT) AS tf
  FROM toks GROUP BY token, doc_id
), r AS (
  SELECT token, doc_id, tf,
         CAST(row_number() OVER (PARTITION BY token
              ORDER BY tf DESC, doc_id) AS BIGINT) AS rank
  FROM tf
)
SELECT token, doc_id, tf, rank FROM r WHERE rank <= {POSTINGS_TOP}"""


def sql_length_gate() -> str:
    """Corpus-relative token-length gate (stages/textstats.length_gate):
    quantile_disc bounds at exact-binary-rational quantiles."""
    from ahrd_ray.stages.textstats import LENGTH_GATE_HI, LENGTH_GATE_LO

    lo = LENGTH_GATE_LO[0] / LENGTH_GATE_LO[1]
    hi = LENGTH_GATE_HI[0] / LENGTH_GATE_HI[1]
    return f"""WITH t AS (
  SELECT doc_id, CAST(len({_sql_tok_arr()}) AS BIGINT) AS n_tokens FROM documents
), q AS (
  SELECT quantile_disc(n_tokens, {lo!r}) AS lo,
         quantile_disc(n_tokens, {hi!r}) AS hi
  FROM t
)
SELECT t.doc_id, t.n_tokens FROM t, q
WHERE t.n_tokens >= q.lo AND t.n_tokens <= q.hi"""


def sql_incremental_dedup() -> str:
    """Cross-snapshot exact dedup (stages/dedup.incremental_dedup).

    The new snapshot is the deterministic synthetic re-crawl from
    stages/dedup.incremental_snapshot: same pages under doc_id + 1e6,
    text || ' updated' for doc_id % 3 == 0.  Joining on the raw text
    (rather than the sha) makes the oracle independent of the pipeline's
    hashing, so the digest arithmetic is genuinely cross-checked."""
    return """WITH old AS (
  SELECT text, min(doc_id) AS dup_of FROM documents GROUP BY text
), new AS (
  SELECT doc_id + 1000000 AS doc_id,
         CASE WHEN doc_id % 3 = 0 THEN text || ' updated' ELSE text END AS text
  FROM documents
)
SELECT n.doc_id, o.dup_of
FROM new n JOIN old o ON n.text = o.text"""


def sql_dedup_docs(radius: int = 3) -> str:
    """Near-dup survivors: one row per cluster representative with the
    cluster size — an aggregate over the sql_dup_clusters labels."""
    return (
        "SELECT cluster_rep AS doc_id, CAST(count(*) AS BIGINT) AS cluster_size "
        f"FROM ({sql_dup_clusters(radius)}) labels GROUP BY cluster_rep"
    )


def sql_skew_join_events_customers() -> str:
    """Plain inner join — the skew-aware hot/cold split is an execution
    strategy, not a semantics change."""
    return (
        "SELECT e.event_id, e.user_id, c.c_name "
        "FROM events e JOIN customer c ON e.user_id = c.c_custkey"
    )


def sql_bloom_semi_join_revenue() -> str:
    """Plain semi-join aggregate — the Bloom prefilter is one-sided
    (false positives only) and the verify join removes those, so the
    exact semi-join IS the contract."""
    return f"""SELECT l_suppkey, CAST(count(*) AS BIGINT) AS n_items,
       {_qsum('l_extendedprice * (1.0 - l_discount)')} AS revenue
FROM lineitem
WHERE l_orderkey IN (SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT')
GROUP BY l_suppkey"""


def sql_customer_order_counts() -> str:
    return """SELECT c.c_custkey, count(o.o_orderkey) AS n_orders
FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
GROUP BY c.c_custkey"""


def sql_q3_top_orders() -> str:
    from ahrd_ray.stages.generic import Q3_SEGMENT, Q3_TOP_N

    return f"""SELECT o.o_orderkey, o.o_orderdate,
       {_qsum('l.l_extendedprice * (1.0 - l.l_discount)')} AS revenue
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = '{Q3_SEGMENT}'
GROUP BY o.o_orderkey, o.o_orderdate
ORDER BY sum(CAST(floor((l.l_extendedprice * (1.0 - l.l_discount)) * {QUANT!r} + 0.5) AS BIGINT)) DESC, o.o_orderkey
LIMIT {Q3_TOP_N}"""



def sql_clean_corpus() -> str:
    """Composed end-to-end cleaning pipeline (pipelines/corpus.clean_corpus):
    the SAME SQL fragments as the standalone dd_exact / tx_filtered_docs /
    dd_decontaminate oracles, wired with the same join/anti-join logic."""
    from ahrd_ray.stages.dedup import BENCH_DOC_MOD

    return f"""WITH feats AS ({sql_filtered_docs()}),
dedup AS (SELECT min(doc_id) AS doc_id FROM documents GROUP BY sha256(text)),
contam AS ({sql_decontaminate()})
SELECT f.doc_id, f.n_tokens, f.quality
FROM feats f JOIN dedup d ON d.doc_id = f.doc_id
WHERE f.doc_id % {BENCH_DOC_MOD} <> 0
  AND NOT EXISTS (SELECT 1 FROM contam c WHERE c.doc_id = f.doc_id)"""


def sql_top_tokens(k: int | None = None) -> str:
    """Exact global top-k tokens (stages/textstats.top_tokens): the
    pipeline's sketch+certificate+recount machinery must equal the plain
    exact computation — that equality IS the oracle."""
    if k is None:
        from ahrd_ray.stages.textstats import TOP_TOKENS_K as k
    return f"""SELECT token, count(*) AS n
FROM (SELECT unnest({_sql_tok_arr()}) AS token FROM documents)
GROUP BY token
ORDER BY n DESC, token ASC
LIMIT {k}"""


def sql_clean_corpus_neardup() -> str:
    """clean_corpus + SimHash near-dup removal (cluster representatives
    only) — composes sql_clean_corpus with sql_dedup_docs."""
    return f"""SELECT f.doc_id, f.n_tokens, f.quality
FROM ({sql_clean_corpus()}) f
JOIN ({sql_dedup_docs()}) nd ON nd.doc_id = f.doc_id"""


def sql_bm25_topk() -> str:
    """BM25 keyword retrieval (stages/textstats.bm25_topk): no-log rational
    idf, per-term q20 int64 units summed exactly, identical double
    expression tree on both sides (constants interpolated from the same
    module the pipeline reads)."""
    from ahrd_ray.stages.textstats import BM25_B, BM25_K1, BM25_QUERY, BM25_TOPK

    qlist = ", ".join(f"'{_sq(t)}'" for t in BM25_QUERY)
    k1, b = BM25_K1, BM25_B
    return f"""WITH toks AS (
  SELECT doc_id, unnest({_sql_tok_arr()}) AS token FROM documents
), dl AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM toks GROUP BY doc_id
), nd AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
ad AS (
  SELECT CAST(sum(dl) AS DOUBLE) / CAST((SELECT n FROM nd) AS DOUBLE) AS avgdl
  FROM dl
), tf AS (
  SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
  FROM toks WHERE token IN ({qlist}) GROUP BY doc_id, token
), dfq AS (
  SELECT token, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY token
), terms AS (
  SELECT t.doc_id,
         CAST(floor(
           ((CAST((SELECT n FROM nd) AS DOUBLE) - CAST(d.df AS DOUBLE) + 0.5)
              / (CAST(d.df AS DOUBLE) + 0.5))
           * (CAST(t.tf AS DOUBLE) * (CAST({k1!r} AS DOUBLE) + 1.0))
           / (CAST(t.tf AS DOUBLE)
              + CAST({k1!r} AS DOUBLE)
                * (1.0 - CAST({b!r} AS DOUBLE)
                   + CAST({b!r} AS DOUBLE) * (CAST(l.dl AS DOUBLE)
                                              / (SELECT avgdl FROM ad))))
           * {QUANT!r} + 0.5) AS BIGINT) AS units
  FROM tf t JOIN dfq d USING (token) JOIN dl l USING (doc_id)
), scores AS (
  SELECT doc_id, CAST(sum(units) AS BIGINT) AS su FROM terms GROUP BY doc_id
)
SELECT doc_id, CAST(su AS DOUBLE) / {QUANT!r} AS score,
       CAST(row_number() OVER (ORDER BY su DESC, doc_id ASC) AS BIGINT) AS rank
FROM scores ORDER BY su DESC, doc_id ASC LIMIT {BM25_TOPK}"""


def sql_full_outer_matrix() -> str:
    """Full-outer error/purchase day matrix (stages/generic.
    error_purchase_matrix): epoch-day int64 keys, zero-filled counts."""
    return """WITH e AS (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day,
         CAST(count(*) AS BIGINT) AS n_errors
  FROM events WHERE event_type = 'error' GROUP BY user_id, day
), p AS (
  SELECT user_id, epoch_us(ts) // 86400000000 AS day,
         CAST(count(*) AS BIGINT) AS n_purchases
  FROM events WHERE event_type = 'purchase' GROUP BY user_id, day
)
SELECT CAST(coalesce(e.user_id, p.user_id) AS BIGINT) AS user_id,
       CAST(coalesce(e.day, p.day) AS BIGINT) AS day,
       coalesce(e.n_errors, 0) AS n_errors,
       coalesce(p.n_purchases, 0) AS n_purchases
FROM e FULL OUTER JOIN p ON e.user_id = p.user_id AND e.day = p.day"""


def sql_chunk_spans() -> str:
    """RAG-style overlapping token-window chunking
    (stages/textstats.chunk_spans)."""
    from ahrd_ray.stages.textstats import CHUNK_S, CHUNK_W

    return f"""WITH toks AS (
  SELECT doc_id, {_sql_tok_arr()} AS arr FROM documents
), lens AS (
  SELECT doc_id, arr, CAST(len(arr) AS BIGINT) AS n FROM toks WHERE len(arr) > 0
), starts AS (
  SELECT doc_id, arr, n, CAST(unnest(range(0, n, {CHUNK_S})) AS BIGINT) AS start_tok
  FROM lens
)
SELECT doc_id, start_tok // {CHUNK_S} AS chunk_id, start_tok,
       least({CHUNK_W}, n - start_tok) AS n_tokens,
       arr[start_tok + 1] AS first_token,
       arr[start_tok + least({CHUNK_W}, n - start_tok)] AS last_token
FROM starts"""


def sql_vocab_ids() -> str:
    """Tokenizer-vocab id assignment (stages/textstats.vocab_ids):
    contiguous ids 0..V-1 by (count desc, token asc)."""
    from ahrd_ray.stages.textstats import VOCAB_MIN_COUNT

    return f"""WITH toks AS (
  SELECT unnest({_sql_tok_arr()}) AS token FROM documents
), cnt AS (
  SELECT token, CAST(count(*) AS BIGINT) AS n FROM toks GROUP BY token
)
SELECT token, n,
       CAST(row_number() OVER (ORDER BY n DESC, token ASC) - 1 AS BIGINT) AS token_id
FROM cnt WHERE n >= {VOCAB_MIN_COUNT}"""


def sql_knn_join() -> str:
    """Exact 1-NN cosine self-join (stages/simsearch.knn_join)."""
    return f"""WITH q AS (
  SELECT vec_id, {_QVEC} AS v FROM embeddings
),
n AS (SELECT vec_id, v, sqrt(list_inner_product(v, v)) AS nrm FROM q),
scored AS (
  SELECT a.vec_id, b.vec_id AS nn_id,
         list_inner_product(a.v, b.v) / (a.nrm * b.nrm) AS cosine
  FROM n a JOIN n b ON a.vec_id <> b.vec_id
)
SELECT vec_id, nn_id, cosine FROM (
  SELECT *, row_number() OVER (
      PARTITION BY vec_id ORDER BY cosine DESC, nn_id ASC) AS rn
  FROM scored
) WHERE rn = 1"""


def sql_fact_support(cfg: EngineConfig) -> str:
    """KG fact provenance/freshness per entity (stages/graph.fact_support):
    mention counts from vcands (pre HSP dedup), distinct-doc counts + the
    supporting warc_ts range from dcands (pages carry warc_ts = epoch +
    doc_id seconds, sources/synth.py:221)."""
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup())
        + """,
mention_counts AS (
  SELECT cand_ord, CAST(count(*) AS BIGINT) AS n_mentions
  FROM vcands GROUP BY cand_ord
),
doc_counts AS (
  SELECT cand_ord, CAST(count(*) AS BIGINT) AS n_docs,
         min(doc_id) AS mind, max(doc_id) AS maxd
  FROM dcands GROUP BY cand_ord
)
SELECT d.cand_ord, d.n_docs, m.n_mentions,
       TIMESTAMP '2025-01-01 00:00:00' + to_seconds(d.mind) AS first_seen,
       TIMESTAMP '2025-01-01 00:00:00' + to_seconds(d.maxd) AS last_seen
FROM doc_counts d JOIN mention_counts m ON m.cand_ord = d.cand_ord"""
    )


def sql_entity_resolve(cfg: EngineConfig) -> str:
    """Weighted-vote entity resolution per cand_short
    (stages/graph.entity_resolve): int64 2^-20 match-score units summed
    exactly on both sides; argmax tie-break = smaller cand_ord."""
    from ahrd_ray.stages.graph import SUPPORT_QUANT

    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup())
        + f""",
support AS (
  SELECT cand_ord,
         CAST(sum(CAST(floor(match_score * {SUPPORT_QUANT!r} + 0.5) AS BIGINT)) AS BIGINT)
           AS support_units,
         CAST(count(*) AS BIGINT) AS n_links
  FROM dcands GROUP BY cand_ord
),
members AS (
  SELECT c.cand_short, c.cand_id, c.description, s.cand_ord, s.support_units, s.n_links
  FROM support s JOIN catalog c ON c.cand_ord = s.cand_ord
),
ranked AS (
  SELECT *,
         row_number() OVER (PARTITION BY cand_short
                            ORDER BY support_units DESC, cand_ord ASC) AS rn,
         count(*) OVER (PARTITION BY cand_short) AS n_entities,
         sum(n_links) OVER (PARTITION BY cand_short) AS total_links
  FROM members
)
SELECT cand_short, cand_id, description, support_units,
       CAST(n_entities AS BIGINT) AS n_entities,
       CAST(total_links AS BIGINT) AS total_links
FROM ranked WHERE rn = 1"""
    )


def sql_pred_stats(cfg: EngineConfig) -> str:
    """Per-predicate KG metrics (stages/graph.pred_stats) over the final
    edge table — the triples query nested as a CTE."""
    return (
        f"WITH edge_table AS (\n{sql_triples(cfg)}\n)\n"
        "SELECT pred, CAST(count(*) AS BIGINT) AS n_triples,\n"
        "       CAST(count(DISTINCT subj) AS BIGINT) AS n_subj,\n"
        "       CAST(count(DISTINCT obj) AS BIGINT) AS n_obj\n"
        "FROM edge_table GROUP BY pred"
    )


def sql_triangle_count(cfg: EngineConfig) -> str:
    """Exact triangle count of the co-occurrence graph
    (stages/graph.triangle_count): the a<b<c 3-way self-join — the global
    count is orientation-invariant, so it must equal the engine's
    degree-ordered wedge enumeration exactly."""
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + """
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM pairs e1
JOIN pairs e2 ON e2.cand_a = e1.cand_a AND e2.cand_b > e1.cand_b
JOIN pairs e3 ON e3.cand_a = e1.cand_b AND e3.cand_b = e2.cand_b"""
    )


def sql_alias_pairs(cfg: EngineConfig) -> str:
    """Edit-distance-1 catalog alias pairs (stages/graph.alias_pairs):
    deletion-variant candidate join (lossless for distance <= 1) + DuckDB
    native levenshtein verify."""
    return (
        _with(cte_doc_tokens(), cte_vocab(), cte_catalog(cfg))
        + """,
positions AS (
  SELECT cand_ord, cand_id,
         unnest(generate_series(1, length(cand_id) + 1)) AS i
  FROM catalog
),
variants AS (
  SELECT cand_ord, cand_id,
         substr(cand_id, 1, CAST(i AS INT) - 1) || substr(cand_id, CAST(i AS INT) + 1) AS v
  FROM positions
),
cand_pairs AS (
  SELECT DISTINCT a.cand_ord AS cand_a, b.cand_ord AS cand_b,
         a.cand_id AS id_a, b.cand_id AS id_b
  FROM variants a JOIN variants b ON a.v = b.v AND a.cand_ord < b.cand_ord
)
SELECT cand_a, cand_b, CAST(levenshtein(id_a, id_b) AS BIGINT) AS dist
FROM cand_pairs WHERE levenshtein(id_a, id_b) <= 1"""
    )


def sql_running_totals() -> str:
    """Cumulative window + lag (stages/generic.running_totals): int64
    2^-20-unit running sum, bit-exact in any partitioning.  DuckDB sums
    BIGINT into HUGEINT, so the window is cast back to the engine's int64."""
    return """SELECT user_id, event_id, ts,
  CAST(sum(CAST(floor(value * 1048576.0 + 0.5) AS BIGINT)) OVER (
    PARTITION BY user_id ORDER BY ts, event_id
    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS BIGINT) AS running_units,
  lag(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_value
FROM events"""


def sql_entity_components(cfg: EngineConfig, iters: int = 16) -> str:
    """Connected components of the co-occurrence graph
    (stages/graph.entity_components): the engine's one-hop min-label
    update unrolled ``iters`` times — identical fixed point (the engine
    raises if the diameter exceeds the same bound)."""
    ctes = [
        *_cands_prefix(cfg),
        cte_valid_dedup(),
        _cte_cooccur_pairs(cfg),
        """edges AS MATERIALIZED (
  SELECT cand_a AS src, cand_b AS dst FROM pairs
  UNION ALL SELECT cand_b, cand_a FROM pairs
)""",
        "l0 AS MATERIALIZED (SELECT cand_ord AS node, cand_ord AS lab FROM catalog)",
    ]
    for k in range(1, iters + 1):
        # AS MATERIALIZED: each round references the previous label table
        # twice — without it DuckDB inlines the CTE chain exponentially
        ctes.append(
            f"""l{k} AS MATERIALIZED (
  SELECT l.node, least(l.lab, coalesce(min(nl.lab), l.lab)) AS lab
  FROM l{k - 1} l
  LEFT JOIN edges e ON e.src = l.node
  LEFT JOIN l{k - 1} nl ON nl.node = e.dst
  GROUP BY l.node, l.lab
)"""
        )
    return (
        _with(*ctes)
        + f"\nSELECT node, CAST(lab AS BIGINT) AS cluster_rep FROM l{iters}"
    )


def sql_top_neighbor(cfg: EngineConfig) -> str:
    """Strongest co-occurring partner per entity (stages/graph.top_neighbor)."""
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + """,
sides AS (
  SELECT cand_a AS node, cand_b AS best_neighbor, n_docs FROM pairs
  UNION ALL SELECT cand_b, cand_a, n_docs FROM pairs
)
SELECT node, best_neighbor, n_docs FROM (
  SELECT *, row_number() OVER (PARTITION BY node
      ORDER BY n_docs DESC, best_neighbor ASC) AS rn
  FROM sides
) WHERE rn = 1"""
    )


def sql_users_both_types() -> str:
    """Set intersection (stages/generic.users_both_types)."""
    return """SELECT user_id FROM events WHERE event_type = 'click'
INTERSECT
SELECT user_id FROM events WHERE event_type = 'purchase'"""


def sql_event_sequences() -> str:
    """Capped ordered string_agg (stages/generic.event_sequences)."""
    from ahrd_ray.stages.generic import EVENT_SEQ_CAP

    return f"""WITH ranked AS (
  SELECT user_id, event_type, ts, event_id,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
       string_agg(event_type, ',' ORDER BY ts, event_id) AS seq
FROM ranked WHERE rn <= {EVENT_SEQ_CAP} GROUP BY user_id"""


# ---------------------------------------------------------------------------
# Multi-config trainer-objective oracle (E7/E8 gates).
#
# The round-3 grid oracle unioned FOUR complete eval chains and DuckDB ran
# them superlinearly (>12 min at sf0.001 vs 31 s for one chain): every
# branch re-derived candidates/dedup/token explosions from scratch.  The
# mutated parameters (token-score weights, integer source weights, dsbs
# weights) only enter DOWNSTREAM of the candidate table, so everything
# weight-invariant is shared once AS MATERIALIZED, decomposed per source
# where a weight multiplies it, and each config re-aggregates the slim
# decomposed tables.  Exactness: source weights are integers and
# match_score / ov_q are integer-valued / 2^-20-quantized doubles, so
# sum(w * n) == iterated row sums bit-for-bit, and every downstream double
# expression is textually identical to cte_scoring/_eval_ctes.
# ---------------------------------------------------------------------------


def _objective_shared_ctes(cfg: EngineConfig) -> list[str]:
    """Weight-invariant MATERIALIZED prefix shared by every config of a
    multi-config objective query (grid sweep / annealing path)."""
    ov = (
        "(CAST(span_end - span_start + 1 AS DOUBLE) + CAST(cand_end - cand_start + 1 AS DOUBLE))"
        " / CAST(doc_len + cand_len AS DOUBLE)"
    )
    return [
        *_cands_prefix(cfg),
        cte_valid_dedup(),
        f"""m_cands AS MATERIALIZED (
  SELECT doc_id, source, cand_ord, cand_id, e_rank, match_score, {_q20(ov)} AS ov_q
  FROM dcands
)""",
        f"""m_topk AS MATERIALIZED (
  SELECT * FROM (
    SELECT *, row_number() OVER (
        PARTITION BY doc_id, source ORDER BY e_rank ASC, cand_ord ASC) AS topk_rn
    FROM m_cands
  ) WHERE topk_rn <= {cfg.top_k}
)""",
        """m_totals_src AS MATERIALIZED (
  SELECT doc_id, source, sum(match_score) AS sb, count(*) AS n,
         sum(ov_q) AS so, max(match_score) AS mb
  FROM m_cands GROUP BY doc_id, source
)""",
        """m_cum_src AS MATERIALIZED (
  SELECT c.doc_id, ct.token, c.source, sum(c.match_score) AS cb,
         count(*) AS n, sum(c.ov_q) AS co
  FROM m_cands c JOIN catalog_tokens ct ON ct.cand_ord = c.cand_ord
  GROUP BY c.doc_id, ct.token, c.source
)""",
        """m_topk_tokens AS MATERIALIZED (
  SELECT DISTINCT k.doc_id, ct.token
  FROM m_topk k JOIN catalog_tokens ct ON ct.cand_ord = k.cand_ord
)""",
        """m_topk_cand_tokens AS MATERIALIZED (
  SELECT k.doc_id, k.cand_ord, ct.token
  FROM m_topk k JOIN catalog_tokens ct ON ct.cand_ord = k.cand_ord
)""",
        f"""m_gold AS MATERIALIZED (
  SELECT DISTINCT doc_id, token FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(substr(text, 1, {GOLD_PREFIX_CHARS})), '{SPLIT_SQL}')) AS token
    FROM documents
  ) WHERE token <> ''
)""",
        "m_gold_sizes AS MATERIALIZED (SELECT doc_id, count(*) AS n_gold FROM m_gold GROUP BY doc_id)",
        f"""m_ev_tokens AS MATERIALIZED (
  SELECT DISTINCT cand_ord, token FROM (
    SELECT cand_ord, unnest(regexp_split_to_array(lower(description), '{SPLIT_SQL}')) AS token
    FROM catalog_flt
  ) WHERE token <> ''
)""",
        "m_ev_sizes AS MATERIALIZED (SELECT cand_ord, count(*) AS n_ev FROM m_ev_tokens GROUP BY cand_ord)",
        "m_ndocs AS MATERIALIZED (SELECT count(*) AS n FROM documents)",
    ]


def _objective_tail_ctes(s: str, cfg: EngineConfig) -> list[str]:
    """Per-config scoring + objective tail over the shared prefix; defines
    ``obj_{s}`` (one row, column ``objective``)."""
    w_case = _case_source({n: str(w) for n, w in cfg.weights_by_source().items()})
    dsbs_case = _case_source({n: repr(w) for n, w in cfg.dsbs_by_source().items()})
    w_bit = repr(cfg.token_score_bit_score_weight)
    w_db = repr(cfg.token_score_database_score_weight)
    w_ov = repr(cfg.token_score_overlap_score_weight)
    ts_formula = (
        f"{w_bit} * c.cum_bit / t.tot_bit + {w_db} * c.cum_db / t.tot_db"
        f" + {w_ov} * c.cum_ov / t.tot_ov"
    )
    fexpr = """CASE WHEN coalesce(t.tp, 0) = 0 OR coalesce(gs.n_gold, 0) = 0 OR coalesce(es.n_ev, 0) = 0
         THEN 0.0
         ELSE 2.0 * ((CAST(t.tp AS DOUBLE) / es.n_ev) * (CAST(t.tp AS DOUBLE) / gs.n_gold))
              / ((CAST(t.tp AS DOUBLE) / es.n_ev) + (CAST(t.tp AS DOUBLE) / gs.n_gold))
    END"""
    return [
        f"""totals_{s} AS (
  SELECT doc_id, sum(sb) AS tot_bit, CAST(sum({w_case} * n) AS DOUBLE) AS tot_db,
         sum(so) AS tot_ov, max(mb) AS max_bit
  FROM m_totals_src GROUP BY doc_id
)""",
        f"""cum_{s} AS (
  SELECT doc_id, token, sum(cb) AS cum_bit,
         CAST(sum({w_case} * n) AS DOUBLE) AS cum_db, sum(co) AS cum_ov
  FROM m_cum_src GROUP BY doc_id, token
)""",
        f"""ts_{s} AS (
  SELECT c.doc_id, c.token, {_q20(ts_formula)} AS ts_q
  FROM cum_{s} c JOIN totals_{s} t ON t.doc_id = c.doc_id
)""",
        f"""dh_{s} AS (
  SELECT ts.doc_id, max(ts.ts_q) AS hs
  FROM ts_{s} ts
  JOIN m_topk_tokens tk ON tk.doc_id = ts.doc_id AND tk.token = ts.token
  GROUP BY ts.doc_id
)""",
        f"""fts_{s} AS (
  SELECT ts.doc_id, ts.token,
         CASE WHEN ts.ts_q > h.hs / 2 THEN ts.ts_q ELSE ts.ts_q - h.hs / 2 END AS ts_f,
         (ts.ts_q > h.hs / 2) AS informative
  FROM ts_{s} ts JOIN dh_{s} h ON h.doc_id = ts.doc_id
)""",
        f"""cta_{s} AS (
  SELECT t.doc_id, t.cand_ord, sum(f.ts_f) AS sum_ts,
         count(*) AS n_tok, sum(CASE WHEN f.informative THEN 1 ELSE 0 END) AS n_inf
  FROM m_topk_cand_tokens t
  JOIN fts_{s} f ON f.doc_id = t.doc_id AND f.token = t.token
  GROUP BY t.doc_id, t.cand_ord
)""",
        f"""scored_{s} AS (
  SELECT k.doc_id, k.cand_ord, k.source, k.cand_id,
         CASE WHEN a.n_inf = 0 OR h.hs = 0 THEN 0.0
              ELSE (a.sum_ts / h.hs) / (CAST(a.n_tok AS DOUBLE) / CAST(a.n_inf AS DOUBLE))
         END + {dsbs_case} * k.match_score / t.max_bit AS description_score
  FROM m_topk k
  JOIN dh_{s} h ON h.doc_id = k.doc_id
  JOIN totals_{s} t ON t.doc_id = k.doc_id
  JOIN cta_{s} a ON a.doc_id = k.doc_id AND a.cand_ord = k.cand_ord
)""",
        f"""win_{s} AS (
  SELECT doc_id, cand_ord FROM (
    SELECT *, row_number() OVER (
        PARTITION BY doc_id
        ORDER BY description_score DESC, cand_ord DESC, source ASC, cand_id ASC) AS win_rn
    FROM scored_{s}
  ) WHERE win_rn = 1
)""",
        f"""wtp_{s} AS (
  SELECT w.doc_id, w.cand_ord, count(*) AS tp
  FROM win_{s} w
  JOIN m_ev_tokens e ON e.cand_ord = w.cand_ord
  JOIN m_gold g ON g.doc_id = w.doc_id AND g.token = e.token
  GROUP BY w.doc_id, w.cand_ord
)""",
        f"""obj_{s} AS (
  SELECT coalesce(sum({_q20(fexpr)}), 0.0) / (SELECT n FROM m_ndocs) AS objective
  FROM win_{s} w
  LEFT JOIN wtp_{s} t ON t.doc_id = w.doc_id AND t.cand_ord = w.cand_ord
  LEFT JOIN m_gold_sizes gs ON gs.doc_id = w.doc_id
  LEFT JOIN m_ev_sizes es ON es.cand_ord = w.cand_ord
)""",
    ]


def sql_grid_search(cfg: EngineConfig) -> str:
    """Weight-grid sweep oracle (pipelines/trainer.grid_search): shared
    weight-invariant prefix + one slim scoring tail per combo."""
    from dataclasses import replace

    from ahrd_ray.pipelines.trainer import GRID_COMBOS

    ctes = _objective_shared_ctes(cfg)
    parts = []
    for i, (wb, wd, wo) in enumerate(GRID_COMBOS):
        c = replace(
            cfg,
            token_score_bit_score_weight=wb,
            token_score_database_score_weight=wd,
            token_score_overlap_score_weight=wo,
        )
        ctes.extend(_objective_tail_ctes(f"g{i}", c))
        parts.append(
            f"SELECT CAST({i} AS BIGINT) AS combo_id, CAST({wb!r} AS DOUBLE) AS w_bit,"
            f" CAST({wd!r} AS DOUBLE) AS w_db, CAST({wo!r} AS DOUBLE) AS w_ov,"
            f" (SELECT objective FROM obj_g{i}) AS objective,"
            f" (SELECT n FROM m_ndocs) AS n_docs"
        )
    return _with(*ctes) + "\n" + "\nUNION ALL\n".join(parts)


def sql_trainer_path(
    cfg: EngineConfig,
    iterations: int = 3,
    temperature: float = 400.0,
    cool_down_by: float = 50.0,
    scaling_factor: float = 200.0,
    seed: int = 42,
) -> str:
    """Simulated-annealing path oracle (pipelines/trainer.train, mirroring
    Trainer.java:93-138): the seeded RNG stream is DATA-INDEPENDENT (the
    trainer draws the acceptance uniform unconditionally), so every
    mutation and uniform is a constant here; only the acceptance DECISIONS
    depend on the data.  The 2^iterations acceptance branches are
    enumerated — each branch's candidate config gets one scoring tail over
    the shared prefix, and the accept/best logic folds across iterations as
    CASE chains over the per-config objectives.  Practical for the small
    iteration counts the gate runs (3 steps = 8 tails)."""
    import numpy as np

    from ahrd_ray.pipelines.trainer import apply_mutation, draw_mutation

    if iterations > 4:
        raise ValueError("path oracle enumerates 2^iterations branches; use <= 4")
    rng = np.random.default_rng(seed)
    n_src = len(cfg.sources)
    draws = []
    us = []
    for _ in range(iterations):
        draws.append(draw_mutation(rng, n_src))
        us.append(float(rng.random()))

    # configs per acceptance history (tuple of 0/1 bits)
    cfg_at: dict[tuple, EngineConfig] = {(): cfg}
    cand_at: dict[tuple, EngineConfig] = {}
    hists: list[tuple] = [()]
    for k in range(iterations):
        new_hists = []
        for h in hists:
            cand = apply_mutation(cfg_at[h], draws[k])
            cand_at[h] = cand
            cfg_at[h + (1,)] = cand
            cfg_at[h + (0,)] = cfg_at[h]
            new_hists += [h + (0,), h + (1,)]
        hists = new_hists

    def lab(h: tuple) -> str:
        return f"c{len(h)}_{''.join(map(str, h))}"

    ctes = _objective_shared_ctes(cfg)
    ctes.extend(_objective_tail_ctes("base", cfg))
    for h, c in cand_at.items():
        ctes.extend(_objective_tail_ctes(lab(h), c))

    def cand_obj_expr(k: int, prefix: tuple = ()) -> str:
        """Objective of the iteration-k candidate as a CASE over a0..a{k-1}."""
        if len(prefix) == k:
            return f"(SELECT objective FROM obj_{lab(prefix)})"
        b = len(prefix)
        return (
            f"CASE WHEN a{b} THEN {cand_obj_expr(k, prefix + (1,))}"
            f" ELSE {cand_obj_expr(k, prefix + (0,))} END"
        )

    def cand_param_expr(k: int, get, prefix: tuple = ()) -> str:
        """A literal parameter of the iteration-k candidate, branch-folded."""
        if len(prefix) == k:
            return repr(get(cand_at[prefix]))
        b = len(prefix)
        return (
            f"CASE WHEN a{b} THEN {cand_param_expr(k, get, prefix + (1,))}"
            f" ELSE {cand_param_expr(k, get, prefix + (0,))} END"
        )

    # scalar-fold CTE chain: one row carrying s_k / cs_k / a_k / best_k
    sf = repr(scaling_factor)
    chain = ["p0 AS (SELECT (SELECT objective FROM obj_base) AS s0)"]
    prev = "p0"
    for k in range(iterations):
        T = temperature - k * cool_down_by
        chain.append(f"q{k} AS (SELECT *, {cand_obj_expr(k)} AS cs{k} FROM {prev})")
        accept = f"(cs{k} - s{k}) >= 0 OR ({T!r} > 0 AND {us[k]!r} < exp((cs{k} - s{k}) * {sf} / {T!r}))"
        chain.append(f"r{k} AS (SELECT *, ({accept}) AS a{k} FROM q{k})")
        chain.append(
            f"t{k} AS (SELECT *, CASE WHEN a{k} THEN cs{k} ELSE s{k} END AS s{k + 1} FROM r{k})"
        )
        prev = f"t{k}"
    # best tracking: strictly-greater updates walking the accepted scores
    getters = {
        "w_bit": lambda c: c.token_score_bit_score_weight,
        "w_db": lambda c: c.token_score_database_score_weight,
        "w_ov": lambda c: c.token_score_overlap_score_weight,
    }
    chain.append(
        "b0 AS (SELECT *, s0 AS b0_score, "
        + ", ".join(f"{repr(g(cfg))} AS b0_{n}" for n, g in getters.items())
        + ", "
        + ", ".join(f"{repr(g(cfg))} AS b0_{n}_cur" for n, g in getters.items())
        + f" FROM {prev})"
    )
    prev = "b0"
    for k in range(iterations):
        # cfg after iteration k = candidate if accepted else previous cfg;
        # params fold as CASE over (a0..ak) using cfg_at literals
        upd = f"s{k + 1} > b{k}_score"
        cols = [f"CASE WHEN {upd} THEN s{k + 1} ELSE b{k}_score END AS b{k + 1}_score"]
        for n, g in getters.items():
            cur = (
                f"CASE WHEN a{k} THEN {cand_param_expr(k, g)} ELSE b{k}_{n}_cur END"
            )
            cols.append(f"({cur}) AS b{k + 1}_{n}_cur")
            cols.append(
                f"CASE WHEN {upd} THEN ({cur}) ELSE b{k}_{n} END AS b{k + 1}_{n}"
            )
        chain.append(f"b{k + 1} AS (SELECT *, {', '.join(cols)} FROM {prev})")
        prev = f"b{k + 1}"

    ctes.extend(chain)

    src_names = [s.name for s in cfg.sources]
    rows = []
    for k in range(iterations):
        T = temperature - k * cool_down_by
        param_cols = [
            f"{cand_param_expr(k, g)} AS {n}" for n, g in getters.items()
        ]
        for nm in src_names:
            param_cols.append(
                f"CAST({cand_param_expr(k, lambda c, nm=nm: next(s.weight for s in c.sources if s.name == nm))} AS BIGINT) AS weight_{nm}"
            )
        for nm in src_names:
            param_cols.append(
                f"{cand_param_expr(k, lambda c, nm=nm: next(s.description_score_bit_score_weight for s in c.sources if s.name == nm))} AS dsbs_{nm}"
            )
        rows.append(
            f"SELECT CAST({k} AS BIGINT) AS iteration, CAST({T!r} AS DOUBLE) AS temperature,"
            f" cs{k} AS score, a{k} AS accepted, {', '.join(param_cols)},"
            f" b{iterations}_score AS best_score,"
            f" b{iterations}_w_bit AS best_w_bit, b{iterations}_w_db AS best_w_db,"
            f" b{iterations}_w_ov AS best_w_ov"
            f" FROM {prev}"
        )
    return _with(*ctes) + "\n" + "\nUNION ALL\n".join(rows)


def sql_lang_confusion() -> str:
    """Language-ID confusion matrix (stages/textstats.lang_confusion):
    the langid argmax joined back to the labeled lang column."""
    inner = sql_langid()
    return (
        f"WITH preds AS (\n{inner}\n)\n"
        "SELECT d.lang, p.pred_lang, CAST(count(*) AS BIGINT) AS n_docs\n"
        "FROM documents d JOIN preds p ON p.doc_id = d.doc_id\n"
        "GROUP BY d.lang, p.pred_lang"
    )


def sql_link_pred(cfg: EngineConfig) -> str:
    """kNN-graph link prediction (stages/graph.link_pred): per-node top-K
    strongest partners symmetrized into the kNN edge set, common-neighbor
    wedge counts, anti-join vs kNN edges, integer-exact q20 Jaccard over
    symmetrized kNN degrees, deterministic top-N."""
    from ahrd_ray.stages.graph import LINKPRED_NEIGHBOR_CAP, LINKPRED_TOP_N

    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + f""",
sides AS (
  SELECT cand_a AS node, cand_b AS nb, n_docs FROM pairs
  UNION ALL SELECT cand_b, cand_a, n_docs FROM pairs
),
capped AS (
  SELECT node, nb FROM (
    SELECT node, nb, row_number() OVER (
        PARTITION BY node ORDER BY n_docs DESC, nb ASC) AS rn
    FROM sides
  ) WHERE rn <= {LINKPRED_NEIGHBOR_CAP}
),
knn AS (
  SELECT DISTINCT least(node, nb) AS cand_a, greatest(node, nb) AS cand_b
  FROM capped
),
ksides AS (
  SELECT cand_a AS node, cand_b AS nb FROM knn
  UNION ALL SELECT cand_b, cand_a FROM knn
),
deg AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM ksides GROUP BY 1),
cn AS (
  SELECT s1.nb AS cand_a, s2.nb AS cand_b, CAST(count(*) AS BIGINT) AS common_n
  FROM ksides s1 JOIN ksides s2 ON s1.node = s2.node AND s1.nb < s2.nb
  GROUP BY 1, 2
),
nonedge AS (
  SELECT cn.* FROM cn LEFT JOIN knn k
    ON k.cand_a = cn.cand_a AND k.cand_b = cn.cand_b
  WHERE k.cand_a IS NULL
)
SELECT n.cand_a, n.cand_b, n.common_n,
       CAST((n.common_n * 1048576) // (da.deg + db.deg - n.common_n) AS BIGINT)
         AS jaccard_q20
FROM nonedge n
JOIN deg da ON da.node = n.cand_a
JOIN deg db ON db.node = n.cand_b
ORDER BY jaccard_q20 DESC, common_n DESC, cand_a ASC, cand_b ASC
LIMIT {LINKPRED_TOP_N}"""
    )


def sql_ra_scores(cfg: EngineConfig) -> str:
    """Resource-Allocation link prediction (stages/graph.ra_scores): same
    kNN wedge enumeration as sql_link_pred, but each shared neighbor z
    contributes RA_UNIT // deg(z) integer units instead of 1 — exact BIGINT
    arithmetic on both sides, no transcendental weight."""
    from ahrd_ray.stages.graph import LINKPRED_NEIGHBOR_CAP, LINKPRED_TOP_N, RA_UNIT

    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + f""",
sides AS (
  SELECT cand_a AS node, cand_b AS nb, n_docs FROM pairs
  UNION ALL SELECT cand_b, cand_a, n_docs FROM pairs
),
capped AS (
  SELECT node, nb FROM (
    SELECT node, nb, row_number() OVER (
        PARTITION BY node ORDER BY n_docs DESC, nb ASC) AS rn
    FROM sides
  ) WHERE rn <= {LINKPRED_NEIGHBOR_CAP}
),
knn AS (
  SELECT DISTINCT least(node, nb) AS cand_a, greatest(node, nb) AS cand_b
  FROM capped
),
ksides AS (
  SELECT cand_a AS node, cand_b AS nb FROM knn
  UNION ALL SELECT cand_b, cand_a FROM knn
),
deg AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM ksides GROUP BY 1),
ra AS (
  SELECT s1.nb AS cand_a, s2.nb AS cand_b,
         CAST(count(*) AS BIGINT) AS common_n,
         CAST(SUM({RA_UNIT} // d.deg) AS BIGINT) AS ra_units
  FROM ksides s1 JOIN ksides s2 ON s1.node = s2.node AND s1.nb < s2.nb
  JOIN deg d ON d.node = s1.node
  GROUP BY 1, 2
),
nonedge AS (
  SELECT ra.* FROM ra LEFT JOIN knn k
    ON k.cand_a = ra.cand_a AND k.cand_b = ra.cand_b
  WHERE k.cand_a IS NULL
)
SELECT cand_a, cand_b, common_n, ra_units FROM nonedge
ORDER BY ra_units DESC, common_n DESC, cand_a ASC, cand_b ASC
LIMIT {LINKPRED_TOP_N}"""
    )


def sql_hits(cfg: EngineConfig) -> str:
    """Bipartite integer HITS (stages/graph.hits_scores): docs are hubs,
    entities authorities over the capped ccands link relation.  a1 = link
    counts, h1 = per-doc SUM(a1) // HITS_DIV, auth = per-entity SUM(h1) —
    exact BIGINT arithmetic with the same scaling division on both sides.
    The pairs CTE from _cte_cooccur_pairs is unreferenced and unexecuted."""
    from ahrd_ray.stages.graph import HITS_DIV

    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            _cte_cooccur_pairs(cfg),
            "a1 AS (SELECT cand_ord, CAST(count(*) AS BIGINT) AS link_docs"
            " FROM ccands GROUP BY 1)",
            f"h1 AS (SELECT c.doc_id,"
            f" CAST(SUM(a.link_docs) // {HITS_DIV} AS BIGINT) AS h"
            f" FROM ccands c JOIN a1 a ON a.cand_ord = c.cand_ord GROUP BY 1)",
        )
        + """
SELECT c.cand_ord AS node, a.link_docs, CAST(SUM(h.h) AS BIGINT) AS auth_units
FROM ccands c
JOIN h1 h ON h.doc_id = c.doc_id
JOIN a1 a ON a.cand_ord = c.cand_ord
GROUP BY 1, 2"""
    )


def sql_split_assign() -> str:
    """Deterministic 80/10/10 hash split (stages/textstats.split_assign):
    bucket arithmetic is pure BIGINT modular math, token counts come from
    the shared tokenizer expression."""
    from ahrd_ray.stages.textstats import SPLIT_A, SPLIT_B, SPLIT_P

    arr = _sql_tok_arr()
    return f"""WITH t AS (
  SELECT ((doc_id % {SPLIT_P}) * {SPLIT_A} + {SPLIT_B}) % 100 AS bucket,
         CAST(len({arr}) AS BIGINT) AS n_tokens
  FROM documents
)
SELECT CASE WHEN bucket < 80 THEN 'train'
            WHEN bucket < 90 THEN 'valid'
            ELSE 'test' END AS split,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_tokens) AS BIGINT) AS n_tokens
FROM t GROUP BY 1"""


def sql_collocations() -> str:
    """Lift-scored collocations (stages/textstats.collocations): exact
    HUGEINT lift arithmetic over the bigram aggregate and its positional
    marginals."""
    from ahrd_ray.stages.textstats import COLLOC_MIN_N

    arr = _sql_tok_arr()
    return f"""WITH toks AS (SELECT {arr} AS arr FROM documents),
bg AS (
  SELECT unnest(arr[1:len(arr) - 1]) AS tok_a, unnest(arr[2:len(arr)]) AS tok_b
  FROM toks WHERE len(arr) >= 2
),
counts AS (
  SELECT tok_a, tok_b, CAST(count(*) AS BIGINT) AS n FROM bg GROUP BY 1, 2
),
lt AS (SELECT tok_a, CAST(sum(n) AS HUGEINT) AS la FROM counts GROUP BY 1),
rt AS (SELECT tok_b, CAST(sum(n) AS HUGEINT) AS rb FROM counts GROUP BY 1),
tot AS (SELECT CAST(sum(n) AS HUGEINT) AS nbg FROM counts)
SELECT c.tok_a, c.tok_b, c.n,
       CAST((t.nbg * c.n * 1048576) // (l.la * r.rb) AS BIGINT) AS lift_q20
FROM counts c
CROSS JOIN tot t
JOIN lt l ON l.tok_a = c.tok_a
JOIN rt r ON r.tok_b = c.tok_b
WHERE c.n >= {COLLOC_MIN_N}"""


def sql_annotation_closure() -> str:
    """GO-style annotation up-propagation (stages/taxonomy.annotation_closure):
    assigned nodes UNION their recursive ancestors, distinct per doc."""
    return """WITH RECURSIVE dag AS (
  SELECT 'N' || CAST(n_nationkey AS VARCHAR) AS node_id,
         'R' || CAST(n_regionkey AS VARCHAR) AS parent_id
  FROM nation
  UNION ALL
  SELECT 'R' || CAST(r_regionkey AS VARCHAR), NULL FROM region
),
assign AS (
  SELECT doc_id, 'N' || CAST(doc_id % 25 AS VARCHAR) AS node_id FROM documents
  UNION
  SELECT d.doc_id, 'R' || CAST(n.n_regionkey AS VARCHAR)
  FROM documents d JOIN nation n ON n.n_nationkey = d.doc_id % 25
  WHERE d.doc_id % 7 = 0
),
anc(node_id, anc_id) AS (
  SELECT node_id, parent_id FROM dag WHERE parent_id IS NOT NULL
  UNION
  SELECT a.node_id, d.parent_id FROM anc a
  JOIN dag d ON d.node_id = a.anc_id WHERE d.parent_id IS NOT NULL
)
SELECT doc_id, node_id FROM assign
UNION
SELECT a.doc_id, anc.anc_id FROM assign a JOIN anc ON anc.node_id = a.node_id"""


def sql_clustering_coeff(cfg: EngineConfig) -> str:
    """Local clustering coefficient over the kNN graph
    (stages/graph.clustering_coeff): closed-wedge counts per center,
    integer-exact q20 over symmetrized degrees, deg >= 2 nodes."""
    from ahrd_ray.stages.graph import LINKPRED_NEIGHBOR_CAP

    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + f""",
sides AS (
  SELECT cand_a AS node, cand_b AS nb, n_docs FROM pairs
  UNION ALL SELECT cand_b, cand_a, n_docs FROM pairs
),
capped AS (
  SELECT node, nb FROM (
    SELECT node, nb, row_number() OVER (
        PARTITION BY node ORDER BY n_docs DESC, nb ASC) AS rn
    FROM sides
  ) WHERE rn <= {LINKPRED_NEIGHBOR_CAP}
),
knn AS (
  SELECT DISTINCT least(node, nb) AS cand_a, greatest(node, nb) AS cand_b
  FROM capped
),
ksides AS (
  SELECT cand_a AS node, cand_b AS nb FROM knn
  UNION ALL SELECT cand_b, cand_a FROM knn
),
deg AS (SELECT node, CAST(count(*) AS BIGINT) AS deg FROM ksides GROUP BY 1),
tri AS (
  SELECT s1.node AS center, CAST(count(*) AS BIGINT) AS n_triangles
  FROM ksides s1
  JOIN ksides s2 ON s1.node = s2.node AND s1.nb < s2.nb
  JOIN knn k ON k.cand_a = s1.nb AND k.cand_b = s2.nb
  GROUP BY 1
)
SELECT d.node, coalesce(t.n_triangles, 0) AS n_triangles,
       CAST((2 * coalesce(t.n_triangles, 0) * 1048576)
            // (d.deg * (d.deg - 1)) AS BIGINT) AS cc_q20
FROM deg d LEFT JOIN tri t ON t.center = d.node
WHERE d.deg >= 2"""
    )


def sql_edge_timespan(cfg: EngineConfig) -> str:
    """Temporal edge provenance (stages/graph.cooccurrence_edges
    with_span=True): count plus first/last observing doc per pair."""
    from ahrd_ray.stages.graph import COOCCUR_CAP

    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            f"""ccands AS (
  SELECT doc_id, cand_ord FROM (
    SELECT doc_id, cand_ord, row_number() OVER (
        PARTITION BY doc_id ORDER BY match_score DESC, cand_ord ASC) AS crn
    FROM dcands
  ) WHERE crn <= {COOCCUR_CAP}
)""",
        )
        + """
SELECT a.cand_ord AS cand_a, b.cand_ord AS cand_b,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min(a.doc_id) AS BIGINT) AS first_doc,
       CAST(max(a.doc_id) AS BIGINT) AS last_doc
FROM ccands a JOIN ccands b
  ON a.doc_id = b.doc_id AND a.cand_ord < b.cand_ord
GROUP BY 1, 2"""
    )


def sql_neg_samples(cfg: EngineConfig) -> str:
    """Deterministic tail-corruption negative samples
    (stages/graph.neg_samples): HUGEINT-exact mod-2^64 hash, modulo the
    catalog size, anti-joined against the positive edge set."""
    from ahrd_ray.stages.graph import _MOD64, _NEG_C1, _NEG_C2, _NEG_C3, NEG_PER_POS

    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + f""",
nv AS (SELECT CAST(count(*) AS HUGEINT) AS n FROM catalog),
cand_neg AS (
  SELECT p.cand_a, p.cand_b AS pos_b, CAST(js.j AS BIGINT) AS j,
         CAST(((CAST(p.cand_a AS HUGEINT) * {_NEG_C1}
                + CAST(p.cand_b AS HUGEINT) * {_NEG_C2}
                + (CAST(js.j AS HUGEINT) + 1) * {_NEG_C3})
               % CAST('{_MOD64}' AS HUGEINT)) % nv.n AS BIGINT) AS neg_b
  FROM pairs p
  CROSS JOIN (SELECT CAST(range AS BIGINT) AS j FROM range({NEG_PER_POS})) js
  CROSS JOIN nv
)
SELECT c.cand_a, c.pos_b, c.j, c.neg_b
FROM cand_neg c
LEFT JOIN pairs e
  ON e.cand_a = least(c.cand_a, c.neg_b) AND e.cand_b = greatest(c.cand_a, c.neg_b)
WHERE c.neg_b <> c.cand_a AND c.neg_b <> c.pos_b AND e.cand_a IS NULL"""
    )


def sql_evidence_snippets(cfg: EngineConfig) -> str:
    """Per-doc strongest-mention evidence window
    (stages/graph.evidence_snippets); substr clamps exactly like the
    pipeline's python slice (span_start is 1-based strpos both sides)."""
    from ahrd_ray.stages.graph import EVIDENCE_CTX

    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup())
        + f""",
best AS (
  SELECT doc_id, cand_ord, span_start, span_end FROM (
    SELECT doc_id, cand_ord, span_start, span_end, row_number() OVER (
        PARTITION BY doc_id ORDER BY match_score DESC, cand_ord ASC) AS rn
    FROM dcands
  ) WHERE rn = 1
)
SELECT b.doc_id, b.cand_ord,
       CAST(b.span_start AS BIGINT) AS span_start,
       CAST(b.span_end AS BIGINT) AS span_end,
       substr(d.text,
              greatest(1, b.span_start - {EVIDENCE_CTX}),
              b.span_end - 1 + {EVIDENCE_CTX}
                - greatest(1, b.span_start - {EVIDENCE_CTX}) + 1) AS snippet
FROM best b JOIN documents d ON d.doc_id = b.doc_id"""
    )


def sql_quantile_sketch() -> str:
    """Bottom-k sample quantile estimate (stages/generic.quantile_sketch):
    the identical injective mod-2^64 hash order replayed in HUGEINT."""
    from ahrd_ray.stages.generic import QSKETCH_K, QSKETCH_MULT, QUANTILE_QS

    picks = "\nUNION ALL\n".join(
        f"SELECT CAST({num} AS DOUBLE) / {den} AS q, value FROM r"
        f" WHERE rn = ({num} * n + {den} - 1) // {den}"
        for num, den in QUANTILE_QS
    )
    return f"""WITH s AS (
  SELECT value FROM events
  ORDER BY (CAST(event_id AS HUGEINT) * {QSKETCH_MULT})
           % CAST('18446744073709551616' AS HUGEINT) ASC
  LIMIT {QSKETCH_K}
),
r AS (
  SELECT value, row_number() OVER (ORDER BY value ASC) AS rn,
         count(*) OVER () AS n
  FROM s
)
{picks}"""


def sql_ngram_containment_pairs(n: int = 3, threshold: float = 0.8) -> str:
    """Asymmetric containment pairs (stages/dedup.ngram_containment_pairs):
    intersection over the SMALLER shingle set."""
    gram = " || ' ' || ".join(f"arr[i+{j}]" for j in range(n))
    return f"""WITH shingles AS (
  SELECT DISTINCT doc_id, sh FROM (
    SELECT doc_id, unnest(list_transform(generate_series(1, len(arr) - {n - 1}),
                                         i -> {gram})) AS sh
    FROM (SELECT doc_id, string_split(text, ' ') AS arr FROM documents)
  )
),
sizes AS (SELECT doc_id, count(*) AS n_sh FROM shingles GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
  FROM shingles a JOIN shingles b ON a.sh = b.sh AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT i.doc_a, i.doc_b,
       CAST(i.inter AS DOUBLE) / CAST(least(sa.n_sh, sb.n_sh) AS DOUBLE) AS containment
FROM inter i
JOIN sizes sa ON sa.doc_id = i.doc_a
JOIN sizes sb ON sb.doc_id = i.doc_b
WHERE CAST(i.inter AS DOUBLE) / CAST(least(sa.n_sh, sb.n_sh) AS DOUBLE) >= {threshold!r}"""


def sql_cocitation(cfg: EngineConfig, min_shared: int | None = None) -> str:
    """Doc co-citation pairs (stages/graph.cocitation_pairs): doc pairs
    sharing >= min_shared capped entity links — the bipartite projection
    over the same ccands relation as the co-occurrence edges (the unused
    pairs CTE is pruned by DuckDB)."""
    from ahrd_ray.stages.graph import COCITE_MIN_SHARED

    ms = COCITE_MIN_SHARED if min_shared is None else min_shared
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + f"""
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(count(*) AS BIGINT) AS n_shared
FROM ccands a JOIN ccands b ON a.cand_ord = b.cand_ord AND a.doc_id < b.doc_id
GROUP BY 1, 2
HAVING count(*) >= {ms}"""
    )


def sql_kcore(cfg: EngineConfig, k: int | None = None, iters: int | None = None) -> str:
    """k-core of the DOC co-citation graph (stages/graph.kcore_nodes):
    iterative peel unrolled ``iters`` rounds (fixpoint reached far earlier;
    extra rounds are no-ops — the kg_components precedent), then each
    survivor's in-core degree.  Builds on the same cocite relation as
    sql_cocitation."""
    from ahrd_ray.stages.graph import COCITE_MIN_SHARED, KCORE_ITERS, KCORE_K

    kk = KCORE_K if k is None else k
    ni = KCORE_ITERS if iters is None else iters
    ctes = [
        *_cands_prefix(cfg),
        cte_valid_dedup(),
        _cte_cooccur_pairs(cfg),
        f"""cocite AS MATERIALIZED (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM ccands a JOIN ccands b ON a.cand_ord = b.cand_ord AND a.doc_id < b.doc_id
  GROUP BY 1, 2
  HAVING count(*) >= {COCITE_MIN_SHARED}
)""",
        """edges AS MATERIALIZED (
  SELECT doc_a AS src, doc_b AS dst FROM cocite
  UNION ALL SELECT doc_b, doc_a FROM cocite
)""",
        "alive0 AS MATERIALIZED (SELECT DISTINCT src AS node FROM edges)",
    ]
    for i in range(1, ni + 1):
        # AS MATERIALIZED: each round references the previous alive set
        # twice — without it DuckDB inlines the chain exponentially (fd
        # exhaustion re-scanning the parquet per inlined reference)
        ctes.append(
            f"""alive{i} AS MATERIALIZED (
  SELECT e.dst AS node FROM edges e
  JOIN alive{i - 1} s ON s.node = e.src
  JOIN alive{i - 1} d ON d.node = e.dst
  GROUP BY e.dst HAVING count(*) >= {kk}
)"""
        )
    return (
        _with(*ctes)
        + f"""
SELECT e.dst AS node, CAST(count(*) AS BIGINT) AS core_deg
FROM edges e
JOIN alive{ni} s ON s.node = e.src
JOIN alive{ni} d ON d.node = e.dst
GROUP BY e.dst"""
    )


def sql_q5_revenue() -> str:
    """TPC-H Q5 shape (stages/generic.q5_local_supplier_revenue):
    intra-nation customer/supplier revenue by nation, one region, one
    order year — quantized-unit sum so the hash matches bit-exactly."""
    from ahrd_ray.stages.generic import Q5_DATE_HI, Q5_DATE_LO, Q5_REGION

    return f"""SELECT n.n_name, {_qsum('l.l_extendedprice * (1.0 - l.l_discount)')} AS revenue
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey AND s.s_nationkey = c.c_nationkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
WHERE r.r_name = '{Q5_REGION}'
  AND o.o_orderdate >= TIMESTAMP '{Q5_DATE_LO}'
  AND o.o_orderdate < TIMESTAMP '{Q5_DATE_HI}'
GROUP BY n.n_name"""


def sql_lineitem_profile() -> str:
    """Column profile (stages/generic.lineitem_profile): per profiled
    column, exact rows/nulls/distincts/min/max — one UNION ALL branch per
    column."""
    from ahrd_ray.stages.generic import PROFILE_COLS

    branches = [
        f"""SELECT '{c}' AS col, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(*) - count({c}) AS BIGINT) AS n_nulls,
       CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct,
       CAST(min({c}) AS DOUBLE) AS min_v, CAST(max({c}) AS DOUBLE) AS max_v
FROM lineitem"""
        for c in PROFILE_COLS
    ]
    return "\nUNION ALL\n".join(branches)


def sql_moving_frame() -> str:
    """ROWS-frame window sums (stages/generic.moving_frame_sums)."""
    return f"""SELECT event_id, user_id,
       sum(CAST(floor(value * {QUANT!r} + 0.5) AS BIGINT)) OVER w AS frame_sum_units,
       CAST(count(*) OVER w AS BIGINT) AS frame_n
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)"""


def sql_winner_delta(cfg: EngineConfig) -> str:
    """Snapshot-diff oracle (pipelines/kg.winner_delta): the full winners
    chain runs TWICE — once over ``documents`` and once over the mutated
    snapshot (texts swapped within (doc_id XOR 1) pairs, ids/langs fixed),
    with the B chain's doc-dependent CTEs mechanically renamed ``*_b``.
    Corpus-level CTEs (vocab, catalog, aliases, attrs) are swap-invariant
    and shared.  A partner-equality shortcut is NOT valid: the synthetic
    match-score generator hashes doc_id into e_rank/match_score (the
    re-crawl analogue of fresh alignment scores), so snapshot B must be
    scored for real on both sides."""
    import re

    doc_dep = [
        "doc_tokens", "candidates", "vcands", "dcands", "fcands", "totals",
        "cum", "token_scores", "topk", "doc_high", "filtered_ts",
        "cand_tok_agg", "scored", "elig2", "winners",
    ]

    def rename_b(s: str) -> str:
        s = re.sub(r"\bdocuments\b", "docs_b", s)
        for n in doc_dep:
            s = re.sub(rf"\b{n}\b", f"{n}_b", s)
        return s

    docs_b = """docs_b AS (
  SELECT a.doc_id, coalesce(b.text, a.text) AS text, a.lang
  FROM documents a
  LEFT JOIN documents b ON b.doc_id = xor(a.doc_id, CAST(1 AS BIGINT))
)"""
    chain_b = [
        rename_b(c)
        for c in (
            cte_doc_tokens(),
            cte_candidates(),
            cte_valid_dedup(),
            cte_scoring(cfg),
            cte_winners(restrict_annotated=False),
        )
    ]
    return (
        _with(
            *_cands_prefix(cfg),
            cte_valid_dedup(),
            cte_attrs(),
            cte_scoring(cfg),
            cte_winners(restrict_annotated=False),
            docs_b,
            *chain_b,
        )
        + """
SELECT a.doc_id, a.cand_id AS old_cand_id, w.cand_id AS new_cand_id
FROM winners a
JOIN winners_b w ON w.doc_id = a.doc_id
WHERE coalesce(a.cand_id, '') != coalesce(w.cand_id, '')"""
    )


def sql_attr_vote(cfg: EngineConfig) -> str:
    """Neighbor-vote attribute completion (stages/graph.attr_vote): over
    the kNN entity graph (sql_link_pred's chain), unlabeled nodes take the
    majority attribute of their labeled neighbors; tie-break votes DESC,
    attr ASC.  Labels come from the FULL attr map joined to the catalog
    (the engine's broadcast ctx.attrs), not the vcands-semi-joined
    attrs_present."""
    from ahrd_ray.stages.graph import LINKPRED_NEIGHBOR_CAP

    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), cte_attrs(), _cte_cooccur_pairs(cfg))
        + f""",
sides AS (
  SELECT cand_a AS node, cand_b AS nb, n_docs FROM pairs
  UNION ALL SELECT cand_b, cand_a, n_docs FROM pairs
),
capped AS (
  SELECT node, nb FROM (
    SELECT node, nb, row_number() OVER (
        PARTITION BY node ORDER BY n_docs DESC, nb ASC) AS rn
    FROM sides
  ) WHERE rn <= {LINKPRED_NEIGHBOR_CAP}
),
knn AS (
  SELECT DISTINCT least(node, nb) AS cand_a, greatest(node, nb) AS cand_b
  FROM capped
),
ksides AS (
  SELECT cand_a AS node, cand_b AS nb FROM knn
  UNION ALL SELECT cand_b, cand_a FROM knn
),
node_attrs AS (
  SELECT DISTINCT c.cand_ord AS node, a.attr
  FROM catalog c JOIN attrs_all a ON a.cand_short = c.cand_short
),
votes AS (
  SELECT s.node, na.attr, CAST(count(*) AS BIGINT) AS votes
  FROM ksides s
  JOIN node_attrs na ON na.node = s.nb
  WHERE s.node NOT IN (SELECT node FROM node_attrs)
  GROUP BY 1, 2
)
SELECT node, attr AS pred_attr, votes FROM (
  SELECT *, row_number() OVER (
      PARTITION BY node ORDER BY votes DESC, attr ASC) AS rn
  FROM votes
) WHERE rn = 1"""
    )


def sql_personalized_pagerank(cfg: EngineConfig, iters: int | None = None) -> str:
    """Seeded-teleport PageRank (stages/graph.personalized_pagerank):
    sql_pagerank's unrolled integer arithmetic with r0 / teleport restricted
    to the seed set (node % PPR_SEED_MOD == 0)."""
    from ahrd_ray.stages.graph import (
        PPR_SEED_MOD,
        PR_DAMP_DEN,
        PR_DAMP_NUM,
        PR_ITERS,
        PR_UNIT,
    )

    ni = PR_ITERS if iters is None else iters
    teleport = (PR_DAMP_DEN - PR_DAMP_NUM) * PR_UNIT // PR_DAMP_DEN
    ctes = [
        *_cands_prefix(cfg),
        cte_valid_dedup(),
        _cte_cooccur_pairs(cfg),
        """edges AS (
  SELECT cand_a AS src, cand_b AS dst FROM pairs
  UNION ALL SELECT cand_b, cand_a FROM pairs
)""",
        "deg AS (SELECT src AS node, count(*) AS deg FROM edges GROUP BY 1)",
        f"""r0 AS (SELECT node,
  CAST(CASE WHEN node % {PPR_SEED_MOD} = 0 THEN {PR_UNIT} ELSE 0 END AS BIGINT) AS r
FROM deg)""",
    ]
    for k in range(1, ni + 1):
        ctes.append(
            f"""r{k} AS (
  SELECT e.dst AS node,
         CAST(CASE WHEN e.dst % {PPR_SEED_MOD} = 0 THEN {teleport} ELSE 0 END AS BIGINT)
         + CAST(sum(({PR_DAMP_NUM} * (r.r // d.deg)) // {PR_DAMP_DEN}) AS BIGINT) AS r
  FROM edges e
  JOIN r{k - 1} r ON r.node = e.src
  JOIN deg d ON d.node = e.src
  GROUP BY e.dst
)"""
        )
    return _with(*ctes) + f"\nSELECT node, r AS rank_units FROM r{ni}"


def sql_quarantine(cfg: EngineConfig) -> str:
    """Quarantine-channel oracle (sources/external.quarantine_candidate_table
    over write_corrupt_fixture): the fixture's defects are pure functions of
    doc_id, so the flagged (line, reason) rows reconstruct from documents +
    the catalog CTE."""
    from ahrd_ray.sources.external import QUAR_MOD, QUAR_UNKNOWN_ID

    t = "chr(9)"
    good_tail = (
        f"{t} || '1e-05' || {t} || '50.0' || {t} || '1' || {t} || '5' || {t} || '1' || {t} || '4'"
    )
    bad_tail = (
        f"{t} || 'bogus' || {t} || '50.0' || {t} || '1' || {t} || '5' || {t} || '1' || {t} || '4'"
    )
    return (
        _with(*_cands_prefix(cfg))
        + f""",
qdocs AS (SELECT doc_id, doc_id % {QUAR_MOD} AS m FROM documents)
SELECT CAST(doc_id AS VARCHAR) || {t} || 'corrupt' AS line, 'columns' AS reason
FROM qdocs WHERE m = 0
UNION ALL
SELECT CAST(doc_id AS VARCHAR) || {t} || '{QUAR_UNKNOWN_ID}' || {good_tail}, 'unknown_accession'
FROM qdocs WHERE m = 1
UNION ALL
SELECT CAST(q.doc_id AS VARCHAR) || {t} || c.cand_id || {bad_tail}, 'bad_number'
FROM qdocs q
JOIN catalog c ON c.cand_ord = q.doc_id % (SELECT count(*) FROM part)
WHERE q.m = 2"""
    )


def sql_bucketed_orders() -> str:
    """Co-bucketed join oracle (stages/bucketed.bucketed_orders_per_customer):
    plain relational semantics — the bucketing is pure physical layout."""
    return f"""SELECT c.c_custkey, c.c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o.o_totalprice * {QUANT!r} + 0.5) AS BIGINT)) AS BIGINT)
         AS sum_price_units
FROM customer c JOIN orders o ON o.o_custkey = c.c_custkey
GROUP BY 1, 2"""


def sql_funnel() -> str:
    """Funnel conversion oracle (stages/generic.funnel_steps)."""
    from ahrd_ray.stages.generic import FUNNEL_STEPS, FUNNEL_WINDOW_MIN

    s1, s2, s3 = FUNNEL_STEPS
    w = f"INTERVAL {FUNNEL_WINDOW_MIN} MINUTE"
    return f"""WITH f1 AS (
  SELECT user_id, min(ts) AS t1 FROM events WHERE event_type = '{s1}' GROUP BY 1
),
f2 AS (
  SELECT e.user_id, min(e.ts) AS t2 FROM events e
  JOIN f1 ON f1.user_id = e.user_id AND e.ts > f1.t1 AND e.ts <= f1.t1 + {w}
  WHERE e.event_type = '{s2}' GROUP BY 1
),
f3 AS (
  SELECT e.user_id, min(e.ts) AS t3 FROM events e
  JOIN f2 ON f2.user_id = e.user_id AND e.ts > f2.t2 AND e.ts <= f2.t2 + {w}
  WHERE e.event_type = '{s3}' GROUP BY 1
)
SELECT f1.user_id,
       CAST(1 + (f2.user_id IS NOT NULL)::INT + (f3.user_id IS NOT NULL)::INT AS BIGINT)
         AS steps_completed
FROM f1
LEFT JOIN f2 ON f2.user_id = f1.user_id
LEFT JOIN f3 ON f3.user_id = f1.user_id"""


def sql_entity_timeline(cfg: EngineConfig) -> str:
    """Node-level temporal provenance (stages/graph.entity_timeline) over
    the same capped ccands relation as the co-occurrence edges."""
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + """
SELECT cand_ord, CAST(min(doc_id) AS BIGINT) AS first_doc,
       CAST(max(doc_id) AS BIGINT) AS last_doc,
       CAST(count(*) AS BIGINT) AS n_docs
FROM ccands GROUP BY 1"""
    )


def sql_above_avg_orders() -> str:
    """Correlated-subquery oracle (stages/generic.above_avg_orders):
    decorrelated, integer cross-multiplied — no division anywhere."""
    return f"""WITH u AS (
  SELECT o_orderkey, o_custkey,
         CAST(floor(o_totalprice * {QUANT!r} + 0.5) AS BIGINT) AS price_units
  FROM orders
),
pc AS (
  SELECT o_custkey AS custkey, sum(price_units) AS sum_units,
         CAST(count(*) AS BIGINT) AS n_orders
  FROM u GROUP BY 1
)
SELECT u.o_orderkey, u.o_custkey, u.price_units
FROM u JOIN pc ON pc.custkey = u.o_custkey
WHERE u.price_units * pc.n_orders > pc.sum_units"""


def sql_price_histogram() -> str:
    """Equi-width histogram oracle (stages/generic.price_histogram)."""
    from ahrd_ray.stages.generic import HIST_BIN_WIDTH

    return f"""SELECT CAST(floor(o_totalprice / {HIST_BIN_WIDTH!r}) * {HIST_BIN_WIDTH!r} AS DOUBLE) AS bin_lo,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders GROUP BY 1"""


def sql_bfs_reach(cfg: EngineConfig, depth: int | None = None) -> str:
    """Bounded multi-source BFS (stages/graph.bfs_reach): the engine's
    per-round min-fold unrolled ``depth`` times over the co-occurrence
    edge list — identical bounded fixed point."""
    from ahrd_ray.stages.graph import BFS_DEPTH, BFS_SEED_MOD

    depth = BFS_DEPTH if depth is None else depth
    ctes = [
        *_cands_prefix(cfg),
        cte_valid_dedup(),
        _cte_cooccur_pairs(cfg),
        """edges AS MATERIALIZED (
  SELECT cand_a AS src, cand_b AS dst FROM pairs
  UNION ALL SELECT cand_b, cand_a FROM pairs
)""",
        f"d0 AS MATERIALIZED (SELECT cand_ord AS node, 0 AS dist"
        f" FROM catalog WHERE cand_ord % {BFS_SEED_MOD} = 0)",
    ]
    for k in range(1, depth + 1):
        # AS MATERIALIZED: each round references the previous distance
        # table twice — same CTE-inlining hazard as sql_entity_components
        ctes.append(
            f"""d{k} AS MATERIALIZED (
  SELECT node, MIN(dist) AS dist FROM (
    SELECT node, dist FROM d{k - 1}
    UNION ALL
    SELECT e.dst AS node, l.dist + 1 FROM d{k - 1} l JOIN edges e ON e.src = l.node
  ) GROUP BY node
)"""
        )
    return (
        _with(*ctes)
        + f"\nSELECT node, CAST(dist AS BIGINT) AS dist FROM d{depth}"
    )


def sql_cdc_merge() -> str:
    """CDC snapshot compaction oracle (stages/generic.cdc_merge): global
    last-writer-wins per payload key, tombstoned keys absent."""
    from ahrd_ray.stages.generic import CDC_TOMBSTONE

    return f"""SELECT k, last_event_id, last_value, last_ts FROM (
  SELECT CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT) AS k,
         event_id AS last_event_id, value AS last_value, ts AS last_ts,
         event_type,
         row_number() OVER (
           PARTITION BY CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT)
           ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1 AND event_type <> '{CDC_TOMBSTONE}'"""


def sql_scd2_history() -> str:
    """SCD type-2 oracle (generic.scd2_history): per-key LEAD over
    (ts, event_id) gives each version's closing time; tombstones close
    intervals but emit no row."""
    from ahrd_ray.stages.generic import CDC_TOMBSTONE

    return f"""SELECT k, event_id, value, valid_from, valid_to,
       CAST(CASE WHEN valid_to IS NULL THEN 1 ELSE 0 END AS BIGINT)
         AS is_current
FROM (
  SELECT CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT) AS k,
         event_id, value, event_type, ts AS valid_from,
         lead(ts) OVER (
           PARTITION BY CAST(regexp_extract(props, '"k": ([0-9]+)', 1) AS BIGINT)
           ORDER BY ts, event_id) AS valid_to
  FROM events WHERE props LIKE '%"k": %'
) WHERE event_type <> '{CDC_TOMBSTONE}'"""


def sql_char_stats() -> str:
    """Char-frequency concentration oracle (stages/textstats.char_stats):
    all-integer, so exact.  ``string_split(text, '')`` yields [''] for an
    empty string — the ch <> '' guard drops it, so empty docs emit no row
    on either side."""
    return """WITH chars AS (
  SELECT doc_id, unnest(string_split(text, '')) AS ch FROM documents
), cc AS (
  SELECT doc_id, ch, CAST(count(*) AS BIGINT) AS c
  FROM chars WHERE ch <> '' GROUP BY doc_id, ch
)
SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_chars,
       CAST(count(*) AS BIGINT) AS n_distinct_chars,
       CAST(sum(c * c) AS BIGINT) AS sum_sq,
       CAST(max(c) AS BIGINT) AS top_char_count
FROM cc GROUP BY doc_id"""


def sql_degree_hist(cfg: EngineConfig) -> str:
    """Log2-binned degree histogram oracle (stages/graph.degree_hist):
    bin via the binary digit count — integer-exact, no float log."""
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + """,
ends AS (
  SELECT cand_a AS node FROM pairs
  UNION ALL SELECT cand_b FROM pairs
),
deg AS (
  SELECT node, CAST(count(*) AS BIGINT) AS degree FROM ends GROUP BY node
)
SELECT CAST(CAST(1 AS BIGINT) << (length(bin(degree)) - 1) AS BIGINT) AS bin_lo,
       CAST(count(*) AS BIGINT) AS n_nodes
FROM deg GROUP BY 1"""
    )


def sql_mention_coverage(cfg: EngineConfig) -> str:
    """Span-union coverage oracle (stages/graph.mention_coverage): the
    same gaps-and-islands fold in window SQL — running max of span_end,
    island break where span_start exceeds it, exclusive-end lengths.
    All-integer.  Docs with zero mentions appear with zeros (LEFT JOIN)."""
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup())
        + """,
marked AS MATERIALIZED (
  SELECT doc_id, span_start, span_end, cand_ord,
         max(span_end) OVER (
           PARTITION BY doc_id
           ORDER BY span_start, span_end, cand_ord
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_max
  FROM dcands
),
isl AS MATERIALIZED (
  SELECT doc_id, span_start, span_end,
         sum(CASE WHEN prev_max IS NULL OR span_start > prev_max
                  THEN 1 ELSE 0 END) OVER (
           PARTITION BY doc_id
           ORDER BY span_start, span_end, cand_ord
           ROWS UNBOUNDED PRECEDING) AS island
  FROM marked
),
per_island AS (
  SELECT doc_id, island,
         max(span_end) - min(span_start) AS ilen,
         count(*) AS c
  FROM isl GROUP BY doc_id, island
),
cov AS (
  SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_spans,
         CAST(sum(ilen) AS BIGINT) AS covered_chars
  FROM per_island GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(cov.n_spans, 0) AS n_spans,
       coalesce(cov.covered_chars, 0) AS covered_chars,
       CAST(length(d.text) AS BIGINT) AS n_chars
FROM documents d LEFT JOIN cov USING (doc_id)"""
    )


def sql_events_cube() -> str:
    """Full-CUBE oracle (stages/generic.events_cube): the rollup's sets
    plus the per-hour marginal."""
    return f"""WITH b AS (
  SELECT event_type, CAST(hour(ts) AS BIGINT) AS hr, value FROM events
)
SELECT coalesce(event_type, 'ALL') AS event_type,
       coalesce(CAST(hr AS VARCHAR), 'ALL') AS hr,
       CAST(count(*) AS BIGINT) AS n,
       {_qsum('value')} AS sum_value
FROM b
GROUP BY CUBE (event_type, hr)"""


def sql_page_inlinks() -> str:
    """Page-level in-degree truth re-derived arithmetically from
    `documents` (stages/webstats.page_inlinks parses the SAME targets out
    of the anchor href bytes)."""
    t_mult, t_step, t_mod = (
        spec.LINK_TARGET_MULT,
        spec.LINK_TARGET_STEP,
        spec.LINK_TARGET_MOD,
    )
    vals = ", ".join(f"({j})" for j in range(1, spec.LINK_K + 1))
    return f"""WITH js(j) AS (VALUES {vals}),
t AS (
  SELECT (doc_id * {t_mult} + j * {t_step}) % {t_mod} AS page_id
  FROM documents CROSS JOIN js
)
SELECT page_id, CAST(count(*) AS BIGINT) AS n_inlinks
FROM t GROUP BY page_id"""


def sql_redirect_resolve(max_hops: int = 8) -> str:
    """Rewrite-chain resolution truth: ``max_hops`` single steps unrolled
    (stages/webstats.redirect_resolve runs the same fixpoint as
    log2(max_hops) pointer-doubling self-joins over pointers PARSED from
    the html bytes; this side re-derives the pointers arithmetically from
    spec.redirect_target).  Each step follows the redirect of the current
    page while one exists AND its target is a corpus doc_id, counting
    hops; chain heads and dangling targets freeze the row."""
    blk, dmod, dres, doff = (
        spec.REDIRECT_BLOCK,
        spec.REDIRECT_DANGLE_MOD,
        spec.REDIRECT_DANGLE_RES,
        spec.REDIRECT_DANGLE_OFF,
    )
    nxt_of = (
        lambda p: f"CASE WHEN {p} % {blk} = 0 THEN NULL "
        f"WHEN {p} % {dmod} = {dres} THEN {p} + {doff} "
        f"ELSE {p} - 1 END"
    )
    step_ctes = []
    prev = "s0"
    for k in range(1, max_hops + 1):
        cur = f"s{k}"
        step_ctes.append(
            f"""{cur} AS (
  SELECT {prev}.doc_id,
         CASE WHEN m.doc_id IS NULL THEN {prev}.p ELSE m.doc_id END AS p,
         {prev}.h + CASE WHEN m.doc_id IS NULL THEN 0 ELSE 1 END AS h
  FROM {prev} LEFT JOIN documents m
    ON m.doc_id = ({nxt_of(prev + '.p')})
)"""
        )
        prev = cur
    joined = ",\n".join(step_ctes)
    return f"""WITH s0 AS (
  SELECT doc_id, doc_id AS p, 0 AS h FROM documents
),
{joined}
SELECT doc_id, CAST(p AS BIGINT) AS final_id, CAST(h AS BIGINT) AS hops
FROM {prev}"""


def sql_assortativity(cfg: EngineConfig) -> str:
    """Strength-assortativity truth (stages/graph.assortativity): both edge
    orientations, strength = summed n_docs per endpoint, HUGEINT
    sufficient statistics, the same sqrt-free fixed-order double
    division."""
    return (
        _with(*_cands_prefix(cfg), cte_valid_dedup(), _cte_cooccur_pairs(cfg))
        + """,
edges2 AS (
  SELECT cand_a AS a, cand_b AS b, n_docs FROM pairs
  UNION ALL SELECT cand_b, cand_a, n_docs FROM pairs
),
deg AS (SELECT a AS node, CAST(sum(n_docs) AS BIGINT) AS d FROM edges2 GROUP BY 1),
j AS (
  SELECT da.d AS dx, db.d AS dy
  FROM edges2 JOIN deg da ON da.node = edges2.a JOIN deg db ON db.node = edges2.b
),
s AS (
  SELECT CAST(count(*) AS HUGEINT) AS m,
         CAST(sum(dx) AS HUGEINT) AS sx,
         CAST(sum(dx * dx) AS HUGEINT) AS sxx,
         CAST(sum(dx * dy) AS HUGEINT) AS sxy
  FROM j
)
SELECT CAST(m AS BIGINT) AS m, CAST(sx AS BIGINT) AS sx,
       CAST(sxx AS BIGINT) AS sxx, CAST(sxy AS BIGINT) AS sxy,
       CAST(m * sxy - sx * sx AS DOUBLE) / CAST(m * sxx - sx * sx AS DOUBLE)
         AS assortativity
FROM s"""
    )


def sql_readability() -> str:
    """Flesch reading-ease truth (stages/textstats.readability): the same
    RE2 counts via regexp_extract_all and the identical three fixed-order
    double ops."""
    return r"""WITH c AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_words,
         CAST(len(regexp_extract_all(text, '[.!?]+')) AS BIGINT) AS n_sentences,
         CAST(len(regexp_extract_all(text, '[aeiouyAEIOUY]+')) AS BIGINT)
           AS n_vowel_groups
  FROM documents
)
SELECT doc_id, n_words, n_sentences, n_vowel_groups,
       206.835
         - 1.015 * (CAST(n_words AS DOUBLE)
                    / CAST(greatest(n_sentences, 1) AS DOUBLE))
         - 84.6 * (CAST(n_vowel_groups AS DOUBLE)
                   / CAST(greatest(n_words, 1) AS DOUBLE)) AS flesch
FROM c"""


def sql_crawl_schedule() -> str:
    """Recrawl-frontier truth (stages/webstats.crawl_schedule): the
    unrolled host-PageRank oracle as a CTE, staleness re-derived from the
    warc_ts arithmetic, the same int64 rank x age product, row_number
    top-K per host with the (priority DESC, doc_id ASC) tie order."""
    from ahrd_ray.stages.webstats import CRAWL_TOP_K

    return f"""WITH pr AS ({sql_host_pagerank()}),
pages AS (
  SELECT doc_id,
         'h' || CAST(doc_id % {spec.LINK_HOST_MOD} AS VARCHAR) || '.example.org'
           AS host,
         greatest(1, date_diff('second',
                               TIMESTAMP '2025-01-01 00:00:00' + to_seconds(doc_id),
                               TIMESTAMP '2025-03-01 00:00:00')) AS age_sec
  FROM documents
),
j AS (
  SELECT p.host, p.doc_id,
         pr.rank_units * p.age_sec AS priority_units,
         row_number() OVER (
           PARTITION BY p.host
           ORDER BY pr.rank_units * p.age_sec DESC, p.doc_id ASC
         ) AS rn
  FROM pages p JOIN pr ON pr.host = p.host
)
SELECT host, doc_id, CAST(priority_units AS BIGINT) AS priority_units
FROM j WHERE rn <= {CRAWL_TOP_K}"""


def sql_host_dup_rate() -> str:
    """Per-host paragraph-duplicate rate (stages/webstats.host_dup_rate):
    the paragraph keep-first oracle rolled up per host with the same
    fixed-order double division."""
    return f"""WITH pd AS ({sql_paragraph_dedup()})
SELECT 'h' || CAST(doc_id % {spec.LINK_HOST_MOD} AS VARCHAR) || '.example.org'
         AS host,
       CAST(count(*) AS BIGINT) AS n_windows,
       CAST(sum(CASE WHEN keep THEN 0 ELSE 1 END) AS BIGINT) AS n_dups,
       CAST(sum(CASE WHEN keep THEN 0 ELSE 1 END) AS DOUBLE)
         / CAST(count(*) AS DOUBLE) AS dup_ratio
FROM pd GROUP BY 1"""


def sql_wav_energy() -> str:
    """Windowed frame-energy truth (stages/multimodal.wav_energy): the
    same synthetic-waveform arithmetic as sql_audio_stats, grouped into
    WAV_WIN-sample windows with exact int64 sums of squares."""
    from ahrd_ray.stages.multimodal import WAV_WIN

    return f"""WITH s AS (
  SELECT doc_id,
         unnest(generate_series(0, CAST(99 + doc_id % 50 AS BIGINT))) AS i
  FROM documents
),
a AS (
  SELECT doc_id, i // {WAV_WIN} AS win_idx,
         (doc_id * 7 + i * 13) % 512 - 256 AS amp
  FROM s
)
SELECT doc_id, CAST(win_idx AS BIGINT) AS win_idx,
       CAST(count(*) AS BIGINT) AS n_samples,
       CAST(sum(amp * amp) AS BIGINT) AS energy
FROM a GROUP BY doc_id, win_idx"""


def sql_ahash_groups() -> str:
    """Perceptual-dedup buckets over the exact aHash (multimodal
    .ahash_groups): the sql_ahash raster arithmetic grouped by hash value,
    singletons dropped."""
    return f"""WITH ah AS ({sql_ahash()})
SELECT ahash_hi, ahash_lo, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min(doc_id) AS BIGINT) AS rep_doc
FROM ah GROUP BY 1, 2 HAVING count(*) > 1"""


def sql_ahash_dedup_docs() -> str:
    """Perceptual-dedup survivors: min doc_id per exact-aHash bucket."""
    return f"""WITH ah AS ({sql_ahash()})
SELECT CAST(min(doc_id) AS BIGINT) AS doc_id FROM ah GROUP BY ahash_hi, ahash_lo"""


def sql_wav_autocorr() -> str:
    """Autocorrelation truth (stages/multimodal.wav_autocorr): the same
    synthetic-waveform arithmetic as sql_audio_stats, one self-join per
    lag, exact int64 product sums."""
    from ahrd_ray.stages.multimodal import AUTOCORR_LAGS

    vals = ", ".join(f"({l})" for l in AUTOCORR_LAGS)
    return f"""WITH s AS (
  SELECT doc_id,
         unnest(generate_series(0, CAST(99 + doc_id % 50 AS BIGINT))) AS i
  FROM documents
),
a AS (SELECT doc_id, i, (doc_id * 7 + i * 13) % 512 - 256 AS amp FROM s),
lags(lag) AS (VALUES {vals})
SELECT x.doc_id, CAST(lag AS BIGINT) AS lag,
       CAST(count(*) AS BIGINT) AS n_terms,
       CAST(sum(x.amp * y.amp) AS BIGINT) AS autocorr
FROM lags CROSS JOIN a x
JOIN a y ON y.doc_id = x.doc_id AND y.i = x.i + lag
GROUP BY 1, 2"""


def sql_anchor_text_index() -> str:
    """Anchor-text-index truth (stages/webstats.anchor_text_index): target
    arithmetic + the anchor text the synth writes (the slot number)."""
    t_mult, t_step, t_mod = (
        spec.LINK_TARGET_MULT,
        spec.LINK_TARGET_STEP,
        spec.LINK_TARGET_MOD,
    )
    vals = ", ".join(f"({j})" for j in range(1, spec.LINK_K + 1))
    return f"""WITH js(j) AS (VALUES {vals}),
a AS (
  SELECT (doc_id * {t_mult} + j * {t_step}) % {t_mod} AS page_id,
         CAST(j AS VARCHAR) AS anchor_text
  FROM documents CROSS JOIN js
)
SELECT page_id, anchor_text, CAST(count(*) AS BIGINT) AS n
FROM a GROUP BY page_id, anchor_text"""


def sql_events_ntile() -> str:
    """ntile window truth (stages/generic.events_ntile): native ntile over
    the same total (value, event_id) order."""
    from ahrd_ray.stages.generic import NTILE_N

    return f"""SELECT event_id, user_id,
       CAST(ntile({NTILE_N}) OVER (
         PARTITION BY user_id ORDER BY value, event_id
       ) AS BIGINT) AS quartile
FROM events"""


def sql_edge_growth(cfg: EngineConfig) -> str:
    """KG growth-curve truth (stages/graph.edge_growth): the edge_timespan
    relation bucketed by first_doc decile with the identical integer
    boundary expression."""
    from ahrd_ray.stages.graph import GROWTH_BUCKETS

    return f"""WITH et AS ({sql_edge_timespan(cfg)}),
m AS (SELECT max(doc_id) + 1 AS span FROM documents)
SELECT CAST((et.first_doc * {GROWTH_BUCKETS}) // m.span AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_edges
FROM et, m GROUP BY 1"""


def sql_entity_cards(cfg: EngineConfig) -> str:
    """Entity-card serving table (stages/graph.entity_cards): the
    fact_support, degree and top_neighbor oracles joined entity-wise, the
    catalog attached twice (own identity + best neighbor's)."""
    return f"""WITH fs AS ({sql_fact_support(cfg)}),
deg AS ({sql_cooccur_degree(cfg)}),
tn AS ({sql_top_neighbor(cfg)}),
cat AS ({sql_catalog(cfg)})
SELECT fs.cand_ord, cat.cand_id, cat.description,
       fs.n_docs AS support_docs, fs.n_mentions, fs.first_seen, fs.last_seen,
       deg.degree, deg.w_docs,
       tn.best_neighbor, nc.cand_id AS best_neighbor_id,
       tn.n_docs AS neighbor_docs
FROM fs
JOIN cat USING (cand_ord)
LEFT JOIN deg ON deg.node = fs.cand_ord
LEFT JOIN tn ON tn.node = fs.cand_ord
LEFT JOIN cat nc ON nc.cand_ord = tn.best_neighbor"""


def sql_g711_energy(law: str) -> str:
    """Windowed frame-energy truth over G.711-companded WAV payloads
    (stages/multimodal.wav_energy(law=...)): the synthetic sample range is
    [-256, 255], so the exact compand->expand quantization is baked as a
    512-row VALUES mapping generated from the SAME LUTs the codec uses —
    the minhash replicate-the-constants oracle pattern."""
    import numpy as np

    from ahrd_ray.functions.codecs import g711_compress, g711_expand
    from ahrd_ray.stages.multimodal import WAV_WIN

    s = np.arange(-256, 256, dtype=np.int64)
    d = g711_expand(g711_compress(s.astype(np.int16), law), law).astype(np.int64)
    rows = ", ".join(f"({int(a)}, {int(b)})" for a, b in zip(s, d))
    return f"""WITH m(s, d) AS (VALUES {rows}),
samp AS (
  SELECT doc_id,
         unnest(generate_series(0, CAST(99 + doc_id % 50 AS BIGINT))) AS i
  FROM documents
),
a AS (
  SELECT samp.doc_id, samp.i // {WAV_WIN} AS win_idx, m.d AS amp
  FROM samp JOIN m ON m.s = (samp.doc_id * 7 + samp.i * 13) % 512 - 256
)
SELECT doc_id, CAST(win_idx AS BIGINT) AS win_idx,
       CAST(count(*) AS BIGINT) AS n_samples,
       CAST(sum(amp * amp) AS BIGINT) AS energy
FROM a GROUP BY doc_id, win_idx"""


def sql_temperature_sample() -> str:
    """Temperature-sampling truth (stages/textstats.temperature_sample,
    tau = 1/2): tempered weight floor(sqrt(n * 2^20)) is exact on both
    sides (the argument is < 2^53 and IEEE sqrt is correctly rounded with
    a >half-ulp margin to the next integer at these magnitudes; Python
    uses isqrt), the argmax language is selected by the SAME integer key
    (w << 40) // n with lang ASC tie-break, and membership is the shared
    multiplicative-hash filter."""
    from ahrd_ray.stages.generic import SAMPLE_MOD, SAMPLE_MULT
    from ahrd_ray.stages.textstats import TS_KEY_SHIFT, TS_SCALE

    return f"""WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
w AS (
  SELECT lang, CAST(n AS HUGEINT) AS n,
         CAST(floor(sqrt(CAST(n AS DOUBLE) * {TS_SCALE})) AS HUGEINT) AS w
  FROM c
),
m AS (
  SELECT n AS cm, w AS wm FROM w
  ORDER BY (w * CAST({1 << TS_KEY_SHIFT} AS HUGEINT)) // n DESC, lang ASC
  LIMIT 1
)
SELECT d.doc_id, d.lang
FROM documents d JOIN w ON d.lang = w.lang CROSS JOIN m
WHERE (CAST(d.doc_id AS HUGEINT) * {SAMPLE_MULT}) % {SAMPLE_MOD}
      < (CAST({SAMPLE_MOD} AS HUGEINT) * w.w * m.cm) // (w.n * m.wm)"""


def sql_robots_filter() -> str:
    """Robots-gating truth (stages/webstats.robots_filter): host class
    k = doc_id % LINK_HOST_MOD; class k%3==0 carries Disallow /p/ +
    Allow /p/1 (longest-match -> allowed iff the doc_id's decimal string
    starts with '1'), the other classes allow everything.  The Ray side
    actually PARSES the robots.txt texts; this re-derives the decisions
    arithmetically."""
    from ahrd_ray.sources.spec import LINK_HOST_MOD

    return f"""SELECT doc_id,
  'h' || CAST(doc_id % {LINK_HOST_MOD} AS VARCHAR) || '.example.org' AS host,
  CAST(CASE WHEN (doc_id % {LINK_HOST_MOD}) % 3 = 0
        THEN CASE WHEN CAST(doc_id AS VARCHAR) LIKE '1%' THEN 1 ELSE 0 END
        ELSE 1 END AS BIGINT) AS allowed
FROM documents"""
