"""External candidate-table source — the file form of reference operator S3.

The reference's core input is a pre-computed tabular similarity file with a
configurable separator, configurable column positions, a comment-line skip
regex, ``validateDouble`` number repair and an error on unknown accessions
(``/root/reference/src/ahrd/model/BlastResult.java:194-227``, defaults
``Settings.java:210-218``, validateDouble ``BlastResult.java:91-95``).
Round 1 could only *synthesize* candidates in the mention detector; this
module lets a user bring their own candidate/similarity table:

* :class:`CandidateTableFormat` — separator + 0-based column positions +
  comment regex (the ``Settings`` parser block analogue);
* :func:`read_candidate_table` — ``ray.data.read_text`` -> vectorized
  per-batch parse -> cand_id resolution against the broadcast catalog
  (raises on unknown ids, BlastResult.java:208-211) -> distributed
  doc-length join against ``documents`` (the "hits -> query proteins" hash
  join, raises on unknown doc ids);
* :func:`validate_double` — M7: ``"e-10"`` -> ``"1e-10"``.

Deviation (documented): the reference derives HSP order from file reading
order; Ray blocks drop global file order, so ingest_seq is taken from the
span_start column (SURVEY.md §7.4 "carry an explicit ingest_seq").

The generated fixture (:func:`write_external_fixture`) renders the SAME
candidate set the mention detector emits, so the parsed table and everything
scored from it share the existing DuckDB oracles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ahrd_ray.config import EngineConfig


@dataclass(frozen=True)
class CandidateTableFormat:
    """Separator / column-position config (Settings.java:210-218 analogue)."""

    sep: str = "\t"
    # matched with Java Matcher.matches() semantics: the WHOLE line must
    # match (the pattern is wrapped as ^(?:...)$ before use), mirroring
    # BlastResult.java:205-207 — an unanchored "#" therefore skips only
    # all-'#' lines, while the default "#.*" skips lines starting with '#'
    comment_regex: str | None = "#.*"
    col_doc_id: int = 0
    col_cand_id: int = 1
    col_e_value: int = 2
    col_match_score: int = 3
    col_span_start: int = 4
    col_span_end: int = 5
    col_cand_start: int = 6
    col_cand_end: int = 7

    @property
    def n_cols(self) -> int:
        return 1 + max(
            self.col_doc_id,
            self.col_cand_id,
            self.col_e_value,
            self.col_match_score,
            self.col_span_start,
            self.col_span_end,
            self.col_cand_start,
            self.col_cand_end,
        )


def validate_double(values: np.ndarray) -> np.ndarray:
    """M7 (BlastResult.java:91-95): prepend "1" to strings starting with
    e/E so shorthand scientific notation like ``e-10`` parses as ``1e-10``."""
    out = values.astype(object)
    for i, v in enumerate(out):
        if v and v[0] in ("e", "E"):
            out[i] = "1" + v
    return out.astype(np.float64)


class CandidateLineParser:
    """Stateful map_batches stage: text lines -> typed candidate rows.

    The catalog (cand_id -> ord/source/valid) is fetched once per worker
    process from the broadcast ref (``per_worker``); parsing is Arrow
    split + numpy column plucks."""

    def __init__(
        self,
        catalog_ref,
        cfg: EngineConfig,
        fmt: CandidateTableFormat,
        expect_source: str | None = None,
    ):
        from ahrd_ray.stages.score import get_broadcast

        bundle = get_broadcast(catalog_ref)
        a = bundle.arrays
        self.ord_of = {cid: i for i, cid in enumerate(a.cand_id)}
        self.source_of = np.asarray(a.source, dtype=object)
        self.cfg = cfg
        self.fmt = fmt
        self.expect_source = expect_source
        import re

        # full-line anchoring (Java Matcher.matches()) — compile up front so
        # a bad user pattern fails at construction, not per batch
        self.comment = (
            re.compile(f"^(?:{fmt.comment_regex})$") if fmt.comment_regex else None
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        lines = batch["text"]
        if self.comment is not None:
            keep = pc.invert(pc.match_substring_regex(lines, self.comment.pattern))
            lines = lines.filter(keep) if isinstance(lines, pa.ChunkedArray) else pc.filter(lines, keep)
        keep2 = pc.invert(pc.equal(lines, ""))
        lines = lines.filter(keep2) if isinstance(lines, pa.ChunkedArray) else pc.filter(lines, keep2)
        if len(lines) == 0:
            return _parsed_schema().empty_table()
        cells = pc.split_pattern(lines, pattern=self.fmt.sep)
        if isinstance(cells, pa.ChunkedArray):
            cells = cells.combine_chunks()
        ncol = pc.list_value_length(cells).to_numpy(zero_copy_only=False)
        if (ncol < self.fmt.n_cols).any():
            bad = int(np.nonzero(ncol < self.fmt.n_cols)[0][0])
            raise ValueError(
                f"candidate table line has {ncol[bad]} columns, need >= {self.fmt.n_cols}"
            )

        def col(i: int) -> np.ndarray:
            return pc.list_element(cells, i).to_numpy(zero_copy_only=False)

        f = self.fmt
        doc_id = col(f.col_doc_id).astype(np.int64)
        cand_id = col(f.col_cand_id)
        # validateDouble repairs only the e-value column — the reference
        # parses the bit score with a plain Double.parseDouble
        # (BlastResult.java:213 vs 218)
        e_rank = validate_double(col(f.col_e_value))
        match_score = col(f.col_match_score).astype(np.float64)
        span_start = col(f.col_span_start).astype(np.int64)
        span_end = col(f.col_span_end).astype(np.int64)
        cand_start = col(f.col_cand_start).astype(np.int64)
        cand_end = col(f.col_cand_end).astype(np.int64)

        ords = np.fromiter(
            (self.ord_of.get(c, -1) for c in cand_id), dtype=np.int64, count=len(cand_id)
        )
        if (ords < 0).any():
            unknown = cand_id[ords < 0][:3]
            raise ValueError(f"unknown candidate accession(s): {list(unknown)}")
        if self.expect_source is not None:
            srcs = self.source_of[ords]
            bad = srcs != self.expect_source
            if bad.any():
                raise ValueError(
                    f"candidate table declared source {self.expect_source!r} but "
                    f"accession(s) {list(cand_id[bad][:3])} belong to "
                    f"{sorted(set(srcs[bad]))} (each per-source result file may "
                    "only carry hits of its own database, Settings.java:472-479)"
                )
        return pa.table(
            {
                "doc_id": pa.array(doc_id, type=pa.int64()),
                "source": pa.array(self.source_of[ords], type=pa.string()),
                "cand_ord": pa.array(ords, type=pa.int64()),
                "e_rank": pa.array(e_rank, type=pa.float64()),
                "match_score": pa.array(match_score, type=pa.float64()),
                "span_start": pa.array(span_start, type=pa.int64()),
                "span_end": pa.array(span_end, type=pa.int64()),
                "cand_start": pa.array(cand_start, type=pa.int64()),
                "cand_end": pa.array(cand_end, type=pa.int64()),
                "ingest_seq": pa.array(span_start, type=pa.int64()),
                "spart": pa.array(
                    (doc_id % self.cfg.num_score_partitions).astype(np.int32),
                    type=pa.int32(),
                ),
            }
        )


def _parsed_schema() -> pa.Schema:
    return pa.schema(
        [
            ("doc_id", pa.int64()),
            ("source", pa.string()),
            ("cand_ord", pa.int64()),
            ("e_rank", pa.float64()),
            ("match_score", pa.float64()),
            ("span_start", pa.int64()),
            ("span_end", pa.int64()),
            ("cand_start", pa.int64()),
            ("cand_end", pa.int64()),
            ("ingest_seq", pa.int64()),
            ("spart", pa.int32()),
        ]
    )


def read_candidate_table(
    path: str,
    sf_dir: str,
    catalog_ref,
    cfg: EngineConfig,
    fmt: CandidateTableFormat | None = None,
    expect_source: str | None = None,
) -> ray.data.Dataset:
    """Parse an external candidate table and attach doc_len by a distributed
    join against ``documents`` (left join + per-batch null check = the
    reference's unknown-query-accession error, without materialization)."""
    parsed = _parse_candidate_file(path, catalog_ref, cfg, fmt, expect_source)
    return _attach_doc_lens(parsed, sf_dir)


def _parse_candidate_file(
    path: str,
    catalog_ref,
    cfg: EngineConfig,
    fmt: CandidateTableFormat | None,
    expect_source: str | None,
) -> ray.data.Dataset:
    from ahrd_ray.stages.score import per_worker

    fmt = fmt or CandidateTableFormat()
    lines = ray.data.read_text(path, file_extensions=["csv", "tsv", "txt"])
    return lines.map_batches(
        per_worker(CandidateLineParser, catalog_ref, cfg, fmt, expect_source),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _attach_doc_lens(parsed: ray.data.Dataset, sf_dir: str) -> ray.data.Dataset:
    def doc_lens(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "doc_len": pc.utf8_length(batch["text"]).cast(pa.int64()),
            }
        )

    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(doc_lens, batch_format="pyarrow")

    from ahrd_ray.stages.partitioning import join_parts

    joined = parsed.join(
        docs,
        "left_outer",
        num_partitions=join_parts(1),
        on=("doc_id",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def check(df: pd.DataFrame) -> pd.DataFrame:
        if df["doc_len"].isna().any():
            bad = df.loc[df["doc_len"].isna(), "doc_id"].head(3).tolist()
            raise ValueError(f"candidate table references unknown doc_id(s): {bad}")
        return df.astype({"doc_len": "int64"})

    return joined.map_batches(check, batch_format="pandas")


def read_candidate_tables(
    tables: dict[str, tuple[str, CandidateTableFormat | None]],
    sf_dir: str,
    catalog_ref,
    cfg: EngineConfig,
) -> ray.data.Dataset:
    """Per-source candidate files, each with its OWN parser format.

    The reference configures one result file + parser block PER blast
    database (Settings.java:472-491: separator, column positions, comment
    regex all per-db); this is that form — ``tables`` maps source name ->
    (path, format or None for the default).  Every parsed accession must
    resolve to the file's declared source (a db's result file only carries
    hits of that db); violations raise.  The per-file PARSED streams union
    BEFORE the doc-length join, so the pipeline holds exactly one join (and
    one aggregator pool) however many source files there are — per-file
    joins would chain and wedge small clusters.
    """
    parts = [
        _parse_candidate_file(path, catalog_ref, cfg, fmt, expect_source=src)
        for src, (path, fmt) in sorted(tables.items())
    ]
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return _attach_doc_lens(out, sf_dir)


# ---------------------------------------------------------------------------
# Deterministic fixture writer (test/bench corpus only)
# ---------------------------------------------------------------------------

# bump when the candidate-generation spec changes so a stale /tmp fixture
# from an older code version can never be read back
FIXTURE_VERSION = "3"


def _fixture_dir(sf_dir: str) -> str:
    import hashlib

    tag = hashlib.sha1(f"{sf_dir}:v{FIXTURE_VERSION}".encode()).hexdigest()[:12]
    return f"/tmp/ahrd_ray_external/{tag}"


def write_external_fixture(ctx) -> str:
    """Render the mention detector's candidate table as a tab-separated text
    file set (one line per candidate link, '#' comment lines interleaved,
    e-values in shorthand scientific form where the mantissa is 1 — the M7
    path).  Distributed write; cached per sf_dir."""
    out_dir = _fixture_dir(ctx.sf_dir)
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    from ahrd_ray.pipelines.kg import candidates_dataset

    bundle = ctx.bundle
    ids_ref = ray.put(np.asarray(bundle.arrays.cand_id, dtype=object))

    def to_lines(batch: pa.Table) -> pa.Table:
        from ahrd_ray.stages.score import get_broadcast

        ids = get_broadcast(ids_ref)
        df = batch.to_pandas()
        out = ["# ahrd_ray external candidate fixture"]
        cand = ids[df["cand_ord"].to_numpy()]
        for i in range(len(df)):
            e = repr(float(df["e_rank"].iloc[i]))
            if e.startswith("1e"):
                e = e[1:]  # shorthand form -> exercises validate_double (M7)
            out.append(
                "\t".join(
                    [
                        str(int(df["doc_id"].iloc[i])),
                        str(cand[i]),
                        e,
                        repr(float(df["match_score"].iloc[i])),
                        str(int(df["span_start"].iloc[i])),
                        str(int(df["span_end"].iloc[i])),
                        str(int(df["cand_start"].iloc[i])),
                        str(int(df["cand_end"].iloc[i])),
                    ]
                )
            )
        return pa.table({"line": pa.array(out, type=pa.string())})

    from ahrd_ray.sources.textsink import LineTextDatasink

    cands = candidates_dataset(ctx)
    cands.map_batches(to_lines, batch_format="pyarrow").write_datasink(
        LineTextDatasink(out_dir)
    )
    with open(done, "w", encoding="utf-8") as fh:
        fh.write("ok\n")
    return out_dir


# ---------------------------------------------------------------------------
# Quarantine channel: malformed lines routed to a side table, not a crash
# ---------------------------------------------------------------------------

# corrupt-fixture cycle: doc_id % QUAR_MOD selects the injected defect
# (0 = truncated line, 1 = unknown accession, 2 = unparseable e-value,
# 3+ = well-formed line that must NOT be flagged)
QUAR_MOD = 7
QUAR_UNKNOWN_ID = "zz|P0|XX"  # no catalog source is named 'zz'


def write_corrupt_fixture(ctx) -> str:
    """Deterministic corrupt candidate table: one line per document whose
    defect (or well-formedness) is a pure function of doc_id, so the
    quarantine oracle reconstructs the flagged lines from ``documents``
    alone.  Well-formed lines borrow a REAL accession (catalog ordinal
    doc_id % |catalog|) to prove clean rows pass the quarantine untouched."""
    out_dir = _fixture_dir(ctx.sf_dir) + "_corrupt"
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir
    ids_ref = ray.put(np.asarray(ctx.bundle.arrays.cand_id, dtype=object))
    n_cat = ctx.bundle.n

    def to_lines(batch: pa.Table) -> pa.Table:
        from ahrd_ray.stages.score import get_broadcast

        ids = get_broadcast(ids_ref)
        d = batch["doc_id"].to_numpy()
        out = ["# corrupt fixture"]
        for doc in d:
            doc = int(doc)
            m = doc % QUAR_MOD
            if m == 0:
                out.append(f"{doc}\tcorrupt")
            elif m == 1:
                out.append(f"{doc}\t{QUAR_UNKNOWN_ID}\t1e-05\t50.0\t1\t5\t1\t4")
            elif m == 2:
                out.append(f"{doc}\t{ids[doc % n_cat]}\tbogus\t50.0\t1\t5\t1\t4")
            else:
                out.append(f"{doc}\t{ids[doc % n_cat]}\t1e-05\t50.0\t1\t5\t1\t4")
        return pa.table({"line": pa.array(out, type=pa.string())})

    from ahrd_ray.sources.textsink import LineTextDatasink

    docs = ray.data.read_parquet(
        f"{ctx.sf_dir}/documents.parquet", columns=["doc_id"]
    )
    docs.map_batches(to_lines, batch_format="pyarrow").write_datasink(
        LineTextDatasink(out_dir)
    )
    with open(done, "w", encoding="utf-8") as fh:
        fh.write("ok\n")
    return out_dir


class QuarantineParser:
    """Per-line triage of a candidate table: instead of the strict parser's
    first-error crash, every malformed line lands in a (line, reason) side
    table — the production ingest pattern that keeps one bad shard from
    failing a 100-TB load.  Reasons, by check order: ``columns`` (too few
    fields), ``bad_number`` (unparseable e-value / score / span), and
    ``unknown_accession`` (cand_id absent from the catalog).  Well-formed
    lines produce NO output here — the strict parser path consumes them."""

    def __init__(self, catalog_ref, fmt: CandidateTableFormat):
        from ahrd_ray.stages.score import get_broadcast

        bundle = get_broadcast(catalog_ref)
        self.known = frozenset(bundle.arrays.cand_id)
        self.fmt = fmt
        import re

        self.comment = (
            re.compile(f"^(?:{fmt.comment_regex})$") if fmt.comment_regex else None
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pandas as pd

        lines = batch["text"]
        if self.comment is not None:
            keep = pc.invert(pc.match_substring_regex(lines, self.comment.pattern))
            lines = lines.filter(keep) if isinstance(lines, pa.ChunkedArray) else pc.filter(lines, keep)
        keep2 = pc.invert(pc.equal(lines, ""))
        lines = lines.filter(keep2) if isinstance(lines, pa.ChunkedArray) else pc.filter(lines, keep2)
        if len(lines) == 0:
            return pa.table(
                {"line": pa.array([], type=pa.string()),
                 "reason": pa.array([], type=pa.string())}
            )
        f = self.fmt
        cells = pc.split_pattern(lines, pattern=f.sep)
        if isinstance(cells, pa.ChunkedArray):
            cells = cells.combine_chunks()
        ncol = pc.list_value_length(cells).to_numpy(zero_copy_only=False)
        line_np = lines.to_numpy(zero_copy_only=False)
        reasons = np.full(len(line_np), "", dtype=object)
        short = ncol < f.n_cols
        reasons[short] = "columns"
        wide = ~short
        if wide.any():
            idx = np.nonzero(wide)[0]
            sub = cells.take(pa.array(idx))

            def col(i: int) -> np.ndarray:
                return pc.list_element(sub, i).to_numpy(zero_copy_only=False)

            ev = col(f.col_e_value).astype(object)
            fix = np.char.startswith(ev.astype(str), "e") | np.char.startswith(
                ev.astype(str), "E"
            )
            ev[fix] = "1" + ev[fix]
            bad_num = pd.to_numeric(pd.Series(ev), errors="coerce").isna().to_numpy()
            for c in (f.col_match_score, f.col_span_start, f.col_span_end,
                      f.col_cand_start, f.col_cand_end):
                bad_num |= pd.to_numeric(
                    pd.Series(col(c)), errors="coerce"
                ).isna().to_numpy()
            unknown = ~pd.Series(col(f.col_cand_id)).isin(self.known).to_numpy()
            reasons[idx[bad_num]] = "bad_number"
            reasons[idx[~bad_num & unknown]] = "unknown_accession"
        flag = reasons != ""
        return pa.table(
            {
                "line": pa.array(line_np[flag], type=pa.string()),
                "reason": pa.array(reasons[flag].astype(str), type=pa.string()),
            }
        )


def quarantine_candidate_table(
    path: str,
    catalog_ref,
    fmt: CandidateTableFormat | None = None,
) -> ray.data.Dataset:
    """(line, reason) quarantine table of a candidate file — one streaming
    pass, each worker holding the broadcast catalog id set once."""
    from ahrd_ray.stages.score import per_worker

    fmt = fmt or CandidateTableFormat()
    # file_extensions: skip the _DONE marker, like _parse_candidate_file
    return ray.data.read_text(path, file_extensions=["csv", "tsv", "txt"]).map_batches(
        per_worker(QuarantineParser, catalog_ref, fmt), batch_format="pyarrow"
    )
