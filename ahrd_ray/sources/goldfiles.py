"""File-based gold-reference and competitor-annotation sources — the file
forms of reference operators S10/S11.

Round 2 derived gold sets from the corpus text and competitors from internal
candidates; a user with their own labels could not feed them in.  This
module mirrors the external-candidate reader pattern for both inputs:

* Gold references FASTA (``ReferenceDescription.java:17-47``): a record's
  HEADER line carries ``>ACC description...``; body (sequence) lines are
  ignored.  Accession = first single-space-separated token; description =
  the header with EVERY occurrence of the accession string removed (Java
  ``String.replace`` replace-all semantics), trimmed.  An optional
  description blacklist empties failing descriptions; an optional filter
  chain then rewrites survivors; gold tokens = ``tokenize(description,
  references_token_blacklist)``.
* Competitor annotations (``Blast2GoAnnot.java:15-31``): tab-separated
  lines of (accession, GO-accession, description) where the GO accession
  (column 1) is ignored; rows with an empty accession or description are
  dropped; per accession, annotations are DEDUPLICATED BY DESCRIPTION
  (Blast2GoAnnot.equals/hashCode); evaluation tokens = ``tokenize(
  description, [])`` — no token blacklist
  (``EvaluationScoreCalculator.java:217-229``).

Accessions map to corpus docs as decimal ``doc_id`` strings.

Deviations (documented):
* A gold record whose accession is not a decimal integer errors (the
  corpus keys docs by int64 doc_id; the reference keys by opaque string).
* Annotation lines with fewer than three tab cells error, matching the
  reference's crash (Java ``split`` drops trailing empties, so
  ``vals[2]`` throws); an empty third CELL (two adjacent tabs) is the
  row-skip path.
* The per-record accession-removal ``replace`` runs as a Python loop —
  each record needs its own literal pattern, and the gold-reference set
  is a curated side input (one short record per labeled doc), not the
  corpus-scale stream.

Scale shape: both readers are ``ray.data.read_text`` -> vectorized batch
parse (Arrow regex/split kernels for the blacklist, filter and tokenize
chains) -> per-doc token-set strings, hash-partitioned by doc_id where a
global property (annotation dedup) is needed.  Token-set strings are safe
to space-join ("|"-join across annotations) because the tokenizer splits
on whitespace and '|' (``TOKEN_SPLITTER_REGEX``).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ahrd_ray.stages.partitioning import n_hash_parts

# fixture spec constants — the oracle SQL (oracle.sql_eval_scores_file) is
# generated from these same values
GOLD_FIXTURE_CHARS = 60
ANNOT1_CHARS = 20
ANNOT2_FROM = 20
ANNOT2_CHARS = 25


def _as_array(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        return col.combine_chunks()
    return col


def _match_any(col: pa.Array, patterns: tuple[str, ...]) -> np.ndarray:
    """Vector OR of ``re.search`` over the column — one
    ``match_substring_regex`` C kernel per pattern (M1 blacklist semantics,
    DescriptionScoreCalculator.java:25-33)."""
    hit = np.zeros(len(col), dtype=bool)
    for p in patterns:
        hit |= pc.match_substring_regex(col, p).to_numpy(zero_copy_only=False)
    return hit


def _apply_filters(col: pa.Array, patterns: tuple[str, ...]) -> pa.Array:
    """M2 filter chain, vectorized: every match of every filter becomes a
    single space, then whitespace runs condense and the result is trimmed
    (DescriptionScoreCalculator.java:45-55)."""
    out = col
    for p in patterns:
        out = pc.replace_substring_regex(out, pattern=p, replacement=" ")
    out = pc.replace_substring_regex(out, pattern=r"\s{2,}", replacement=" ")
    return pc.utf8_trim_whitespace(out)


def _token_pairs(
    texts: pa.Array, token_blacklist: tuple[str, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Exploded DISTINCT (row, token) pairs of the lowercased split
    (M3 tokenize over a column; optional M4 token blacklist)."""
    from ahrd_ray.config import TOKEN_SPLITTER_REGEX

    splits = pc.split_pattern_regex(pc.utf8_lower(texts), pattern=TOKEN_SPLITTER_REGEX)
    splits = _as_array(splits)
    lengths = pc.list_value_length(splits).to_numpy(zero_copy_only=False)
    flat = _as_array(splits.flatten())
    rows = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
    keep = flat.to_numpy(zero_copy_only=False) != ""
    if token_blacklist:
        keep &= ~_match_any(flat, token_blacklist)
    dd = pd.DataFrame(
        {"row": rows[keep], "token": flat.to_numpy(zero_copy_only=False)[keep]}
    ).drop_duplicates()
    return dd["row"].to_numpy(), dd["token"].to_numpy()


def _tokenset_strings(
    texts: pa.Array, token_blacklist: tuple[str, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (sorted space-joined token set, set size) — tokens never
    contain whitespace, so the join is reversible."""
    rows, toks = _token_pairs(texts, token_blacklist)
    n = len(texts)
    out = np.full(n, "", dtype=object)
    sizes = np.zeros(n, dtype=np.int64)
    if len(rows):
        frame = pd.DataFrame({"row": rows, "token": toks}).sort_values(
            ["row", "token"], kind="mergesort"
        )
        agg = frame.groupby("row")["token"].agg(" ".join)
        out[agg.index.to_numpy()] = agg.to_numpy()
        cnt = frame.groupby("row").size()
        sizes[cnt.index.to_numpy()] = cnt.to_numpy()
    return out, sizes


# ---------------------------------------------------------------------------
# S10 file form: gold references FASTA
# ---------------------------------------------------------------------------


class GoldReferenceParser:
    """map_batches callable: FASTA text lines -> (doc_id, gold, n_gold).
    Stateless beyond its pattern tuples, so an instance ships with the
    task."""

    def __init__(
        self,
        description_blacklist: tuple[str, ...] = (),
        description_filter: tuple[str, ...] = (),
        token_blacklist: tuple[str, ...] = (),
    ):
        import re

        # compile up front so a bad user pattern fails at construction
        for p in (*description_blacklist, *description_filter, *token_blacklist):
            re.compile(p)
        self.blacklist = tuple(description_blacklist)
        self.filters = tuple(description_filter)
        self.token_blacklist = tuple(token_blacklist)

    def __call__(self, batch: pa.Table) -> pa.Table:
        lines = _as_array(batch["text"])
        # header lines only — body/sequence lines are never read
        # (ReferenceDescription uses fastaData[0] exclusively)
        heads = lines.filter(pc.starts_with(lines, ">"))
        if len(heads) == 0:
            return _gold_schema().empty_table()
        entries = pc.utf8_slice_codeunits(heads, 1, None)
        # accession = first single-space token (java: split(" ")[0].trim())
        accs = pc.list_element(pc.split_pattern(entries, pattern=" ", max_splits=1), 0)
        acc_np = accs.to_numpy(zero_copy_only=False)
        try:
            doc_id = acc_np.astype(np.int64)
        except ValueError:
            bad = [a for a in acc_np[:200] if not str(a).lstrip("-").isdigit()][:3]
            raise ValueError(f"gold reference accession(s) not doc_ids: {bad}")
        # description = header minus EVERY occurrence of the accession,
        # trimmed — per-record literal pattern, hence the bounded loop
        ent_np = entries.to_numpy(zero_copy_only=False)
        desc = pa.array(
            [e.replace(a, "").strip() for e, a in zip(ent_np, acc_np)],
            type=pa.string(),
        )
        if self.blacklist:
            # failing descriptions become "" (empty gold set), they do NOT
            # drop the record (ReferenceDescription.java:31-36)
            failed = _match_any(desc, self.blacklist) | (
                desc.to_numpy(zero_copy_only=False) == ""
            )
            desc = pc.if_else(pa.array(failed), "", desc)
            if self.filters:
                desc = pc.if_else(pa.array(failed), desc, _apply_filters(desc, self.filters))
        gold, n_gold = _tokenset_strings(desc, self.token_blacklist)
        return pa.table(
            {
                "doc_id": pa.array(doc_id, type=pa.int64()),
                "gold": pa.array(gold, type=pa.string()),
                "n_gold": pa.array(n_gold, type=pa.int64()),
            }
        )


def _gold_schema() -> pa.Schema:
    return pa.schema(
        [("doc_id", pa.int64()), ("gold", pa.string()), ("n_gold", pa.int64())]
    )


def read_gold_references(
    path: str,
    description_blacklist: tuple[str, ...] = (),
    description_filter: tuple[str, ...] = (),
    token_blacklist: tuple[str, ...] = (),
) -> ray.data.Dataset:
    """Gold reference table (doc_id, gold, n_gold) from a FASTA file set."""
    lines = ray.data.read_text(path, file_extensions=["fasta", "fa", "txt"])
    parser = GoldReferenceParser(
        tuple(description_blacklist), tuple(description_filter), tuple(token_blacklist)
    )
    return lines.map_batches(parser, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# S11 file form: competitor .annot table
# ---------------------------------------------------------------------------


def _parse_annot_batch(batch: pa.Table) -> pa.Table:
    lines = _as_array(batch["text"])
    lines = lines.filter(pc.invert(pc.equal(lines, "")))
    if len(lines) == 0:
        return pa.schema([("doc_id", pa.int64()), ("adesc", pa.string())]).empty_table()
    cells = _as_array(pc.split_pattern(lines, pattern="\t"))
    ncol = pc.list_value_length(cells).to_numpy(zero_copy_only=False)
    if (ncol < 3).any():
        bad = int(np.nonzero(ncol < 3)[0][0])
        raise ValueError(
            f"annotation line has {ncol[bad]} tab cells, need >= 3 "
            "(accession, GO accession, description)"
        )
    accs = pc.utf8_trim_whitespace(pc.list_element(cells, 0)).to_numpy(
        zero_copy_only=False
    )
    desc = pc.utf8_trim_whitespace(pc.list_element(cells, 2)).to_numpy(
        zero_copy_only=False
    )
    keep = (accs != "") & (desc != "")  # Blast2GoAnnot.fromBlast2GoEntry row skip
    accs, desc = accs[keep], desc[keep]
    try:
        doc_id = accs.astype(np.int64)
    except ValueError:
        bad = [a for a in accs[:200] if not str(a).lstrip("-").isdigit()][:3]
        raise ValueError(f"annotation accession(s) not doc_ids: {bad}")
    return pa.table(
        {
            "doc_id": pa.array(doc_id, type=pa.int64()),
            "adesc": pa.array(desc, type=pa.string()),
        }
    )


def read_competitor_annots(path: str) -> ray.data.Dataset:
    """Competitor annotations aggregated per doc: (doc_id, anns) where
    ``anns`` joins each DISTINCT-description annotation's space-joined
    evaluation-token set with '|'.

    The description dedup is per accession (Blast2GoAnnot equality), so
    hash-partitioning by doc_id co-locates everything each group needs —
    the dedup + tokenize runs inside one map_groups with no second
    shuffle."""
    lines = ray.data.read_text(path, file_extensions=["annot", "tsv", "txt"])
    parsed = lines.map_batches(_parse_annot_batch, batch_format="pyarrow")
    n_parts = n_hash_parts()

    def add_part(b: pa.Table) -> pa.Table:
        p = (b["doc_id"].to_numpy() % n_parts).astype(np.int32)
        return b.append_column("dpart", pa.array(p, type=pa.int32()))

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        dd = df.drop_duplicates(["doc_id", "adesc"]).sort_values(
            ["doc_id", "adesc"], kind="mergesort"
        )
        # evaluation tokenization: NO token blacklist (Blast2GoAnnot ctor)
        tstr, _ = _tokenset_strings(pa.array(dd["adesc"].to_numpy(dtype=object)))
        dd = dd.assign(tstr=tstr)
        agg = dd.groupby("doc_id", as_index=True)["tstr"].agg("|".join)
        return pd.DataFrame(
            {"doc_id": agg.index.to_numpy().astype(np.int64), "anns": agg.to_numpy()}
        )

    return (
        parsed.map_batches(add_part, batch_format="pyarrow")
        .groupby("dpart")
        .map_groups(per_doc, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Evaluator over file-based gold + competitors
# ---------------------------------------------------------------------------


def eval_scores_file(
    ctx,
    gold_path: str,
    annot_path: str | None = None,
    gold_kwargs: dict | None = None,
) -> ray.data.Dataset:
    """Per-doc evaluation like ``evaluate.eval_scores`` but with gold sets
    from a references FASTA and ``best_comp_score`` additionally maxing over
    file competitors (EvaluationScoreCalculator.java:199-229: best of the
    unchanged per-source candidates AND every Blast2GoAnnot).

    Shuffle shape: the four inputs (docs keys, per-doc candidate-ord lists,
    file gold, file competitors) are role-tagged, UNIONed and hash-
    partitioned by doc_id in ONE groupby — the same pattern as the as-of
    join — instead of a chain of three hash joins (chained join aggregator
    pools wedge small clusters and triple the exchange count)."""
    from ahrd_ray.pipelines.kg import candidates_dataset
    from ahrd_ray.stages.evaluate import (
        eval_lists_partition,
        fbeta_vec,
        score_ord_kinds,
    )
    from ahrd_ray.stages.score import get_broadcast

    catalog_ref = ctx.catalog_ref
    cfg = ctx.cfg
    has_anns = annot_path is not None
    n_parts = n_hash_parts()

    _COLS = [
        "doc_id",
        "side",
        "winner_ord",
        "topk_ords",
        "unchanged_ords",
        "gold",
        "n_gold",
        "anns",
        "dpart",
    ]

    def _tag(df: pd.DataFrame, side: int) -> pd.DataFrame:
        out = df.copy()
        out["side"] = np.int8(side)
        for c, default in (
            ("winner_ord", np.int64(-1)),
            ("topk_ords", ""),
            ("unchanged_ords", ""),
            ("gold", ""),
            ("n_gold", np.int64(0)),
            ("anns", ""),
        ):
            if c not in out.columns:
                out[c] = default
        out["dpart"] = (out["doc_id"] % n_parts).astype("int32")
        return out[_COLS]

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        bundle = get_broadcast(catalog_ref)
        return _tag(eval_lists_partition(df, bundle.arrays, cfg), 1)

    # materialized before the union, so the groupby's blocking sort runs
    # alone: next to live reads and a join's aggregator actors its tasks
    # can wait for CPUs forever (stages/evaluate.py eval_scores)
    lists = (
        candidates_dataset(ctx, from_pages=False)
        .groupby("spart")
        .map_groups(fn, batch_format="pandas")
        .materialize()
    )
    docs = ray.data.read_parquet(
        f"{ctx.sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(lambda df: _tag(df, 0), batch_format="pandas")
    gold = read_gold_references(gold_path, **(gold_kwargs or {})).map_batches(
        lambda df: _tag(df, 2), batch_format="pandas"
    )
    unioned = docs.union(lists).union(gold)
    if has_anns:
        unioned = unioned.union(
            read_competitor_annots(annot_path).map_batches(
                lambda df: _tag(df, 3), batch_format="pandas"
            )
        )

    _OUT_DTYPES = {
        "doc_id": "int64",
        "eval_score": "float64",
        "best_comp_score": "float64",
        "delta": "float64",
        "highest_possible": "float64",
    }

    def assemble(g: pd.DataFrame) -> pd.DataFrame:
        """One hash partition: re-join the role-tagged rows per doc_id."""
        side = g["side"].to_numpy()
        base = g.loc[side == 0, ["doc_id"]]
        if not len(base):
            # typed empty frame: dtype-less empties trigger executor
            # schema-mismatch warnings downstream
            return pd.DataFrame({c: pd.Series([], dtype=d) for c, d in _OUT_DTYPES.items()})
        l = g.loc[side == 1, ["doc_id", "winner_ord", "topk_ords", "unchanged_ords"]]
        gd = g.loc[side == 2, ["doc_id", "gold", "n_gold"]]
        df = base.merge(l, on="doc_id", how="left").merge(gd, on="doc_id", how="left")
        an = g.loc[side == 3, ["doc_id", "anns"]]
        df = df.merge(an, on="doc_id", how="left")
        return finish(df)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        bundle = get_broadcast(catalog_ref)
        n = len(df)
        # explode the file gold strings back to (row, token) pairs
        gvals = pa.array(df["gold"].fillna("").to_numpy(dtype=object), type=pa.string())
        gsplit = _as_array(pc.split_pattern(gvals, pattern=" "))
        glens = pc.list_value_length(gsplit).to_numpy(zero_copy_only=False)
        gflat = gsplit.flatten().to_numpy(zero_copy_only=False)
        grows = np.repeat(np.arange(n, dtype=np.int64), glens)
        gmask = gflat != ""
        gold_df = pd.DataFrame({"row": grows[gmask], "token": gflat[gmask]})
        n_gold = df["n_gold"].fillna(0).to_numpy(dtype=np.int64)

        scores = score_ord_kinds(df, bundle, gold_df, n_gold)
        e, best, hp = scores["e"], scores["best"], scores["hp"]

        if has_anns:
            # nested explode: anns -> annotation token strings -> tokens
            avals = pa.array(
                df["anns"].fillna("").to_numpy(dtype=object), type=pa.string()
            )
            alists = _as_array(pc.split_pattern(avals, pattern="|"))
            alens = pc.list_value_length(alists).to_numpy(zero_copy_only=False)
            flat_anns = _as_array(alists.flatten())
            row_of_ann = np.repeat(np.arange(n, dtype=np.int64), alens)
            tlists = _as_array(pc.split_pattern(flat_anns, pattern=" "))
            tlens = pc.list_value_length(tlists).to_numpy(zero_copy_only=False)
            flat_toks = tlists.flatten().to_numpy(zero_copy_only=False)
            aid = np.repeat(np.arange(len(flat_anns), dtype=np.int64), tlens)
            tmask = flat_toks != ""
            tokdf = pd.DataFrame(
                {
                    "aid": aid[tmask],
                    "row": row_of_ann[aid[tmask]],
                    "token": flat_toks[tmask],
                }
            )
            n_ev = np.bincount(aid[tmask], minlength=len(flat_anns)).astype(np.int64)
            if len(tokdf):
                m = tokdf.merge(gold_df, on=["row", "token"])
                tp_per = m.groupby("aid").size()
                a_idx = tp_per.index.to_numpy()
                f = fbeta_vec(
                    tp_per.to_numpy().astype(np.int64),
                    n_ev[a_idx].astype(np.float64),
                    n_gold[row_of_ann[a_idx]].astype(np.float64),
                )
                np.maximum.at(best, row_of_ann[a_idx], f)

        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(dtype=np.int64),
                "eval_score": e,
                "best_comp_score": best,
                "delta": e - best,
                "highest_possible": hp,
            }
        )

    return unioned.groupby("dpart").map_groups(assemble, batch_format="pandas")


# ---------------------------------------------------------------------------
# Deterministic fixtures (test/bench corpus only)
# ---------------------------------------------------------------------------

FIXTURE_VERSION = "1"


def _fixture_dir(sf_dir: str, kind: str) -> str:
    import hashlib

    tag = hashlib.sha1(f"{sf_dir}:{kind}:v{FIXTURE_VERSION}".encode()).hexdigest()[:12]
    return f"/tmp/ahrd_ray_goldfiles/{tag}"


def write_gold_fixture(sf_dir: str) -> str:
    """References FASTA: one record per doc — header ``>{doc_id}
    {text[:60]}`` plus a dummy sequence line (exercises body-skip).  The
    corpus text is verified single-line, so the header stays one line."""
    out_dir = _fixture_dir(sf_dir, "gold")
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir

    def to_lines(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        texts = pc.utf8_slice_codeunits(batch["text"], 0, GOLD_FIXTURE_CHARS)
        t_np = texts.to_numpy(zero_copy_only=False)
        out = []
        for d, t in zip(ids, t_np):
            out.append(f">{d} {t}")
            out.append("SEQWENCE")
        return pa.table({"line": pa.array(out, type=pa.string())})

    from ahrd_ray.sources.textsink import LineTextDatasink

    ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(to_lines, batch_format="pyarrow").write_datasink(
        LineTextDatasink(out_dir)
    )
    with open(done, "w", encoding="utf-8") as fh:
        fh.write("ok\n")
    return out_dir


def write_annot_fixture(sf_dir: str) -> str:
    """Competitor .annot: per doc three annotation lines — two sharing a
    description (exercises the dedup-by-description) plus a distinct one;
    every tenth doc adds a row with an empty description cell (exercises
    the Blast2GoAnnot row skip)."""
    out_dir = _fixture_dir(sf_dir, "annot")
    done = os.path.join(out_dir, "_DONE")
    if os.path.exists(done):
        return out_dir

    def to_lines(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy()
        a1 = pc.utf8_slice_codeunits(batch["text"], 0, ANNOT1_CHARS).to_numpy(
            zero_copy_only=False
        )
        a2 = pc.utf8_slice_codeunits(
            batch["text"], ANNOT2_FROM, ANNOT2_FROM + ANNOT2_CHARS
        ).to_numpy(zero_copy_only=False)
        out = []
        for d, x, y in zip(ids, a1, a2):
            out.append(f"{d}\tGO:0000001\t{x}")
            out.append(f"{d}\tGO:0000002\t{x}")  # duplicate description
            out.append(f"{d}\tGO:0000003\t{y}")
            if d % 10 == 0:
                out.append(f"{d}\tGO:0000004\t\t-")  # empty description cell
        return pa.table({"line": pa.array(out, type=pa.string())})

    from ahrd_ray.sources.textsink import LineTextDatasink

    ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(to_lines, batch_format="pyarrow").write_datasink(
        LineTextDatasink(out_dir)
    )
    with open(done, "w", encoding="utf-8") as fh:
        fh.write("ok\n")
    return out_dir
