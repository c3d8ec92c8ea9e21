"""Text export of the annotation table (reference operator W2).

``view/FastaOutputWriter.java:18-31`` writes one FASTA record per protein:
``>`` + accession, best-hit accession, quality code and description on the
header line, then the sequence.  Graft: one record per DOCUMENT — header
``>doc:<doc_id> <cand_id> <quality_code> <description>`` and the document
text as the body; docs without a winner get the reference's "Unknown
protein" description (``AbstractOutputWriter.java:50-57``) and an empty hit
accession.

The export is a distributed write (one shard per block, raw text sink — no
CSV quoting, so commas/quotes in text or descriptions pass through
verbatim) — never a driver-side loop.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

UNKNOWN_QUALITY = "---"


def _split_json_lines(payload: str) -> list[str]:
    """Split a pandas ``to_json(lines=True)`` payload into records on '\\n'
    ONLY.  ``str.splitlines()`` also splits on U+2028/U+2029/NEL/VT/FF,
    which ``to_json(force_ascii=False)`` leaves unescaped inside JSON
    strings — a description containing one would shear a record."""
    lines = payload.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def export_lines(ctx) -> ray.data.Dataset:
    """One row per output LINE (header, body alternating per doc)."""
    from ahrd_ray.pipelines import kg
    from ahrd_ray.sources import spec

    docs = ray.data.read_parquet(
        f"{ctx.sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    winners = kg.winners_dataset_fused(ctx).select_columns(
        ["doc_id", "cand_id", "quality_code", "description"]
    )
    from ahrd_ray.stages.partitioning import join_parts

    joined = docs.join(
        winners,
        "left_outer",
        num_partitions=join_parts(1),
        on=("doc_id",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def fmt(df: pd.DataFrame) -> pa.Table:
        cand = df["cand_id"].fillna("").astype(str)
        qual = df["quality_code"].fillna(UNKNOWN_QUALITY).astype(str)
        # a newline inside a description would split the header record in
        # two — normalize to spaces (documented deviation; the reference
        # writes the description verbatim but its descriptions are
        # single-line by construction)
        desc = (
            df["description"]
            .fillna(spec.UNKNOWN_DESC)
            .astype(str)
            .str.replace(r"[\r\n]+", " ", regex=True)
        )
        headers = (
            ">doc:"
            + df["doc_id"].astype(np.int64).astype(str)
            + " "
            + cand
            + " "
            + qual
            + " "
            + desc
        )
        lines = np.empty(2 * len(df), dtype=object)
        lines[0::2] = headers.to_numpy(dtype=object)
        lines[1::2] = df["text"].astype(str).to_numpy(dtype=object)
        return pa.table({"line": pa.array(lines, type=pa.string())})

    return joined.map_batches(fmt, batch_format="pandas")


def write_text_export(ctx, out_dir: str) -> str:
    """Distributed line-oriented write (W2 sink, raw text — no quoting)."""
    from ahrd_ray.sources.textsink import LineTextDatasink

    export_lines(ctx).write_datasink(LineTextDatasink(out_dir))
    return out_dir


def jsonl_export_lines(sf_dir: str) -> ray.data.Dataset:
    """documents -> one JSON object per line (doc_id, lang, text): the
    interchange format LLM corpora ship in.  pandas ``to_json`` is the
    C-vectorized serializer; JSON escaping makes embedded newlines/quotes
    in text lossless through the line sink."""
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )

    def fmt(df: pd.DataFrame) -> pa.Table:
        payload = df.to_json(orient="records", lines=True, force_ascii=False)
        return pa.table({"line": pa.array(_split_json_lines(payload), type=pa.string())})

    return docs.map_batches(fmt, batch_format="pandas")


def jsonl_roundtrip_docs(sf_dir: str, scratch: str | None = None) -> ray.data.Dataset:
    """Write the corpus as JSONL shards (one file per block, distributed),
    read it back with the Arrow JSON reader.  The registry oracle compares
    the round-trip against the source table — the lossless-ness gate for
    the JSONL sink, same contract as snk_compacted_docs."""
    import os
    import shutil

    from ahrd_ray.sources.textsink import LineTextDatasink

    scratch = scratch or f"/tmp/ahrd_ray_jsonl/{abs(hash(sf_dir)) % (1 << 32)}"
    shutil.rmtree(scratch, ignore_errors=True)
    jsonl_export_lines(sf_dir).write_datasink(
        LineTextDatasink(scratch, file_format="jsonl")
    )
    files = [
        os.path.join(scratch, f) for f in os.listdir(scratch) if f.endswith(".jsonl")
    ]
    return ray.data.read_json(files)


def csv_roundtrip_docs(sf_dir: str, scratch: str | None = None) -> ray.data.Dataset:
    """Write the corpus as CSV shards with FULL quoting (Arrow's writer
    quotes every field, so embedded commas/quotes/newlines in text survive),
    read it back with explicit column types.  The registry oracle compares
    the round-trip against the source table — the lossless-ness gate for
    the CSV sink, the same contract as snk_jsonl_docs (and the fix-class of
    the round-2 ADVICE on quoting_style="none" exports)."""
    import os
    import shutil

    import pyarrow.csv as pacsv

    scratch = scratch or f"/tmp/ahrd_ray_csv/{abs(hash(sf_dir)) % (1 << 32)}"
    shutil.rmtree(scratch, ignore_errors=True)
    docs = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    docs.write_csv(scratch)
    files = sorted(
        os.path.join(scratch, f) for f in os.listdir(scratch) if not f.startswith("_")
    )
    convert = pacsv.ConvertOptions(
        column_types={"doc_id": pa.int64(), "lang": pa.string(), "text": pa.string()}
    )
    return ray.data.read_csv(files, convert_options=convert)


# --- N-Triples sink --------------------------------------------------------
# The (subj, pred, obj) edge table serialized as W3C N-Triples lines — the
# interchange format a downstream KG consumer would actually load.  Subjects
# that are already IRIs (page urls) serialize verbatim; entity ids get the
# urn:ahrd: namespace; predicates swap the kg: prefix for urn:ahrd:; objects
# are always literals with the standard \\ \" \n \r \t escapes.  Round-trip
# (serialize -> raw-line sink -> read_text -> parse) is oracle-gated against
# the same SQL as kg_triples, so the escaping logic is what's under test.

_NT_ESCAPES = (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\r", "\\r"), ("\t", "\\t"))


def _nt_iri_of(col):
    """Vectorized subject IRI: urls pass through, entity ids get urn:ahrd:."""
    import pyarrow.compute as pc

    is_url = pc.starts_with(col, "http")
    pre = pc.if_else(is_url, "", "urn:ahrd:")
    return pc.binary_join_element_wise(pre, col, "")


def ntriples_lines(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    subj = _nt_iri_of(batch["subj"].combine_chunks().cast(pa.string()))
    pred = pc.binary_join_element_wise(
        "urn:ahrd:",
        pc.replace_substring_regex(
            batch["pred"].combine_chunks().cast(pa.string()), "^kg:", ""
        ),
        "",
    )
    obj = batch["obj"].combine_chunks().cast(pa.string())
    for raw, esc in _NT_ESCAPES:
        obj = pc.replace_substring(obj, raw, esc)
    n = len(batch)
    lit = pa.array(["<"] * n, type=pa.string())
    line = pc.binary_join_element_wise(
        lit, subj, "> <", pred, '> "', obj, '" .', ""
    )
    return pa.table({"line": line})


def parse_ntriples(lines) -> pa.Table:
    import pyarrow.compute as pc

    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    m = pc.extract_regex(
        lines, r'^<(?P<s>[^>]*)> <urn:ahrd:(?P<p>[^>]*)> "(?P<o>.*)" \.$'
    )
    subj = pc.replace_substring_regex(pc.struct_field(m, "s"), "^urn:ahrd:", "")
    pred = pc.binary_join_element_wise("kg:", pc.struct_field(m, "p"), "")
    obj = pc.struct_field(m, "o")
    # Sequential replaces cannot parse escapes left-to-right ("\\n" must
    # decode to backslash+n, not backslash+newline), so route the escaped
    # backslash through a sentinel first.  NUL cannot appear in a valid
    # N-Triples line (the serializer never emits one), so it is a safe
    # sentinel.
    obj = pc.replace_substring(obj, "\\\\", "\x00")
    obj = pc.replace_substring(obj, '\\"', '"')
    obj = pc.replace_substring(obj, "\\n", "\n")
    obj = pc.replace_substring(obj, "\\r", "\r")
    obj = pc.replace_substring(obj, "\\t", "\t")
    obj = pc.replace_substring(obj, "\x00", "\\")
    return pa.table({"subj": subj, "pred": pred, "obj": obj})


def ntriples_roundtrip(sf_dir: str, scratch: str | None = None) -> ray.data.Dataset:
    """kg_triples -> N-Triples shards -> read back -> parsed (subj,pred,obj).

    Distributed on both legs (one .nt file per block; read_text streams the
    shards); the registry oracle is sql_triples, so a single mis-escaped
    character fails the value hash."""
    import os
    import shutil

    from ahrd_ray.pipelines import kg
    from ahrd_ray.sources.textsink import LineTextDatasink

    scratch = scratch or f"/tmp/ahrd_ray_nt/{abs(hash(sf_dir)) % (1 << 32)}"
    shutil.rmtree(scratch, ignore_errors=True)
    triples = kg.kg_triples(kg.cached_context(sf_dir)).select_columns(["subj", "pred", "obj"])
    triples.map_batches(ntriples_lines, batch_format="pyarrow").write_datasink(
        LineTextDatasink(scratch, file_format="nt")
    )
    files = [os.path.join(scratch, f) for f in os.listdir(scratch) if f.endswith(".nt")]

    def parse(batch: pa.Table) -> pa.Table:
        return parse_ntriples(batch["text"])

    return ray.data.read_text(files).map_batches(parse, batch_format="pyarrow")


def cards_jsonl_roundtrip(sf_dir: str, scratch: str | None = None) -> ray.data.Dataset:
    """Entity cards -> JSONL shards -> read back: the SERVING-EXPORT gate.
    Unlike snk_jsonl_docs (a source-table identity), this sink is fed by a
    DERIVED pipeline (graph.entity_cards — joins + broadcast gathers), so
    the round-trip proves sinks compose losslessly with pipeline output:
    ISO-microsecond timestamps, nullable int graph fields and unicode
    descriptions all survive the line format.  The registry oracle is the
    entity-card oracle itself."""
    import os
    import shutil

    import pyarrow.compute as pc

    from ahrd_ray.sources.textsink import LineTextDatasink
    from ahrd_ray.stages.graph import entity_cards

    def fmt(df: pd.DataFrame) -> pa.Table:
        payload = df.to_json(
            orient="records",
            lines=True,
            force_ascii=False,
            date_format="iso",
            date_unit="us",
        )
        return pa.table({"line": pa.array(_split_json_lines(payload), type=pa.string())})

    scratch = scratch or f"/tmp/ahrd_ray_cards/{abs(hash(sf_dir)) % (1 << 32)}"
    shutil.rmtree(scratch, ignore_errors=True)
    entity_cards(sf_dir).map_batches(fmt, batch_format="pandas").write_datasink(
        LineTextDatasink(scratch, file_format="jsonl")
    )
    files = [
        os.path.join(scratch, f) for f in os.listdir(scratch) if f.endswith(".jsonl")
    ]
    back = ray.data.read_json(files)

    INT_COLS = [
        "cand_ord", "support_docs", "n_mentions", "degree", "w_docs",
        "best_neighbor", "neighbor_docs",
    ]
    TS_COLS = ["first_seen", "last_seen"]

    def fix_types(t: pa.Table) -> pa.Table:
        # the JSON reader infers doubles for whole-number floats and may
        # infer strings for ISO timestamps; pin the card schema exactly
        cols = {}
        for name in t.column_names:
            col = t[name]
            if name in INT_COLS:
                col = pc.cast(col, pa.int64())
            elif name in TS_COLS:
                # Arrow's ISO-aware cast (strptime's %f is unsupported)
                col = pc.cast(col, pa.timestamp("us"))
            cols[name] = col
        return pa.table(cols)

    return back.map_batches(fix_types, batch_format="pyarrow")
