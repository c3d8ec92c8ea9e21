"""One benchmark run of one workload, in a fresh process (started by run.py).

Untimed run (``--trace 0``): a one-shot job (Ray start, ``PipelineContext``
setup, first pass, Parquet write), then until ``--seconds`` have passed a
timed setup followed by a warm pass, then the output checks.  Only the
task-based flagship paths run: ``kg.kg_triples`` with its fused default and
``kg.kg_triples_sharded`` (see NOTES.md for why no actor-pool path does).

Traced run (``--trace 1``): the same engine calls with one span around each
call into a layer's public function, plus a replay of the fused operator's
kernels in a Ray task over the same documents, plus a checkpoint probe.  Spans
stay in memory and are written out at the end with their self times.

Progress goes to ``--progress`` (one JSON line per finished operation) so
that run.py can account for a run that crashes or hangs; the full result
goes to ``--result``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import sys
import time
import traceback
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import checks
from host import job_hwm_mb, nproc
from workloads import NUM_SHARDS, WORKLOADS, shard_paths

MIN_WARM_PASSES = 3
CHECK_RESERVE_S = 25.0  # kept free after the last timed pass for the checks
RESUME_DROPS = 2  # winner partitions removed before each resume pass
OBJECT_STORE_BYTES = 512 * 2**20
# A Unix socket path is at most 107 bytes; Ray puts its sockets 63
# characters below its temp dir, so a longer in-checkout dir cannot be used.
MAX_RAY_TMP_CHARS = 40


class Spans:
    """In-memory span recorder: (name, start, end, parent) per call."""

    def __init__(self):
        self.rows: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.rows),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self.rows.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def adopt(self, rows: list[dict], parent: int) -> None:
        """Append spans recorded in another process (on the same monotonic
        clock) under ``parent``."""
        base = len(self.rows)
        for r in rows:
            p = r["parent"]
            self.rows.append({**r, "id": base + r["id"], "parent": parent if p is None else base + p})

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.rows if r["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover
        (children of one span run one after another, so they never
        overlap)."""
        child = [0.0] * len(self.rows)
        for r in self.rows:
            if r["parent"] is not None:
                child[r["parent"]] += r["end"] - r["start"]
        out: dict[str, float] = {}
        for r in self.rows:
            out[r["name"]] = out.get(r["name"], 0.0) + r["end"] - r["start"] - child[r["id"]]
        return out


def span_cost_s(n: int = 2000) -> float:
    """Measured cost of recording one span, for the overhead estimate."""
    s = Spans()
    t = time.perf_counter()
    for _ in range(n):
        with s.span("x"):
            pass
    return (time.perf_counter() - t) / n


# Ray Data prints each operator's summed task wall time as "<v><unit> total"
# on the "Remote wall time" line that follows the operator's header.
_OP_RE = re.compile(r"^\s*(?:Operator|Suboperator) \d+ (.+?):")
_WALL_RE = re.compile(r"Remote wall time:.*?([\d.]+)(us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def operator_walls(stats: str) -> dict[str, float]:
    """Summed task wall seconds of the flagship's Ray Data operators, from
    ``Dataset.stats()`` of the executed pass."""
    walls: dict[str, float] = {}
    op = None
    for line in stats.splitlines():
        m = _OP_RE.match(line)
        if m:
            op = m.group(1)
            continue
        m = _WALL_RE.search(line)
        if m and op is not None:
            walls[op] = walls.get(op, 0.0) + float(m.group(1)) * _UNIT[m.group(2)]
    out = {
        "ray.fused_op_s": sum(v for k, v in walls.items() if k.endswith("MapBatches(fused)")),
        "ray.repartition_s": sum(v for k, v in walls.items() if "Repartition" in k),
        "ray.sort_s": sum(v for k, v in walls.items() if k in ("SortMap", "SortReduce")),
        "ray.write_s": sum(v for k, v in walls.items() if k.endswith("Write")),
    }
    missing = [k for k, v in out.items() if v <= 0]
    if missing:
        raise checks.CheckFailed(f"Dataset.stats() lacks operators for {missing}:\n{stats}")
    return out


def files_snapshot(root: str) -> dict[str, tuple[int, int]]:
    out = {}
    for dirpath, _dirs, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            st = os.stat(p)
            out[os.path.relpath(p, root)] = (st.st_size, st.st_mtime_ns)
    return out


def replay_fused(docs, catalog_ref, attrs_ref, cfg, shorts, batch_size, chunk_docs):
    """Ray task: the fused operator's kernels over ``docs``, called one by
    one in the batches and chunks the operator's task uses, then the triple
    emit.  It runs in a Ray worker like the operator itself, so its spans
    are comparable with the operator's task time.  Returns (spans, counts,
    triples)."""
    from ahrd_ray.functions.scoring import score_partition_slim
    from ahrd_ray.pipelines.kg import extract_text_batch
    from ahrd_ray.sources.synth import pages_batch_from_documents
    from ahrd_ray.sources.tables import doc_token_batch
    from ahrd_ray.stages.candidates import MentionDetector
    from ahrd_ray.stages.canonicalize import entity_triples_table, make_doc_triple_emitter

    sp = Spans()
    c = dict.fromkeys(("html_bytes", "extract_bytes_in", "pairs", "candidates", "winners"), 0)
    detector = MentionDetector(catalog_ref, cfg, slim=True)
    lexicon = pa.array(list(detector.token_ids), type=pa.string())
    winners = []
    for off in range(0, docs.num_rows, batch_size):
        batch = docs.slice(off, batch_size)
        with sp.span("synth.pages"):
            pages = pages_batch_from_documents(batch)
        html = pc.sum(pc.binary_length(pages["html"])).as_py()
        c["html_bytes"] += html
        # extract reads html, lang and the int64 doc_id
        c["extract_bytes_in"] += html + pc.sum(pc.binary_length(pages["lang"])).as_py() + 8 * pages.num_rows
        with sp.span("extract"):
            text = extract_text_batch(pages)
        for k in range(0, text.num_rows, chunk_docs):
            chunk = text.slice(k, chunk_docs)
            with sp.span("detect"):
                slim = detector(chunk)
            c["pairs"] += pc.sum(pc.is_in(doc_token_batch(chunk)["token"], value_set=lexicon)).as_py() or 0
            c["candidates"] += slim.num_rows
            df = slim.to_pandas()
            with sp.span("score"):
                win = score_partition_slim(df, detector.bundle.arrays, cfg, annotated_shorts=shorts)
            winners.append(pa.Table.from_pandas(win, preserve_index=False))
    wtab = pa.concat_tables(winners).replace_schema_metadata(None)
    c["winners"] = wtab.num_rows
    wdf = wtab.to_pandas()
    ords = sorted(set(wtab["cand_ord"].to_pylist()))
    with sp.span("emit"):
        doc_tr = make_doc_triple_emitter(attrs_ref, cfg)(wdf)
        ent_tr = entity_triples_table(ords, catalog_ref, attrs_ref)
    return sp.rows, c, pa.concat_tables([doc_tr, ent_tr])


class Run:
    def __init__(self, a: argparse.Namespace, phases: dict[str, float]):
        from ahrd_ray.pipelines import kg

        self.a = a
        self.phases = phases  # job milestones, seconds since spawn
        self.kg = kg
        self.w = WORKLOADS[a.scale][a.workload]
        self.inputs = a.inputs
        self.work = a.work
        self.shards = shard_paths(a.inputs)
        self.rng = np.random.default_rng([a.seed, 1])
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, bool] = {}
        self.peak_rss_mb = 0.0
        self._progress = open(a.progress, "a", encoding="utf-8")

    def close(self):
        self._progress.close()

    def note(self, **rec):
        self._progress.write(json.dumps(rec) + "\n")
        self._progress.flush()

    def attempt(self, op: str, fn):
        """Run one pipeline execution; a raise counts as a failed attempt."""
        self.attempted += 1
        self.note(op=op, state="start")
        try:
            out = fn()
        except Exception:  # boundary: record and keep measuring
            self.failed += 1
            self.errors.append(f"{op}: {traceback.format_exc()}")
            self.note(op=op, state="failed")
            return None
        self.peak_rss_mb = max(self.peak_rss_mb, job_hwm_mb())
        self.note(op=op, state="done")
        return out

    def check(self, name: str, fn) -> object:
        try:
            out = fn()
        except checks.CheckFailed as e:
            self.checks[name] = False
            self.errors.append(f"check {name}: {e}")
            return None
        self.checks[name] = self.checks.get(name, True)
        return out

    # -- pipeline executions ------------------------------------------------

    def full_pass(self, ctx, out: str) -> float:
        shutil.rmtree(out, ignore_errors=True)
        t = time.perf_counter()
        ds = self.kg.kg_triples(ctx)
        ds.write_parquet(out)
        self.last_ds = ds
        return time.perf_counter() - t

    def sharded_pass(self, ctx, root: str) -> float:
        t = time.perf_counter()
        self.kg.kg_triples_sharded(ctx, root, doc_paths=self.shards, num_shards=NUM_SHARDS)
        return time.perf_counter() - t

    def drop_partitions(self, root: str) -> list[int]:
        drop = sorted(int(k) for k in self.rng.choice(NUM_SHARDS, RESUME_DROPS, replace=False))
        for k in drop:
            shutil.rmtree(os.path.join(root, "stage=winners", f"part={k:05d}"))
        return drop

    @staticmethod
    def triples_dir(ckpt_root: str) -> str:
        return os.path.join(ckpt_root, "stage=triples", "data")

    def expected(self, ctx):
        from ahrd_ray.config import TOKEN_SPLITTER_REGEX

        docs = pq.read_table(
            os.path.join(self.inputs, "documents.parquet"), columns=["doc_id", "text", "lang"]
        )
        return checks.expected_links(docs, ctx.bundle, TOKEN_SPLITTER_REGEX)

    # -- untimed run ----------------------------------------------------------

    def timed(self) -> dict:
        a, kg = self.a, self.kg
        out = os.path.join(self.work, "triples")
        ckpt = os.path.join(self.work, "ckpt")
        ctx = kg.PipelineContext(self.inputs)
        self.phases["setup"] = time.monotonic() - a.t0
        if self.w.sharded:
            first = self.attempt("job", lambda: self.sharded_pass(ctx, ckpt))
            out = self.triples_dir(ckpt)
        else:
            first = self.attempt("job", lambda: self.full_pass(ctx, out))
        job_s = self.phases["pass"] = time.monotonic() - a.t0
        if first is None:
            return {"job_s": job_s}
        rows, first_digest = self.check("sorted_distinct", lambda: checks.read_triples(out)) or ([], None)
        expected_urls, expected_cands = self.expected(ctx)
        self.check("one_linked_entity_per_doc_with_candidates",
                   lambda: checks.linked_entity_check(rows, expected_urls))

        # One setup sample before each warm pass, so that the samples spread
        # over the whole window like the passes do.  The sample builds a
        # throwaway context: the passes keep the job's context, whose
        # worker-cached scorer instances stay warm.
        setups, walls, digests = [], [], []
        t_loop = time.perf_counter()
        while len(walls) < MIN_WARM_PASSES or time.perf_counter() - t_loop < a.seconds:
            last = walls[-1] + setups[-1] if walls else first
            if self.failed >= MIN_WARM_PASSES or time.monotonic() + 3 * last + CHECK_RESERVE_S > a.deadline:
                break
            gc.collect()  # garbage of the previous pass is not setup work
            t = time.perf_counter()
            sample = kg.PipelineContext(self.inputs)
            setups.append(time.perf_counter() - t)
            del sample
            if self.w.sharded:
                self.drop_partitions(ckpt)
                wall = self.attempt("resume", lambda: self.sharded_pass(ctx, ckpt))
            else:
                wall = self.attempt("pass", lambda: self.full_pass(ctx, out))
            if wall is None:
                continue
            walls.append(wall)
            got = self.check("sorted_distinct", lambda: checks.read_triples(out))
            digests.append(got[1] if got else None)
        self.checks["passes_same_digest"] = len(walls) >= MIN_WARM_PASSES and all(
            d == first_digest for d in digests
        )

        if self.w.sharded:
            ref = os.path.join(self.work, "reference")
            if self.attempt("reference", lambda: self.full_pass(ctx, ref)) is not None:
                got = self.check("sorted_distinct", lambda: checks.read_triples(ref))
                self.checks["resume_equals_kg_triples"] = bool(got) and got[1] == first_digest
            else:
                self.checks["resume_equals_kg_triples"] = False
        return {
            "job_s": job_s,
            "job_phases_s": self.phases,
            "setup_samples_s": setups,
            "pass_walls_s": walls,
            "digest": first_digest,
            "sizes": {"triples": len(rows), "candidates": expected_cands},
        }

    # -- traced run -------------------------------------------------------------

    def traced(self) -> dict:
        from ahrd_ray.sources import spec
        from ahrd_ray.sources.synth import build_attrs, build_catalog
        from ahrd_ray.sources.tables import corpus_vocab_bottomk
        from ahrd_ray.stages.candidates import FusedMentionScorer

        import ray

        kg, sp, m = self.kg, Spans(), {}
        # first setup starts the Ray workers; the layered one below is warm,
        # like setup_s in the untimed run
        ctx = self.attempt("setup", lambda: kg.PipelineContext(self.inputs))
        if ctx is None:
            return {}
        with sp.span("setup"):
            with sp.span("setup.vocab"):
                vocab = corpus_vocab_bottomk(self.inputs, spec.ALIAS_MOD)
            with sp.span("setup.catalog"):
                bundle = build_catalog(self.inputs, ctx.cfg, vocab)
            with sp.span("setup.attrs"):
                attrs = build_attrs(self.inputs)
            with sp.span("setup.put"):
                refs = (ray.put(bundle), ray.put(attrs))
        del refs
        for k in ("vocab", "catalog", "attrs", "put"):
            m[f"setup.{k}_s"] = sp.total(f"setup.{k}")
        m["setup.catalog_entities"] = bundle.n
        m["setup.alias_links"] = sum(len(v) for v in bundle.alias_index.values())

        out = os.path.join(self.work, "triples")
        with sp.span("pass"):
            wall = self.attempt("pass", lambda: self.full_pass(ctx, out))
        if wall is None:
            return {"metrics": m}
        rows, digest = self.check("sorted_distinct", lambda: checks.read_triples(out)) or ([], None)
        expected_urls, expected_cands = self.expected(ctx)
        self.check("one_linked_entity_per_doc_with_candidates",
                   lambda: checks.linked_entity_check(rows, expected_urls))
        m.update(operator_walls(self.last_ds.stats()))

        docs = pq.read_table(
            os.path.join(self.inputs, "documents.parquet"), columns=["doc_id", "text", "lang"]
        )
        shorts = ctx.annotated_shorts() if ctx.cfg.prefer_annotated else None
        with sp.span("replay") as rec:
            task_spans, c, triples = ray.get(ray.remote(replay_fused).remote(
                docs, ctx.catalog_ref, ctx.attrs_ref, ctx.cfg, shorts,
                kg.FUSED_BATCH_SIZE, FusedMentionScorer.CHUNK_DOCS,
            ))
            sp.adopt(task_spans, rec["id"])
        replay = sorted(zip(*(triples[k].to_pylist() for k in ("subj", "pred", "obj"))))
        self.checks["replay_equals_pass"] = checks.digest(replay) == digest
        self.checks["replay_candidates_equal_expected"] = c["candidates"] == expected_cands

        m.update({
            "synth.pages_s": sp.total("synth.pages"),
            "synth.html_bytes": c["html_bytes"],
            "extract.s": sp.total("extract"),
            "extract.bytes_in": c["extract_bytes_in"],
            "detect.s": sp.total("detect"),
            "detect.pairs": c["pairs"],
            "detect.candidates": c["candidates"],
            "detect.candidates_per_doc": c["candidates"] / docs.num_rows,
            "score.s": sp.total("score"),
            "score.winners": c["winners"],
            "score.winners_per_candidate": c["winners"] / max(c["candidates"], 1),
            "emit.s": sp.total("emit"),
            "emit.triples": triples.num_rows,
        })
        m["ray.fused_unattributed_s"] = m["ray.fused_op_s"] - sum(
            m[k] for k in ("synth.pages_s", "extract.s", "detect.s", "score.s")
        )
        m.update(self.checkpoint_probe(ctx, sp, digest))

        m["trace.spans"] = len(sp.rows)
        m["trace.overhead_ratio"] = len(sp.rows) * span_cost_s() / sp.total("replay")
        selft = sp.self_times()
        os.makedirs(os.path.dirname(self.a.spans), exist_ok=True)
        with open(self.a.spans, "w", encoding="utf-8") as f:
            json.dump({"spans": sp.rows, "self_s": selft}, f)
        return {
            "metrics": m,
            "self_s": selft,
            "digest": digest,
            "sizes": {"triples": len(rows), "candidates": c["candidates"]},
        }

    def checkpoint_probe(self, ctx, sp: Spans, digest: str | None) -> dict:
        """Cold sharded run, no-op rerun, then a resume after dropping
        winner partitions; counts read from the checkpoint directory."""
        root = os.path.join(self.work, "ckpt")
        with sp.span("ckpt.cold"):
            self.attempt("ckpt_cold", lambda: self.sharded_pass(ctx, root))
        before = files_snapshot(root)
        with sp.span("ckpt.noop"):
            self.attempt("ckpt_noop", lambda: self.sharded_pass(ctx, root))
        after = files_snapshot(root)
        # the stage rewrites its small layout.json on every call; no data
        # file or manifest may change
        self.checks["noop_rerun_recomputes_nothing"] = all(
            after.get(r) == v for r, v in before.items()
            if r.endswith((".parquet", "manifest.json"))
        )
        drop = self.drop_partitions(root)
        before = files_snapshot(root)
        with sp.span("ckpt.resume"):
            self.attempt("ckpt_resume", lambda: self.sharded_pass(ctx, root))
        after = files_snapshot(root)
        got = self.check("sorted_distinct", lambda: checks.read_triples(self.triples_dir(root)))
        self.checks["resume_equals_kg_triples"] = bool(got) and got[1] == digest

        def part_of(rel: str) -> int | None:
            seg = rel.split(os.sep)
            if seg[0] == "stage=winners" and len(seg) > 1 and seg[1].startswith("part="):
                return int(seg[1][5:])
            return None

        manifests = {part_of(r): v for r, v in after.items() if r.endswith("manifest.json") and part_of(r) is not None}
        recomputed = {k for k, v in manifests.items()
                      if before.get(os.path.join("stage=winners", f"part={k:05d}", "manifest.json")) != v}
        self.checks["resume_recomputes_only_dropped"] = recomputed == set(drop)
        return {
            "ckpt.parts_recomputed": len(recomputed),
            "ckpt.parts_reused": len(manifests) - len(recomputed),
            "ckpt.bytes_written": sum(v[0] for r, v in after.items() if before.get(r) != v),
            "ckpt.bytes_read": sum(
                v[0] for r, v in after.items()
                if r.endswith(".parquet") and part_of(r) is not None and part_of(r) not in recomputed
            ),
            "ckpt.noop_rerun_s": sp.total("ckpt.noop"),
        }


def ray_temp_dir(work: str) -> dict:
    tmp = os.path.join(work, "ray")
    return {"_temp_dir": tmp} if len(tmp) <= MAX_RAY_TMP_CHARS else {}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--scale", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--progress", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--t0", type=float, required=True, help="monotonic spawn time")
    p.add_argument("--deadline", type=float, required=True, help="monotonic end of run")
    a = p.parse_args(argv)
    phases = {"start": time.monotonic() - a.t0}
    import ray

    from ahrd_ray.pipelines import kg  # noqa: F401  (import cost belongs to the job)

    phases["imports"] = time.monotonic() - a.t0
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        **ray_temp_dir(a.work),
    )
    phases["ray_init"] = time.monotonic() - a.t0
    run = Run(a, phases)
    try:
        body = run.traced() if a.trace else run.timed()
        body["ray_cpus"] = ray.cluster_resources().get("CPU")
    finally:
        ray.shutdown()
        run.close()
    body.update(
        attempted=run.attempted,
        failed=run.failed,
        checks=run.checks,
        errors=run.errors,
        peak_rss_mb=run.peak_rss_mb,
    )
    with open(a.result, "w", encoding="utf-8") as f:
        json.dump(body, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
