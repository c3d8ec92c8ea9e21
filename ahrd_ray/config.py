"""Typed run configuration (analogue of ahrd.controller.Settings).

The reference loads a single YAML file into a thread-local singleton
(``Settings.java:248-376``).  Here settings are a plain frozen dataclass that
is (a) cheap to ship to Ray workers inside task closures and (b) the
single source of truth for BOTH the Ray pipeline and the generated DuckDB
oracle SQL (``ahrd_ray.pipelines.oracle``).

Weights mirror the reference's test configuration
(``test/resources/ahrd_input.yml``): token-score weights 0.5/0.3/0.2, source
weights 100/50/10, description-score bit-score weights 0.2/0.4/0.4.
"""

from __future__ import annotations

import functools
import importlib.resources
import math
import re
from dataclasses import dataclass, field


# Token splitter, verbatim contract from BlastResult.java:29
# (TOKEN_SPLITTER_REGEX).  Java and Python regex syntax agree for this
# pattern; the doubled backslash in Java source denotes a literal backslash.
TOKEN_SPLITTER_REGEX = "-|/|;|\\\\|,|:|\"|'|\\.|\\s+|\\||\\(|\\)"

# Short-accession extraction regex, default from Settings.java:95.  The named
# group is called ``shortAccession`` in the reference; Python allows the same
# syntax.
SHORT_ACCESSION_REGEX = "^[^|]+\\|(?P<shortAccession>[^|]+)"

# Quantization used to make floating-point reductions order-independent (and
# therefore deterministic under distributed execution AND bit-identical
# between numpy and DuckDB).  Every non-integer value is snapped to a multiple
# of 2**-20 before entering any sum.  This is a documented deviation from the
# reference (which sums raw doubles in file order); the per-score error is
# < 1e-6 and falls within the P/R >= 0.95 tolerance.
QUANT_BITS = 20
QUANT = float(1 << QUANT_BITS)  # 1048576.0


def q20(x):
    """floor(x * 2^20 + 0.5) / 2^20 — identical in numpy and DuckDB.

    Implemented with ``floor`` (not round) because Python/numpy round
    half-to-even while DuckDB/Java round half-away-from-zero.
    """
    import numpy as np

    return np.floor(np.asarray(x, dtype=np.float64) * QUANT + 0.5) / QUANT


def q20_scalar(x: float) -> float:
    return math.floor(x * QUANT + 0.5) / QUANT


def load_regex_list(name: str) -> list[str]:
    """Load a one-regex-per-line list shipped as package data.

    Mirrors ahrd.controller.Utils.readFile + fromFile (Utils.java:92-101):
    lines are trimmed, empty lines dropped, file order preserved.
    """
    text = (
        importlib.resources.files("ahrd_ray.data").joinpath(name).read_text(encoding="utf-8")
    )
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


@dataclass(frozen=True)
class SourceConfig:
    """Per-catalog-source configuration (analogue of one ``blast_dbs`` entry,
    Settings.java:481-485)."""

    name: str
    weight: int  # blast-db weight (integer, summed into totals)
    description_score_bit_score_weight: float  # dsbs weight
    blacklist_file: str = "blacklist_descline.txt"
    filter_file: str = ""  # defaults to filter_descline_<name>.txt
    token_blacklist_file: str = "blacklist_token.txt"
    # per-source short-accession extraction override (Settings
    # SHORT_ACCESSION_REGEX_KEY per blast-db, Settings.java:486-491); empty
    # means the global default SHORT_ACCESSION_REGEX.  Must expose a
    # `shortAccession` named group, like the default.
    short_accession_regex: str = ""

    @property
    def filter_name(self) -> str:
        return self.filter_file or f"filter_descline_{self.name}.txt"

    def blacklist(self) -> list[str]:
        return load_regex_list(self.blacklist_file)

    def filters(self) -> list[str]:
        return load_regex_list(self.filter_name)

    def token_blacklist(self) -> list[str]:
        return load_regex_list(self.token_blacklist_file)


@dataclass(frozen=True)
class EngineConfig:
    """Whole-run configuration."""

    # Token-score weights (Settings token_score_*_weight; must sum to 1+-1e-3,
    # TokenScoreCalculator.java:187-203).
    token_score_bit_score_weight: float = 0.5
    token_score_database_score_weight: float = 0.3
    token_score_overlap_score_weight: float = 0.2
    # Per-(doc, source) candidate cap (AHRD.java:160 hard-codes 200).
    top_k: int = 200
    # Prefer candidates that carry attribute annotations when choosing the
    # winner (Settings.prefer_reference_with_go_annos;
    # DescriptionScoreCalculator.java:89-98).
    prefer_annotated: bool = False
    # F-beta parameter for the evaluation harness
    # (EvaluationScoreCalculator.java:133-152).
    f_beta: float = 1.0
    sources: tuple[SourceConfig, ...] = (
        SourceConfig("wide", 100, 0.2),
        SourceConfig("mid", 50, 0.4),
        SourceConfig("niche", 10, 0.4),
    )
    # Number of hash partitions used for the doc-keyed scoring shuffle. Sized
    # so each partition holds many docs (vectorized kernel) while giving the
    # scheduler >> num_cluster_cores units of work.
    num_score_partitions: int = 64
    # CPUs reserved per scoring task: the kernel is memory-bandwidth-bound,
    # so running one task per logical core thrashes; 2 CPUs/task halves the
    # concurrency and (measured) halves wall time at 32 cores.
    score_num_cpus: float = 2.0

    def __post_init__(self) -> None:
        s = round(
            self.token_score_bit_score_weight
            + self.token_score_database_score_weight
            + self.token_score_overlap_score_weight,
            9,
        )
        # Tolerate rounding error <= 10^-3 (TokenScoreCalculator.java:192-199)
        if not (0.999 <= s <= 1.001):
            raise ValueError(
                "token-score weights must sum to 1 (+-0.001), got %r" % s
            )

    def source(self, name: str) -> SourceConfig:
        for s in self.sources:
            if s.name == name:
                return s
        raise KeyError(name)

    def source_names(self) -> list[str]:
        return [s.name for s in self.sources]

    def weights_by_source(self) -> dict[str, int]:
        return {s.name: s.weight for s in self.sources}

    def dsbs_by_source(self) -> dict[str, float]:
        return {s.name: s.description_score_bit_score_weight for s in self.sources}


DEFAULT_CONFIG = EngineConfig()


# ---------------------------------------------------------------------------
# YAML ingestion (S1, Settings.java:248-376): one input.yml configures a run
# without writing Python.  Key names follow the reference where a direct
# analogue exists (token_score_*_weight; per-source weight /
# description_score_bit_score_weight / blacklist / filter / token_blacklist).
# ---------------------------------------------------------------------------

_ENGINE_KEYS = {
    "token_score_bit_score_weight": float,
    "token_score_database_score_weight": float,
    "token_score_overlap_score_weight": float,
    "top_k": int,
    "prefer_annotated": bool,
    "f_beta": float,
    "num_score_partitions": int,
    "score_num_cpus": float,
}

_SOURCE_KEYS = {
    "weight": ("weight", int),
    "description_score_bit_score_weight": ("description_score_bit_score_weight", float),
    "blacklist": ("blacklist_file", str),
    "filter": ("filter_file", str),
    "token_blacklist": ("token_blacklist_file", str),
    "short_accession_regex": ("short_accession_regex", str),
}


def config_from_dict(doc: dict) -> EngineConfig:
    """Build an EngineConfig from a parsed YAML mapping.

    Unknown top-level keys are tolerated (run metadata like input/output
    paths live in the same file, as in the reference's input.yml); unknown
    per-source keys raise, since a typo there silently changes scoring.
    """
    kwargs: dict = {}
    for key, cast in _ENGINE_KEYS.items():
        # a bare YAML key (`top_k:`) parses as None — treat as "use default",
        # never as the string "None" / a TypeError deep inside the cast
        if doc.get(key) is not None:
            try:
                kwargs[key] = cast(doc[key])
            except (TypeError, ValueError) as e:
                raise ValueError(f"bad value for config key {key!r}: {doc[key]!r} ({e})")
    if "sources" in doc:
        srcs = []
        for name, sdoc in doc["sources"].items():
            sdoc = sdoc or {}
            unknown = set(sdoc) - set(_SOURCE_KEYS)
            if unknown:
                raise ValueError(f"unknown keys for source {name!r}: {sorted(unknown)}")
            skw: dict = {"name": str(name)}
            for yk, (attr, cast) in _SOURCE_KEYS.items():
                if sdoc.get(yk) is not None:
                    try:
                        skw[attr] = cast(sdoc[yk])
                    except (TypeError, ValueError) as e:
                        raise ValueError(
                            f"bad value for source {name!r} key {yk!r}: {sdoc[yk]!r} ({e})"
                        )
            srcs.append(SourceConfig(**skw))
        kwargs["sources"] = tuple(srcs)
    return EngineConfig(**kwargs)


def load_yaml_config(path: str) -> tuple[EngineConfig, dict]:
    """Parse one input.yml -> (EngineConfig, raw mapping).

    The raw mapping is returned alongside so callers can read run metadata
    (``input_dir``, ``output``) that is not part of the engine config.
    """
    import yaml

    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    if not isinstance(doc, dict):
        raise ValueError(f"config root must be a mapping, got {type(doc).__name__}")
    return config_from_dict(doc), doc


def config_to_dict(cfg: EngineConfig) -> dict:
    """Inverse of config_from_dict (round-trip tested)."""
    out: dict = {k: getattr(cfg, k) for k in _ENGINE_KEYS}
    out["sources"] = {
        s.name: {
            "weight": s.weight,
            "description_score_bit_score_weight": s.description_score_bit_score_weight,
            "blacklist": s.blacklist_file,
            "token_blacklist": s.token_blacklist_file,
            # raw field, so the empty "derive from source name" default
            # round-trips; resolved name is s.filter_name
            **({"filter": s.filter_file} if s.filter_file else {}),
            **(
                {"short_accession_regex": s.short_accession_regex}
                if s.short_accession_regex
                else {}
            ),
        }
        for s in cfg.sources
    }
    return out

_SHORT_ACC_RE = re.compile(SHORT_ACCESSION_REGEX)


@functools.lru_cache(maxsize=64)
def _short_acc_re(pattern: str) -> re.Pattern:
    return re.compile(pattern)


def short_accession(accession: str, pattern: str = "") -> str:
    """Extract the short accession (BlastResult.java:533-547).

    ``pattern`` overrides the default regex per source (Settings
    getShortAccessionRegex per blast-db).  Falls back to the full accession
    when the regex does not match (the reference warns and continues).
    """
    rx = _short_acc_re(pattern) if pattern else _SHORT_ACC_RE
    m = rx.search(accession)
    return m.group("shortAccession") if m else accession
