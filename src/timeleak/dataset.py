"""Timing-trace datasets: CSV ingestion, schemas, normalization, splits, generators.

A trace row is (secret vector x, public vector y, execution time t >= 0).
Secret features live in finite integer domains so that downstream class
counting can enumerate them exactly.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import operator
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .jsonio import FieldError, get, numbers, read_json

# Offset added to generated times so multiplicative noise acts on a positive base.
GEN_BASE_TIME = 10.0


class DatasetError(ValueError):
    """Base class for trace-data errors."""


class NonNumericCell(DatasetError):
    def __init__(self, row: int, col: str, value: str):
        super().__init__(f"non-numeric cell at row {row}, column {col!r}: {value!r}")
        self.row = row
        self.col = col


class NonFiniteCell(DatasetError):
    def __init__(self, row: int, col: str, value: str):
        super().__init__(f"non-finite cell at row {row}, column {col!r}: {value!r}")
        self.row = row
        self.col = col


class NonFiniteValue(DatasetError):
    def __init__(self, row: int, col: str, value: float):
        super().__init__(f"non-finite value {value!r} at row {row} of {col!r}")
        self.row = row
        self.col = col


class SecretValueOutOfDomain(DatasetError):
    def __init__(self, row: int, col: str, value: float):
        super().__init__(f"secret value {value!r} at row {row} outside domain of {col!r}")
        self.row = row
        self.col = col


@dataclass(frozen=True)
class Binary:
    """Secret feature domain {0, 1}."""

    @property
    def lo(self) -> int:
        return 0

    @property
    def hi(self) -> int:
        return 1

    @property
    def size(self) -> int:
        return 2


# Every integer within ±MAX_SAFE_INT is exact in float64, so a trace cell
# outside a domain within these bounds parses to a float outside it.
MAX_SAFE_INT = 2**53 - 1


@dataclass(frozen=True)
class IntRange:
    """Unit-step integer domain [lo, hi] within ±(2^53 − 1); constant domains
    are rejected."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise DatasetError(f"IntRange lo {self.lo} > hi {self.hi}")
        if self.lo < -MAX_SAFE_INT or self.hi > MAX_SAFE_INT:
            raise DatasetError(f"IntRange [{self.lo}, {self.hi}] is not within ±(2^53 − 1)")
        if self.size < 2:
            raise DatasetError(f"constant feature domain [{self.lo}, {self.hi}] rejected")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


Domain = Binary | IntRange


@dataclass(frozen=True)
class FeatureSchema:
    """Names and domains of the secret/public features plus the time unit."""

    secret_features: tuple[tuple[str, Domain], ...]
    public_features: tuple[str, ...]
    time_unit: str = "seconds"

    def __post_init__(self):
        secret_names = [n for n, _ in self.secret_features]
        names = secret_names + list(self.public_features)
        if len(set(names)) != len(names):
            raise DatasetError("feature names must be distinct across secret and public sides")

    @property
    def n_secret(self) -> int:
        return len(self.secret_features)

    @property
    def n_public(self) -> int:
        return len(self.public_features)


class TraceDataset:
    """Immutable array-backed collection of timing-trace rows."""

    def __init__(self, schema: FeatureSchema, x, y, t, *, validate: bool = True):
        x, y, t = (np.asarray(a, dtype=np.float64) for a in (x, y, t))
        n = t.shape[0] if t.ndim else 0
        for name, arr, shape in (("t", t, (n,)), ("x", x, (n, schema.n_secret)), ("y", y, (n, schema.n_public))):
            if arr.shape != shape:
                raise DatasetError(f"{name} must have shape {shape}, got {arr.shape}")
        if validate:
            columns = [*x.T, *y.T, t]
            broken = _broken_rule(columns, _column_stats(x, y, t), [d for _, d in schema.secret_features])
            if broken is not None:
                error, j, row = broken
                names = [n for n, _ in schema.secret_features] + [*schema.public_features, "time"]
                raise error(row, names[j], float(columns[j][row]))
        for arr in (x, y, t):
            arr.setflags(write=False)
        self.schema = schema
        self.x = x
        self.y = y
        self.t = t

    @property
    def n_rows(self) -> int:
        return self.t.shape[0]

    def subset(self, indices) -> "TraceDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return TraceDataset(self.schema, self.x[idx], self.y[idx], self.t[idx], validate=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TraceDataset)
            and self.schema == other.schema
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.t, other.t)
        )


# ---------------------------------------------------------------------------
# Schema JSON sidecar
# ---------------------------------------------------------------------------


def _domain_to_json(dom: Domain):
    if isinstance(dom, Binary):
        return "binary"
    return {"int": [dom.lo, dom.hi]}


def schema_to_json(schema: FeatureSchema) -> dict:
    return {
        "secret": [{"name": n, "domain": _domain_to_json(d)} for n, d in schema.secret_features],
        "public": list(schema.public_features),
        "time_unit": schema.time_unit,
    }


def _secret_feature_from_json(secret: list, i: int) -> tuple[str, Domain]:
    """Entry i of `secret`: a name, and the domain "binary" or {"int": [lo, hi]}."""
    entry, where = get(secret, i, dict, where="secret"), f"secret[{i}]"
    name, dom = get(entry, "name", str, where=where), get(entry, "domain", where=where)
    if dom == "binary":
        return name, Binary()
    bounds = get(dom, "int", where=f"{where}.domain")
    try:
        lo, hi = (get(bounds, j, int) for j in (0, 1))
        if len(bounds) == 2:
            return name, IntRange(lo, hi)
    except (FieldError, DatasetError):
        pass
    must = "[lo, hi], two integers within ±(2^53 − 1) with lo < hi"
    raise FieldError(f"secret feature {name!r}: int domain must be {must}, got {bounds!r:.60}")


def schema_from_json(obj: dict) -> FeatureSchema:
    """The schema of a trace sidecar, or of a model's `schema` object. A
    malformed field raises `FieldError` naming its path."""
    secret, public = get(obj, "secret", list, default=[]), get(obj, "public", list, default=[])
    secret = tuple(_secret_feature_from_json(secret, i) for i in range(len(secret)))
    public = tuple(get(public, i, str, where="public") for i in range(len(public)))
    return FeatureSchema(secret, public, get(obj, "time_unit", str, default="seconds"))


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def load_csv(path, sidecar=None) -> TraceDataset:
    """Read a trace CSV: `s_*` columns are secret, `p_*` public, final column `time`.

    Secret domains are inferred from observed values (Binary when the values are
    a subset of {0, 1}, else the observed integer range) unless `sidecar` points
    to a schema JSON, which is then authoritative.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DatasetError(f"{path}: empty file") from None
        parsed = _parse_body(fh, len(header))

    if not header or header[-1] != "time":
        raise DatasetError(f"{path}: final column must be 'time'")
    secret_cols: list[tuple[int, str]] = []
    public_cols: list[tuple[int, str]] = []
    for i, name in enumerate(header[:-1]):
        if name.startswith("s_"):
            secret_cols.append((i, name))
        elif name.startswith("p_"):
            public_cols.append((i, name))
        else:
            raise DatasetError(f"{path}: column {name!r} lacks an s_/p_ prefix")

    if parsed is None:
        parsed = _scan_body(path, header)
    n_rows = parsed.shape[0]
    # x and y are views of the table when their columns are adjacent and in
    # order, as in the s_…,p_…,time layout, else copies.
    spans = [[i for i, _ in cols] for cols in (secret_cols, public_cols)]
    x, y = (parsed[:, i[0] : i[-1] + 1] if i and i == list(range(i[0], i[-1] + 1)) else parsed[:, i] for i in spans)
    t = parsed[:, -1]

    schema_override = None
    if sidecar is not None:
        obj = read_json(sidecar)
        try:
            schema_override = schema_from_json(obj)
        except FieldError as exc:
            raise DatasetError(f"sidecar {Path(sidecar).name} {exc}") from None
        declared = [n for n, _ in schema_override.secret_features]
        if declared != [n for _, n in secret_cols]:
            raise DatasetError(f"sidecar secret features {declared} do not match columns")

    # The one scan of the table, its columns taken in x, y, t order.
    order = [c for c, _ in secret_cols + public_cols] + [len(header) - 1]
    lo, hi, integral = (stat[order] for stat in _column_stats(parsed))
    domains = [d for _, d in schema_override.secret_features] if schema_override else [None] * len(secret_cols)
    broken = _broken_rule([parsed[:, c] for c in order], (lo, hi, integral), domains)
    if broken is not None:
        error, j, r = broken
        c = order[j]
        if error is NonFiniteValue:
            raise NonFiniteCell(r + 2, header[c], _cell_text(path, r + 2, c))
        raise error(r + 2, header[c], float(parsed[r, c]))

    secret_features = []
    for j, (_, name) in enumerate(secret_cols):
        if schema_override is not None:
            dom = schema_override.secret_features[j][1]
        elif n_rows and lo[j] >= 0 and hi[j] <= 1:
            dom = Binary()
        else:
            try:
                dom = IntRange(int(lo[j]) if n_rows else 0, int(hi[j]) if n_rows else 1)
            except DatasetError as exc:
                raise DatasetError(f"{path}: column {name!r}: {exc}") from None
        secret_features.append((name, dom))

    time_unit = schema_override.time_unit if schema_override else "seconds"
    schema = FeatureSchema(tuple(secret_features), tuple(n for _, n in public_cols), time_unit)
    return TraceDataset(schema, x, y, t, validate=False)


def _broken_rule(columns: list[np.ndarray], stats, domains: list[Domain | None]) -> tuple[type, int, int] | None:
    """The first trace rule that `columns`, the secret, public and time
    columns in that order, break, as (error, column, row of its first bad
    cell); None when they keep every rule. `stats` are the columns'
    `_column_stats`, and `domains` give the secret columns' domains, None
    for a domain still to be inferred, which needs only integral values.
    The rules, in the order they are checked:
    1. every value is finite (`NonFiniteValue`);
    2. no time is negative, which names no cell and so is raised here;
    3. every secret is an integer inside its domain (`SecretValueOutOfDomain`).
    Only the first column that breaks a rule is scanned, to find its row."""
    lo, hi, integral = stats
    finite = (lo > -np.inf) & (hi < np.inf)
    if not finite.all():
        j = int(np.argmin(finite))
        return NonFiniteValue, j, int(np.argmin(np.isfinite(columns[j])))
    if lo[-1] < 0:
        raise DatasetError("negative execution time")
    n = len(domains)
    bounds = [(-np.inf, np.inf) if d is None else (d.lo, d.hi) for d in domains]
    dom_lo, dom_hi = np.array(bounds, dtype=np.float64).reshape(n, 2).T
    inside = integral[:n] & (lo[:n] >= dom_lo) & (hi[:n] <= dom_hi)
    if not inside.all():
        j = int(np.argmin(inside))
        col = columns[j]
        return SecretValueOutOfDomain, j, int(np.argmax((col != np.floor(col)) | (col < dom_lo[j]) | (col > dom_hi[j])))
    return None


def _parse_body(fh, width: int) -> np.ndarray | None:
    """The rest of `fh` as a float64 table, parsed in one vectorised pass.

    Returns None when that pass cannot take the file, and `_scan_body` must
    read it: a bad cell, a row of the wrong width, or a blank line, which
    `np.loadtxt` skips but which is an error here, so the table must have one
    row per line read. A file with no data lines gives a 0-row table.
    """
    seen = itertools.count()
    lines = map(operator.itemgetter(0), zip(fh, seen))  # `seen` advances once per line
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
        except ValueError:
            return None
    n_lines = next(seen)
    if n_lines == 0:
        return np.empty((0, width))
    return table if table.shape == (n_lines, width) else None


def _scan_body(path: Path, header: list[str]) -> np.ndarray:
    """Row-wise parse with `csv` and `float()`, the path for files `_parse_body`
    cannot take. It names the first row of the wrong width or non-numeric
    cell, and it takes the cells `float()` accepts and `np.loadtxt` does not:
    quoted numbers and underscores (`1_0`)."""
    width = len(header)
    values = array("d")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for r, row in enumerate(reader, start=2):
            if len(row) != width:
                raise DatasetError(f"{path}: row {r} has {len(row)} cells, expected {width}")
            for c, cell in enumerate(row):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise NonNumericCell(r, header[c], cell) from None
    return np.array(values, dtype=np.float64).reshape(-1, width)


def _cell_text(path: Path, row: int, col: int) -> str:
    """The text of one cell, with rows numbered as in the error messages (the header is row 1)."""
    with path.open(newline="", encoding="utf-8") as fh:
        return next(itertools.islice(csv.reader(fh), row - 1, None))[col]


# Rows per block, formatted together in write_csv and scanned together by
# `_column_stats`: enough to amortize the per-column calls, few enough that
# the temporaries and cell strings of one block stay small.
WRITE_BLOCK = 4096
# Most labels in one write_csv label table (see `_fields`).
WRITE_TABLE = 2**17
# Rows folded into one before each axis-0 reduction of `_column_stats`. An
# axis-0 reduction of a C-order table runs inner loops one row long; folded,
# they are FOLD rows long.
FOLD = 64


def _fold(ufunc: np.ufunc, block: np.ndarray, initial) -> np.ndarray:
    """`ufunc` reduced over axis 0 of a contiguous block, FOLD rows at a time."""
    n, width = block.shape
    m = n - n % FOLD
    folded = ufunc.reduce(block[:m].reshape(m // FOLD, FOLD * width), axis=0, initial=initial)
    return ufunc.reduce(np.concatenate([folded.reshape(FOLD, width), block[m:]]), axis=0, initial=initial)


def _column_stats(*tables: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column of the tables side by side, a 1-D array being one column:
    the lowest value, the highest value, and whether every value is
    integral. A NaN makes both bounds NaN and is not integral; a 0-row
    column reads (inf, -inf, True). Each table is walked in WRITE_BLOCK-row
    blocks, so no temporary is larger than a block."""
    parts = []
    for table in tables:
        table = table if table.ndim == 2 else table[:, None]
        lo, hi = np.full(table.shape[1], np.inf), np.full(table.shape[1], -np.inf)
        integral = np.ones(table.shape[1], dtype=bool)
        for start in range(0, table.shape[0], WRITE_BLOCK):
            block = np.ascontiguousarray(table[start : start + WRITE_BLOCK], dtype=np.float64)
            np.minimum(lo, _fold(np.minimum, block, np.inf), out=lo)
            np.maximum(hi, _fold(np.maximum, block, -np.inf), out=hi)
            integral &= _fold(np.logical_and, np.floor(block) == block, True)
        parts.append((lo, hi, integral))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _all_finite(lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether every value of the columns with these `_column_stats` bounds is finite."""
    return bool(((lo > -np.inf) & (hi < np.inf)).all())


def _fmt_cell(v: float) -> str:
    if v == math.floor(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_floats(col: np.ndarray) -> list[str]:
    """`_fmt_cell` of every value in a column of finite values."""
    values = col.tolist()
    cells = list(map(repr, values))
    for i in np.flatnonzero((col == np.floor(col)) & (np.abs(col) < 1e15)).tolist():
        cells[i] = str(int(values[i]))
    return cells


def _label_field(run: list[tuple[np.ndarray, int, int]]):
    """The cells of a run of integral columns, given as (column, lowest value,
    count of values), read from a table of every combination's label."""
    strs = (list(map(str, range(lo, lo + n))) for _, lo, n in run)
    labels = np.array(functools.reduce(lambda a, b: [p + "," + q for p in a for q in b], strs), dtype=object)

    def field(rows: slice) -> list[str]:
        index = 0
        for col, lo, n in run:
            index = index * n + (col[rows] - lo)
        return labels[index.astype(np.intp)].tolist()

    return field


def _fields(tables: list[np.ndarray], n_rows: int) -> list:
    """Per field of a row of the tables side by side (a 1-D array is one
    column), in column order, a function from a block of rows to its texts.
    A run of adjacent integral columns below 1e15 in magnitude is one field
    while its label table holds at most min(n_rows, WRITE_TABLE). The first
    non-finite value in row order raises, as `_fmt_cell` does."""
    lo, hi, integral = _column_stats(*tables)
    if not _all_finite(lo, hi):
        cells = np.column_stack(tables).ravel()
        _fmt_cell(float(cells[np.argmin(np.isfinite(cells))]))
    columns = [col for table in tables for col in (table.T if table.ndim == 2 else [table])]
    fields, run, size, limit = [], [], 1, min(n_rows, WRITE_TABLE)
    for j, col in enumerate([*columns, None]):
        n = 0
        if col is not None and n_rows and integral[j] and max(-lo[j], hi[j]) < 1e15:
            n = int(hi[j]) - int(lo[j]) + 1
        if run and not 0 < n * size <= limit:
            fields.append(_label_field(run))
            run, size = [], 1
        if 0 < n <= limit:
            run.append((col, int(lo[j]), n))
            size *= n
        elif col is not None:
            fields.append(lambda rows, col=col: _fmt_floats(col[rows]))
    return fields


def write_csv(ds: TraceDataset, path) -> None:
    """Write a dataset back out in the trace CSV format (prefixing names as needed).

    Integral values below 1e15 in magnitude print as integers, all others as
    their shortest round-tripping repr (`_fmt_cell`). Rows end in CRLF, as
    `csv.writer` ends the header.
    """
    header = []
    for name, _ in ds.schema.secret_features:
        header.append(name if name.startswith("s_") else f"s_{name}")
    for name in ds.schema.public_features:
        header.append(name if name.startswith("p_") else f"p_{name}")
    header.append("time")
    fields = _fields([ds.x, ds.y, ds.t], ds.n_rows)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, ds.n_rows, WRITE_BLOCK):
            rows = slice(start, start + WRITE_BLOCK)
            fh.write("\r\n".join(map(",".join, zip(*(field(rows) for field in fields)))) + "\r\n")


# ---------------------------------------------------------------------------
# Split and normalization
# ---------------------------------------------------------------------------


def split(ds: TraceDataset, test_fraction: float, seed: int) -> tuple[TraceDataset, TraceDataset]:
    """Deterministic shuffle-split; |test| = round(fraction * n) with a minimum of 1."""
    if not 0 < test_fraction < 1:
        raise DatasetError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = ds.n_rows
    n_test = max(1, int(round(test_fraction * n)))
    if n_test >= n:
        raise DatasetError(f"cannot split {n} rows with test fraction {test_fraction}")
    perm = np.random.default_rng(seed).permutation(n)
    return ds.subset(perm[n_test:]), ds.subset(perm[:n_test])


def split_train_valid_test(ds: TraceDataset, fraction: float, seed: int) -> tuple[TraceDataset, TraceDataset, TraceDataset]:
    """Train, validation and test parts: `split` holds out the test part with
    `seed`, then the validation part from the rest with the same fraction and
    `seed + 1`."""
    trainval, test = split(ds, fraction, seed)
    train, valid = split(trainval, fraction, seed + 1)
    return train, valid, test


@dataclass(frozen=True, eq=False)
class Normalizer:
    """Affine feature maps fitted on training rows.

    Public features and time are z-scored with population statistics; secret
    features use the exact domain map (Binary: identity, IntRange: (v - lo) /
    (hi - lo)) recorded here so the counting stage can replay it bit-exactly.
    """

    secret_shift: np.ndarray
    secret_denom: np.ndarray
    public_shift: np.ndarray
    public_scale: np.ndarray
    time_shift: float
    time_scale: float

    def map_secrets(self, x: np.ndarray) -> np.ndarray:
        return (x - self.secret_shift) / self.secret_denom

    def map_publics(self, y: np.ndarray) -> np.ndarray:
        return (y - self.public_shift) / self.public_scale

    def map_time(self, t: np.ndarray) -> np.ndarray:
        return (t - self.time_shift) / self.time_scale

    def unmap_time(self, tn: np.ndarray) -> np.ndarray:
        return tn * self.time_scale + self.time_shift


def fit_normalizer(train: TraceDataset) -> Normalizer:
    if train.n_rows == 0:
        raise DatasetError("cannot fit a normalizer on an empty dataset")
    shifts, denoms = [], []
    for name, dom in train.schema.secret_features:
        if isinstance(dom, Binary):
            shifts.append(0.0)
            denoms.append(1.0)
        else:
            shifts.append(float(dom.lo))
            denoms.append(float(dom.hi - dom.lo))
    pub_shift = train.y.mean(axis=0) if train.schema.n_public else np.zeros(0)
    pub_scale = train.y.std(axis=0) if train.schema.n_public else np.zeros(0)
    pub_scale = np.where(pub_scale > 0, pub_scale, 1.0)
    t_shift = float(train.t.mean())
    t_scale = float(train.t.std())
    if t_scale == 0.0:
        t_scale = 1.0
    return Normalizer(
        secret_shift=np.asarray(shifts, dtype=np.float64),
        secret_denom=np.asarray(denoms, dtype=np.float64),
        public_shift=np.asarray(pub_shift, dtype=np.float64),
        public_scale=np.asarray(pub_scale, dtype=np.float64),
        time_shift=t_shift,
        time_scale=t_scale,
    )


def normalizer_to_json(norm: Normalizer) -> dict:
    return {
        "secret_shift": norm.secret_shift.tolist(),
        "secret_denom": norm.secret_denom.tolist(),
        "public_shift": norm.public_shift.tolist(),
        "public_scale": norm.public_scale.tolist(),
        "time_shift": norm.time_shift,
        "time_scale": norm.time_scale,
    }


def normalizer_from_json(obj, n_secret: int, n_public: int) -> Normalizer:
    """The `normalizer` object of a model, each field checked against the
    model's feature counts. `fit_normalizer` writes only positive scales and
    denominators."""
    fields = {}
    for name, n in (("secret_shift", n_secret), ("secret_denom", n_secret), ("public_shift", n_public),
                    ("public_scale", n_public), ("time_shift", None), ("time_scale", None)):
        if name not in obj:
            raise FieldError(f"normalizer {name} is missing")
        arr = numbers(obj[name], () if n is None else (n,))
        if arr is None:
            must = "be a number" if n is None else f"hold {n} values, one per {name.split('_')[0]} feature"
            raise FieldError(f"normalizer {name} must {must}, got {obj[name]!r:.40}")
        if not np.isfinite(arr).all():
            raise FieldError(f"normalizer values are not all finite: {name}")
        if name.endswith(("denom", "scale")) and not (arr > 0).all():
            raise FieldError(f"normalizer {name} {'must be' if n is None else 'values must all be'} > 0")
        fields[name] = float(arr) if n is None else arr
    return Normalizer(**fields)


# ---------------------------------------------------------------------------
# Generators: boolean-clause loop family
# ---------------------------------------------------------------------------

# A clause trigger maps a (rows, n_bits) 0/1 matrix to a boolean row mask.
Trigger = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Clause:
    """Boolean trigger over the secret bits plus the loop coefficient it fires."""

    trigger: Trigger
    coeff: float


def _clause_slopes(clauses: Sequence[Clause], x: np.ndarray) -> np.ndarray:
    slope = np.zeros(x.shape[0])
    for clause in clauses:
        slope += clause.coeff * clause.trigger(x).astype(np.float64)
    return slope


def _all_bit_vectors(n_bits: int) -> np.ndarray:
    idx = np.arange(2**n_bits, dtype=np.int64)
    return ((idx[:, None] >> np.arange(n_bits)) & 1).astype(np.float64)


def gen_rn(
    n_secret_bits: int,
    clauses: Sequence[Clause],
    n_public_bits: int,
    rows: int,
    noise_std: float,
    seed: int,
) -> TraceDataset:
    """Synthesize traces where true clauses fire loops linear in the public integer.

    Each row draws x uniformly from the secret bit vectors and y uniformly from
    the public bit vectors (read as an integer N); the time is
    base + sum of coefficients of satisfied clauses times N, perturbed by
    multiplicative Gaussian noise.
    """
    if n_secret_bits < 1:
        raise DatasetError("need at least one secret bit")
    if not clauses:
        raise DatasetError("clause list is empty")
    coeffs = [c.coeff for c in clauses]
    if len(set(coeffs)) != len(coeffs) or any(c <= 0 for c in coeffs):
        raise DatasetError("clause coefficients must be distinct and positive")

    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, size=(rows, n_secret_bits)).astype(np.float64)
    y = rng.integers(0, 2, size=(rows, n_public_bits)).astype(np.float64)
    n_public = y @ (2.0 ** np.arange(n_public_bits))
    t = GEN_BASE_TIME + _clause_slopes(clauses, x) * n_public
    if noise_std > 0:
        t = np.maximum(t * (1.0 + noise_std * rng.standard_normal(rows)), 0.0)

    schema = FeatureSchema(
        tuple((f"s_{j}", Binary()) for j in range(n_secret_bits)),
        tuple(f"p_{j}" for j in range(n_public_bits)),
        "cost-units",
    )
    return TraceDataset(schema, x, y, t)


def rn_ground_truth(n_secret_bits: int, clauses: Sequence[Clause]) -> list[int]:
    """Brute-force class sizes: secrets grouped by their total loop coefficient."""
    if n_secret_bits > 24:
        raise DatasetError("ground-truth enumeration capped at 24 secret bits")
    x_all = _all_bit_vectors(n_secret_bits)
    slopes = _clause_slopes(clauses, x_all)
    _, counts = np.unique(slopes, return_counts=True)
    return sorted((int(c) for c in counts), reverse=True)


@dataclass(frozen=True)
class RnPreset:
    n_secret_bits: int
    clauses: tuple[Clause, ...]

    def ground_truth_sizes(self) -> list[int]:
        return rn_ground_truth(self.n_secret_bits, self.clauses)


def _b(x: np.ndarray, j: int) -> np.ndarray:
    return x[:, j] == 1


# Public bits of every preset's traces; the loop bound is their binary value.
RN_PRESET_PUBLIC_BITS = 7


# Preset clause sets; the comment gives the class partition they induce and the
# resulting conditional entropy of a uniform secret given the timing class.
RN_PRESETS: dict[str, RnPreset] = {
    # {3, 1} -> 1.19 bits
    "R_2": RnPreset(2, (Clause(lambda x: _b(x, 0) & _b(x, 1), 1.0),)),
    # {3, 3, 2} -> 1.44 bits
    "R_3": RnPreset(
        3,
        (
            Clause(lambda x: ~_b(x, 1) & (_b(x, 0) | _b(x, 2)), 1.0),
            Clause(lambda x: _b(x, 0) & _b(x, 1), 2.0),
        ),
    ),
    # {6, 5, 5} -> 2.42 bits
    "R_4": RnPreset(
        4,
        (
            Clause(lambda x: _b(x, 0) & (_b(x, 1) | (_b(x, 2) & _b(x, 3))), 1.0),
            Clause(lambda x: ~_b(x, 0) & (_b(x, 1) | (_b(x, 2) & _b(x, 3))), 2.0),
        ),
    ),
    # {11, 11, 10} -> 3.42 bits
    "R_5": RnPreset(
        5,
        (
            Clause(lambda x: _b(x, 0) & (_b(x, 1) | (_b(x, 2) & (_b(x, 3) | _b(x, 4)))), 1.0),
            Clause(lambda x: ~_b(x, 0) & (_b(x, 1) | (_b(x, 2) & _b(x, 3))), 2.0),
        ),
    ),
    # {16, 16, 16, 16} -> 4.00 bits
    "R_6": RnPreset(
        6,
        (
            Clause(lambda x: _b(x, 0) & ~_b(x, 1), 1.0),
            Clause(lambda x: ~_b(x, 0) & _b(x, 1), 2.0),
            Clause(lambda x: _b(x, 0) & _b(x, 1), 4.0),
        ),
    ),
    # {32, 32, 32, 32} -> 5.00 bits
    "R_7": RnPreset(
        7,
        (
            Clause(lambda x: _b(x, 0) & ~_b(x, 1), 1.0),
            Clause(lambda x: ~_b(x, 0) & _b(x, 1), 2.0),
            Clause(lambda x: _b(x, 0) & _b(x, 1), 4.0),
        ),
    ),
}


def rn_preset(name: str) -> RnPreset:
    try:
        return RN_PRESETS[name]
    except KeyError:
        raise DatasetError(f"unknown preset {name!r}; choose from {sorted(RN_PRESETS)}") from None


def gen_rn_preset(name: str, rows: int, noise_std: float = 0.02, seed: int = 0) -> TraceDataset:
    p = rn_preset(name)
    return gen_rn(p.n_secret_bits, p.clauses, RN_PRESET_PUBLIC_BITS, rows, noise_std, seed)


# ---------------------------------------------------------------------------
# Generators: branch-loop complexity family
# ---------------------------------------------------------------------------


def _bl_times(behaviors: np.ndarray, n_public: np.ndarray) -> np.ndarray:
    """Cost of each behavior: the complexity shape is behavior % 4 out of
    {log N, N, N log N, N^2} and the constant factor is behavior // 4 + 1."""
    factor = behaviors // 4 + 1
    shape = behaviors % 4
    logn = np.log2(n_public)
    base = np.select(
        [shape == 0, shape == 1, shape == 2],
        [logn, n_public, n_public * logn],
        default=n_public**2,
    )
    return factor * base


def gen_bl(
    variants_per_complexity: int,
    n_secret_bits: int,
    public_range: IntRange,
    rows: int,
    noise_std: float,
    seed: int,
) -> TraceDataset:
    """Synthesize traces where the secret integer selects one of 4*i loop behaviors."""
    i = variants_per_complexity
    if i < 1:
        raise DatasetError("need at least one variant per complexity")
    if n_secret_bits < 1 or 4 * i > 2**n_secret_bits:
        raise DatasetError(f"{n_secret_bits} secret bits cannot index {4 * i} behaviors")
    if public_range.lo < 1:
        raise DatasetError("public range must start at 1 or above (log of the input)")

    rng = np.random.default_rng(seed)
    secrets = rng.integers(0, 2**n_secret_bits, size=rows)
    x = ((secrets[:, None] >> np.arange(n_secret_bits)) & 1).astype(np.float64)
    n_public = rng.integers(public_range.lo, public_range.hi + 1, size=rows).astype(np.float64)
    t = _bl_times(secrets % (4 * i), n_public)
    if noise_std > 0:
        t = np.maximum(t * (1.0 + noise_std * rng.standard_normal(rows)), 0.0)

    schema = FeatureSchema(
        tuple((f"s_{j}", Binary()) for j in range(n_secret_bits)),
        ("p_N",),
        "cost-units",
    )
    return TraceDataset(schema, x, n_public[:, None], t)


def bl_ground_truth(variants_per_complexity: int, n_secret_bits: int) -> list[int]:
    """Class sizes of the secret-to-behavior map s -> s mod 4*i."""
    n_behaviors = 4 * variants_per_complexity
    total = 2**n_secret_bits
    counts = [total // n_behaviors] * n_behaviors
    for b in range(total % n_behaviors):
        counts[b] += 1
    return sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# Generator: sorting-application regression demo (no secret features)
# ---------------------------------------------------------------------------

SORT_ALGORITHMS = ("bubble", "selection", "insertion", "quick", "merge", "bucket")

_SORT_NOISE_STD = 0.02


def sort_cost(algorithm: str, length: int) -> float:
    """Average-case comparison cost of one sorting algorithm on one input length."""
    n = float(length)
    logn = math.log2(n) if n > 1 else 0.0
    costs = {
        "bubble": 0.75 * n * n,
        "selection": 0.5 * n * n,
        "insertion": 0.25 * n * n,
        "quick": 1.39 * n * logn,
        "merge": n * logn,
        "bucket": 2.0 * n,
    }
    try:
        return costs[algorithm]
    except KeyError:
        raise DatasetError(f"unknown sorting algorithm {algorithm!r}") from None


def gen_sort_demo(max_len: int, rows: int, seed: int) -> TraceDataset:
    """Regression-only demo: one-hot algorithm selector + array length -> cost."""
    if max_len < 100:
        raise DatasetError("max_len must be at least 100")
    rng = np.random.default_rng(seed)
    alg_idx = rng.integers(0, len(SORT_ALGORITHMS), size=rows)
    lengths = rng.integers(100, max_len + 1, size=rows)
    t = np.array([sort_cost(SORT_ALGORITHMS[a], n) for a, n in zip(alg_idx, lengths)])
    t = np.maximum(t * (1.0 + _SORT_NOISE_STD * rng.standard_normal(rows)), 0.0)

    onehot = np.zeros((rows, len(SORT_ALGORITHMS)))
    onehot[np.arange(rows), alg_idx] = 1.0
    y = np.hstack([onehot, lengths[:, None].astype(np.float64)])
    schema = FeatureSchema(
        (),
        tuple(f"p_alg_{a}" for a in SORT_ALGORITHMS) + ("p_len",),
        "cost-units",
    )
    return TraceDataset(schema, np.zeros((rows, 0)), y, t)
