"""Timing-trace datasets: CSV ingestion, schemas, normalization, splits, generators.

A trace row is (secret vector x, public vector y, execution time t >= 0).
Secret features live in finite integer domains so that downstream class
counting can enumerate them exactly.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

# Offset added to generated times so multiplicative noise acts on a positive base.
GEN_BASE_TIME = 10.0


class DatasetError(ValueError):
    """Base class for trace-data errors."""


class MissingTimeColumn(DatasetError):
    pass


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


class DatasetTooSmall(DatasetError):
    pass


class EmptyClauseList(DatasetError):
    pass


class TooFewSecretBits(DatasetError):
    pass


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


@dataclass(frozen=True)
class IntRange:
    """Unit-step integer domain [lo, hi]; constant domains are rejected."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise DatasetError(f"IntRange lo {self.lo} > hi {self.hi}")
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
        t = np.asarray(t, dtype=np.float64).reshape(-1)
        n_rows = t.shape[0]
        x = np.asarray(x, dtype=np.float64).reshape(n_rows, schema.n_secret)
        y = np.asarray(y, dtype=np.float64).reshape(n_rows, schema.n_public)
        if validate:
            columns = [*zip(schema.public_features, y.T), ("time", t)]
            bad = _first_non_finite(col for _, col in columns)
            if bad is not None:
                (name, col), row = columns[bad[0]], bad[1]
                raise NonFiniteValue(row, name, float(col[row]))
            if np.any(t < 0):
                raise DatasetError("negative execution time")
            for j, (name, dom) in enumerate(schema.secret_features):
                col = x[:, j]
                bad = (col != np.floor(col)) | (col < dom.lo) | (col > dom.hi)
                if np.any(bad):
                    row = int(np.argmax(bad))
                    raise SecretValueOutOfDomain(row, name, float(col[row]))
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


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _domain_from_json(obj) -> Domain:
    if obj == "binary":
        return Binary()
    if isinstance(obj, dict) and "int" in obj:
        bounds = obj["int"]
        if not (
            isinstance(bounds, list)
            and len(bounds) == 2
            and all(type(v) is int and INT64_MIN <= v <= INT64_MAX for v in bounds)
        ):
            raise DatasetError(f"int domain must be [lo, hi], two integers within int64, got {bounds!r}")
        return IntRange(*bounds)
    raise DatasetError(f"unrecognized domain descriptor: {obj!r}")


def schema_to_json(schema: FeatureSchema) -> dict:
    return {
        "secret": [{"name": n, "domain": _domain_to_json(d)} for n, d in schema.secret_features],
        "public": list(schema.public_features),
        "time_unit": schema.time_unit,
    }


def _secret_feature_from_json(entry) -> tuple[str, Domain]:
    try:
        return entry["name"], _domain_from_json(entry["domain"])
    except DatasetError as exc:
        raise DatasetError(f"secret feature {entry['name']!r}: {exc}") from None


def schema_from_json(obj: dict) -> FeatureSchema:
    secret = tuple(_secret_feature_from_json(e) for e in obj.get("secret", []))
    public = tuple(obj.get("public", []))
    return FeatureSchema(secret, public, obj.get("time_unit", "seconds"))


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
            raise MissingTimeColumn(f"{path}: empty file") from None
        parsed = _parse_body(fh, len(header))

    if not header or header[-1] != "time":
        raise MissingTimeColumn(f"{path}: final column must be 'time'")
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
    x = parsed[:, [i for i, _ in secret_cols]]
    # Secret columns must be finite before their domains are inferred; the
    # dataset checks the public and time columns.
    bad = _first_non_finite(x.T)
    if bad is not None:
        c, r = secret_cols[bad[0]][0], bad[1]
        raise NonFiniteCell(r + 2, header[c], _cell_text(path, r + 2, c))
    y = parsed[:, [i for i, _ in public_cols]]
    t = parsed[:, -1]

    schema_override = None
    if sidecar is not None:
        with Path(sidecar).open(encoding="utf-8") as fh:
            schema_override = schema_from_json(json.load(fh))
        declared = [n for n, _ in schema_override.secret_features]
        if declared != [n for _, n in secret_cols]:
            raise DatasetError(f"sidecar secret features {declared} do not match columns")

    secret_features = []
    for j, (_, name) in enumerate(secret_cols):
        col = x[:, j]
        if np.any(col != np.floor(col)):
            r = int(np.argmax(col != np.floor(col)))
            raise SecretValueOutOfDomain(r + 2, name, float(col[r]))
        if schema_override is not None:
            dom = schema_override.secret_features[j][1]
            bad = (col < dom.lo) | (col > dom.hi)
            if np.any(bad):
                r = int(np.argmax(bad))
                raise SecretValueOutOfDomain(r + 2, name, float(col[r]))
        elif n_rows and np.all((col == 0) | (col == 1)):
            dom = Binary()
        else:
            dom = IntRange(int(col.min()) if n_rows else 0, int(col.max()) if n_rows else 1)
        secret_features.append((name, dom))

    time_unit = schema_override.time_unit if schema_override else "seconds"
    schema = FeatureSchema(tuple(secret_features), tuple(n for _, n in public_cols), time_unit)
    try:
        return TraceDataset(schema, x, y, t)
    except NonFiniteValue as exc:
        # Public names are distinct and carry a p_ prefix, so this is the cell.
        c, r = header.index(exc.col), exc.row
        raise NonFiniteCell(r + 2, exc.col, _cell_text(path, r + 2, c)) from None


def _first_non_finite(columns) -> tuple[int, int] | None:
    """(column, row) of the first non-finite value, scanning the columns in
    order; checked one column at a time so no table-sized mask is built."""
    for j, col in enumerate(columns):
        finite = np.isfinite(col)
        if not finite.all():
            return j, int(np.argmin(finite))
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


# Rows formatted per write in write_csv: enough to amortize the per-column
# calls, few enough that the cell strings of one block stay small.
WRITE_BLOCK = 4096


def _fmt_cell(v: float) -> str:
    if v == math.floor(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt_column(col: np.ndarray) -> list[str]:
    """`_fmt_cell` of every value in a column of finite values."""
    whole = (col == np.floor(col)) & (np.abs(col) < 1e15)
    if not whole.all():
        return [_fmt_cell(v) for v in col.tolist()]
    # Each distinct value is formatted once: a binary column takes two str() calls.
    values, index = np.unique(col.astype(np.int64), return_inverse=True)
    return np.array(list(map(str, values.tolist())), dtype=object)[index].tolist()


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
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, ds.n_rows, WRITE_BLOCK):
            rows = slice(start, start + WRITE_BLOCK)
            columns = [*ds.x[rows].T, *ds.y[rows].T, ds.t[rows]]
            finite = np.isfinite(np.column_stack(columns))
            if not finite.all():
                # The first NaN or infinity in row order raises, as in `_fmt_cell`.
                r, c = np.unravel_index(np.argmin(finite), finite.shape)
                _fmt_cell(float(columns[c][r]))
            fh.write("\r\n".join(map(",".join, zip(*map(_fmt_column, columns)))) + "\r\n")


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
        raise DatasetTooSmall(f"cannot split {n} rows with test fraction {test_fraction}")
    perm = np.random.default_rng(seed).permutation(n)
    return ds.subset(perm[n_test:]), ds.subset(perm[:n_test])


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


def normalizer_from_json(obj: dict) -> Normalizer:
    return Normalizer(
        secret_shift=np.asarray(obj["secret_shift"], dtype=np.float64),
        secret_denom=np.asarray(obj["secret_denom"], dtype=np.float64),
        public_shift=np.asarray(obj["public_shift"], dtype=np.float64),
        public_scale=np.asarray(obj["public_scale"], dtype=np.float64),
        time_shift=float(obj["time_shift"]),
        time_scale=float(obj["time_scale"]),
    )


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
        raise EmptyClauseList("clause list is empty")
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
    name: str
    n_secret_bits: int
    clauses: tuple[Clause, ...]
    n_public_bits: int = 7

    def ground_truth_sizes(self) -> list[int]:
        return rn_ground_truth(self.n_secret_bits, self.clauses)


def _b(x: np.ndarray, j: int) -> np.ndarray:
    return x[:, j] == 1


# Preset clause sets; the comment gives the class partition they induce and the
# resulting conditional entropy of a uniform secret given the timing class.
RN_PRESETS: dict[str, RnPreset] = {
    # {3, 1} -> 1.19 bits
    "R_2": RnPreset("R_2", 2, (Clause(lambda x: _b(x, 0) & _b(x, 1), 1.0),)),
    # {3, 3, 2} -> 1.44 bits
    "R_3": RnPreset(
        "R_3",
        3,
        (
            Clause(lambda x: ~_b(x, 1) & (_b(x, 0) | _b(x, 2)), 1.0),
            Clause(lambda x: _b(x, 0) & _b(x, 1), 2.0),
        ),
    ),
    # {6, 5, 5} -> 2.42 bits
    "R_4": RnPreset(
        "R_4",
        4,
        (
            Clause(lambda x: _b(x, 0) & (_b(x, 1) | (_b(x, 2) & _b(x, 3))), 1.0),
            Clause(lambda x: ~_b(x, 0) & (_b(x, 1) | (_b(x, 2) & _b(x, 3))), 2.0),
        ),
    ),
    # {11, 11, 10} -> 3.42 bits
    "R_5": RnPreset(
        "R_5",
        5,
        (
            Clause(lambda x: _b(x, 0) & (_b(x, 1) | (_b(x, 2) & (_b(x, 3) | _b(x, 4)))), 1.0),
            Clause(lambda x: ~_b(x, 0) & (_b(x, 1) | (_b(x, 2) & _b(x, 3))), 2.0),
        ),
    ),
    # {16, 16, 16, 16} -> 4.00 bits
    "R_6": RnPreset(
        "R_6",
        6,
        (
            Clause(lambda x: _b(x, 0) & ~_b(x, 1), 1.0),
            Clause(lambda x: ~_b(x, 0) & _b(x, 1), 2.0),
            Clause(lambda x: _b(x, 0) & _b(x, 1), 4.0),
        ),
    ),
    # {32, 32, 32, 32} -> 5.00 bits
    "R_7": RnPreset(
        "R_7",
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
    return gen_rn(p.n_secret_bits, p.clauses, p.n_public_bits, rows, noise_std, seed)


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
        raise TooFewSecretBits(f"{n_secret_bits} secret bits cannot index {4 * i} behaviors")
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
