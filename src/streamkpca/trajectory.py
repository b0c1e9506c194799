"""The run's table and its file: _Head, what a reader of run_stream's
units needs before step 1, the Trajectory that holds the units' rows in
memory as one table, and the trajectory CSV with its sidecar.

File formats:
  * trajectories -- CSV with header ``s,phi_norm_sq,log_ratio`` and
    the direction columns ``vhat_0..vhat_{m-1}``; line i holds the run's
    table row i (Trajectory), each cell orjson's shortest round-trip
    spelling of the float64, which float() reads back bit for bit (1e16
    and 0.00001 where repr writes 1e+16 and 1e-05), in the one grammar
    the reader takes (_parse_block);
  * each trajectory CSV has a ``<name>.meta.json`` sidecar carrying the
    constants a post-hoc check needs (eta, feature map, init direction,
    whose width is m, oracle alpha/beta and v*) and its row count n;
    write_trajectory writes both files as the run's units reach it, and
    read_trajectory reads them back as one record, a TrajectoryFile.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NoReturn

import numpy as np
import orjson

from . import linalg
from .checks import _jsonable
from .config import (
    _FEATURE_MAP_KEYS,
    ConfigError,
    _check_keys,
    _check_oracle_cap,
    _is_finite_number,
    _is_finite_vector,
    _is_nonnegative_integer,
    _is_nonnegative_number,
    _nullable,
    _read_json_object,
    _write_json,
)
from .featuremaps import FeatureMapSpec
from .oja import OjaConfig, StreamState, run_stream


class TrajectoryParseError(ValueError):
    """A trajectory file is malformed; the message names a byte offset."""


STEP_COLUMNS = ("s", "phi_norm_sq", "log_ratio")


@dataclass
class _Head:
    """What a run's readers need before step 1. ``seed`` keys the
    checker's pair sampling; the harness sets it to the trial seed."""

    config: OjaConfig
    init_v_hat: np.ndarray
    n: int
    seed: int

    @property
    def m(self) -> int:
        return int(self.init_v_hat.shape[0])


@dataclass
class Trajectory:
    """A run held in memory: config and its step table.

    ``table`` is (n+1, 3+m): row i holds step i's s, ||f||^2 and log
    ratio, then the direction after it; row 0 holds three zeros, then
    the start ``init_v_hat``. ``seed`` is _Head's.

    The table is kept in C order (a copy is made of any other), so each
    row is contiguous, and made read-only.

    Raises:
        ValueError: a table that is not 2-D with a row and at least 4
            columns, or that holds a non-finite value.
    """

    config: OjaConfig
    table: np.ndarray
    seed: int = 0

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64, order="C")
        if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 4:
            raise ValueError(
                f"table has shape {table.shape}, not (n+1, 3+m) with n >= 0, m >= 1"
            )
        # The checks' inequalities compare against NaN as false or pass
        # it through min/max, so a non-finite value is refused here.
        if not np.isfinite(table).all():
            cell = np.argwhere(~np.isfinite(table))[0].tolist()
            raise ValueError(f"non-finite value in table at {cell}")
        table.flags.writeable = False
        self.table = table

    @classmethod
    def record(cls, xs, cfg: OjaConfig, init: StreamState, *, seed: int = 0):
        """run_stream over xs from init, its units collected into a table."""
        rows = [np.concatenate((np.zeros(3), init.v_hat))[None, :]]
        run_stream(xs, cfg, init, into=[lambda unit: rows.append(unit[1:].copy())])
        return cls(cfg, np.concatenate(rows), seed=seed)

    @property
    def n(self) -> int:
        return self.table.shape[0] - 1

    @property
    def m(self) -> int:
        return self.table.shape[1] - 3

    @property
    def init_v_hat(self) -> np.ndarray:
        """The start, row 0's direction (a read-only view)."""
        return self.table[0, 3:]

    def units(self) -> Iterator[np.ndarray]:
        """The steps as units of linalg.BLOCK_ROWS steps, the first
        starting at step 1, the last maybe shorter: each the k + 1 table
        rows from the one before its first step to its last (views)."""
        rows = linalg.BLOCK_ROWS
        for start in range(0, self.n, rows):
            yield self.table[start : start + rows + 1]


@contextlib.contextmanager
def write_trajectory(path, head, *, v_star, alpha, beta):
    """Yield the function that writes a unit's rows after its first to
    a trajectory CSV (each step's s, phi_norm_sq and log ratio, then the
    direction after it as vhat_* columns); on exit, with head.n rows
    written, write the sidecar from ``head`` (a _Head or a Trajectory)
    and the oracle's v_star, alpha, beta, which check_trajectory_file
    certifies against. The sidecar is held to read_trajectory's rules
    before the CSV is opened. If the block raises, neither file is left
    at the path.

    Each cell is orjson's shortest round-trip spelling of the float64,
    which reads back bit for bit, written a quarter of _chunk_rows' rows per
    orjson call. Reruns on one install write the same bytes. The
    spelling may differ between orjson versions, the values it reads
    back to never do.

    Raises:
        ConfigError: a sidecar read_trajectory refuses (_sidecar_fields).
        ValueError: a non-finite cell (_csv_rows), or other than head.n
            rows written.
    """
    path = Path(path)
    meta = _jsonable(
        {
            "eta": head.config.eta,
            "norm_bound": head.config.norm_bound,
            "feature_map": head.config.feature_map.to_dict(),
            "init_v_hat": [float(v) for v in head.init_v_hat],
            "seed": head.seed,
            "n": head.n,
            "alpha": alpha,
            "beta": beta,
            "v_star": [float(v) for v in v_star],
        }
    )
    _sidecar_fields(meta, meta_where(path))
    header = [*STEP_COLUMNS, *(f"vhat_{k}" for k in range(head.m))]
    # orjson's output holds up to four times its text (its capacity grows
    # through 4, 16, 64 and 256 KiB), and _csv_rows holds two copies of
    # the text beside it: a quarter of a parse chunk's rows keep the three
    # together at most about _CHUNK_BYTES, which is also glibc's default
    # trim threshold, so a chunk's memory goes back to the heap, not to
    # the system for the next chunk to fault in again.
    rows = max(1, _chunk_rows(len(header)) // 4)
    written = 0

    def write(unit: np.ndarray) -> None:
        nonlocal written
        for start in range(1, len(unit), rows):
            fh.write(_csv_rows(unit[start : start + rows], written + start))
        written += len(unit) - 1

    try:
        with open(path, "wb") as fh:
            fh.write((",".join(header) + "\n").encode("utf-8"))
            yield write
        if written != head.n:
            raise ValueError(f"wrote {written} steps of a run of n = {head.n}")
    except BaseException:
        path.unlink(missing_ok=True)
        meta_path_for(path).unlink(missing_ok=True)
        raise
    _write_json(meta_path_for(path), meta)


def _csv_rows(block: np.ndarray, first_step: int) -> bytes:
    """CSV lines of a finite float64 block, the table rows of steps
    first_step, ..., in one orjson pass.

    orjson spells each cell with the shortest digits that round-trip,
    in the bytes 0-9 . e - only, so _parse_block reads every block the
    writer makes. It would spell NaN as null, so the block must be
    finite.

    Raises:
        ValueError: a cell is NaN or infinite; the message names its
            step and its CSV column (0 is the s column).
    """
    finite = np.isfinite(block)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(
            f"cannot write the non-finite cell {float(block[i, j])!r} "
            f"at step {first_step + i}, column {j}"
        )
    doc = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    # A split and join outruns bytes.replace of the 3-byte separator.
    return b"\n".join(doc[2:-2].split(b"],[")) + b"\n"


def meta_path_for(path) -> Path:
    return Path(path).with_suffix(".meta.json")


def meta_where(path) -> str:
    """How a ConfigError refusing the sidecar of the trajectory CSV at
    path begins: it names the sidecar's file."""
    return f"bad trajectory metadata {meta_path_for(path).name}"


def read_trajectory(csv_path) -> TrajectoryFile:
    """Open a trajectory CSV and its meta sidecar as one record: every
    sidecar key, and every width the sidecar and the CSV's header state,
    is checked here, before any row is parsed; the rows are parsed only
    as ``TrajectoryFile.units`` reaches them.

    Raises:
        TrajectoryParseError: a bad header, or a file too short for the
            sidecar's n rows; the message names the byte offset.
        ConfigError: a missing or malformed sidecar (_sidecar_fields), or
            other than its init_v_hat's width of vhat_* columns.
    """
    csv_path = Path(csv_path)
    meta_file = meta_path_for(csv_path)
    if not meta_file.exists():
        raise ConfigError(f"missing trajectory metadata: {meta_file}")
    where = meta_where(csv_path)
    fields = _sidecar_fields(_read_json_object(meta_file, where), where)
    data_start = _read_header(csv_path, len(fields["init_v_hat"]), fields["n"], where)
    return TrajectoryFile(**fields, path=csv_path, data_start=data_start)


# Meta sidecar key, checked by _check_keys: every one is required, and
# only norm_bound may be null.
_META_KEYS = {
    "eta": (
        True,
        lambda v: _is_finite_number(v) and 0.0 < v < 0.1,
        "a number strictly inside (0, 0.1)",
    ),
    "feature_map": (True, _FEATURE_MAP_KEYS, None),
    "init_v_hat": (True, _is_finite_vector, "a list of finite numbers"),
    "seed": (True, _is_nonnegative_integer, "an integer >= 0"),
    "n": (True, _is_nonnegative_integer, "an integer >= 0"),
    "norm_bound": (True, _nullable(_is_finite_number), "null or finite"),
    "alpha": (True, _is_nonnegative_number, "finite >= 0"),
    "beta": (True, _is_nonnegative_number, "finite >= 0"),
    "v_star": (True, _is_finite_vector, "a list of finite numbers"),
}


def _sidecar_fields(meta: dict, where: str) -> dict:
    """The _Head and oracle fields of a TrajectoryFile from a sidecar
    document, checked by every rule a sidecar keeps; write_trajectory
    holds the sidecar it writes to the same rules.

    Raises:
        ConfigError: beginning with where and naming the key: a key
            missing, mistyped or unknown, a width other than
            init_v_hat's (feature_map, v_star), an init_v_hat or v_star
            not of unit length, a feature map wider than the oracle
            cap, or a norm_bound not positive or too large for its eta.
    """
    _check_keys(meta, _META_KEYS, where)
    m = len(meta["init_v_hat"])
    # Every width the sidecar states is the start's, which the header's
    # vhat_* columns must be too. They are compared before the feature
    # map is built, whose rff draws take time in its width.
    widths = {"feature_map": meta["feature_map"]["feature_dim"]}
    widths["v_star"] = len(meta["v_star"])
    for key, width in widths.items():
        if width != m:
            raise ConfigError(
                f"{where}: key {key!r} gives width {width}, key 'init_v_hat' {m}"
            )
    _check_oracle_cap(meta["feature_map"], f"{where}: ")
    try:
        feature_map = FeatureMapSpec.from_dict(meta["feature_map"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: key 'feature_map': {exc}") from exc
    # Every run starts at a unit direction, and the checks measure it
    # against a unit v*.
    unit = {}
    for key in ("init_v_hat", "v_star"):
        try:
            unit[key] = linalg.as_unit_vector(meta[key], key)
        except ValueError as exc:
            raise ConfigError(
                f"{where}: key {key!r} must have unit norm, within "
                f"{linalg.UNIT_NORM_TOL!r}"
            ) from exc
        unit[key].flags.writeable = False
    try:
        config = OjaConfig(meta["eta"], feature_map, norm_bound=meta["norm_bound"])
    except ValueError as exc:
        raise ConfigError(f"{where}: key 'norm_bound' with key 'eta': {exc}") from exc
    return dict(
        config=config, init_v_hat=unit["init_v_hat"], n=meta["n"],
        seed=meta["seed"], v_star=unit["v_star"], alpha=float(meta["alpha"]),
        beta=float(meta["beta"]),
    )


def _read_header(csv_path: Path, m: int, n: int, where: str) -> int:
    """The byte offset where the rows of a trajectory CSV with m vhat_*
    columns start, once its header is checked and its size found large
    enough for n rows. Other than m columns is a ConfigError that begins
    with where, the sidecar's."""
    width = len(STEP_COLUMNS)
    # Lines split on "\n" only; a "\r" stays part of its field.
    with open(csv_path, "rb") as fh:
        raw_header = fh.readline()
        size = os.fstat(fh.fileno()).st_size
    if not raw_header:
        raise TrajectoryParseError("empty trajectory file at byte 0")
    header_line = _decode_line(raw_header, 0)
    header = header_line.split(",")
    if tuple(header[:width]) != STEP_COLUMNS:
        raise TrajectoryParseError(
            f"bad header at byte 0: expected {','.join(STEP_COLUMNS)}"
        )
    for k, name in enumerate(header[width:]):
        if name != f"vhat_{k}":
            raise TrajectoryParseError(
                f"bad snapshot column {name!r} at byte "
                f"{_byte_offset(0, header_line, width + k)}"
            )
    if len(header) - width != m:
        raise ConfigError(
            f"{where}: key 'init_v_hat' has {m} entries, the trajectory "
            f"{len(header) - width} vhat_* columns"
        )
    # A row of len(header) cells takes at least 2 * len(header) - 1
    # bytes: an n the file cannot hold is refused before any row is read.
    if n * (2 * len(header) - 1) > size - len(raw_header):
        raise TrajectoryParseError(
            f"trajectory ends at byte {size}, too short for the n = {n} "
            f"rows its sidecar records"
        )
    return len(raw_header)


# A chunk's text, parsed by units or written by write_trajectory, stays
# below this many bytes: glibc's default mmap threshold, so the text and
# its values are heap memory that the next chunk reuses, where a larger
# one is a fresh mapping whose pages fault in again each time. The most
# bytes a cell takes, with its comma, is about 24.
_CHUNK_BYTES = 1 << 17
_CELL_BYTES = 24


def _chunk_rows(n_fields: int) -> int:
    """Rows per parse chunk for rows of n_fields cells: a power of two,
    so chunks tile a unit of linalg.BLOCK_ROWS rows (64 at m = 78)."""
    fit = max(1, _CHUNK_BYTES // (_CELL_BYTES * n_fields))
    return 1 << (fit.bit_length() - 1)


@dataclass
class TrajectoryFile(_Head):
    """A trajectory CSV and its sidecar, checked by read_trajectory: the
    run's _Head, the oracle's v_star, alpha and beta, and ``units``,
    which parses the rows as it goes. Its table's row 0 is three zeros
    and the sidecar's init_v_hat."""

    v_star: np.ndarray  # read-only, unit norm
    alpha: float
    beta: float
    path: Path
    data_start: int  # byte offset of row 1

    def units(self):
        """The rows as units of linalg.BLOCK_ROWS steps, the first at
        step 1: the k + 1 table rows Trajectory.units gives, parsed
        _chunk_rows rows at a time into one buffer that each unit
        reuses. A defect raises where the pass reaches it, so the error
        names the first defect in the file; so does a row count other
        than n. Once every row is read, alpha + beta must be at most what
        the rows allow.

        Raises:
            TrajectoryParseError: malformed rows, or a row count other
                than n; the message names the byte offset.
            ConfigError: alpha + beta above eta * sum(phi_norm_sq).
        """
        n, m = self.n, self.m
        n_fields = len(STEP_COLUMNS) + m
        chunk = _chunk_rows(n_fields)
        unit_rows = linalg.BLOCK_ROWS
        # Row 0 holds the row before the unit's first step.
        buffer = np.empty((min(unit_rows, n) + 1, n_fields))
        buffer[0, :3] = 0.0
        buffer[0, 3:] = self.init_v_hat
        trace = 0.0
        offset = self.data_start
        # A 64 KiB read buffer: at the default 8 KiB, a poly2 row of
        # 1.5 KB straddles the buffer's end every few lines, and reading
        # the benchmark's poly2 file took 7 ms more.
        with open(self.path, "rb", buffering=_CHUNK_BYTES // 2) as fh:
            fh.seek(offset)
            first = 1
            while first <= n:
                k = min(unit_rows, n + 1 - first)
                filled = 0
                while filled < k:
                    row = first + filled
                    lines = list(itertools.islice(fh, min(chunk, k - filled)))
                    if not lines:
                        raise TrajectoryParseError(
                            f"trajectory ends at byte {offset} after row {row - 1}, "
                            f"short of the n = {n} rows its sidecar records"
                        )
                    values = _parse_block(lines, n_fields)
                    if values is None:
                        _raise_at_defect(lines, row, n_fields, offset)
                    buffer[1 + filled : 1 + filled + len(lines)] = values
                    offset += sum(map(len, lines))
                    filled += len(lines)
                rows = buffer[: k + 1]
                with np.errstate(over="ignore"):
                    trace = float(linalg.carried(trace, rows[1:, 1])[-1])
                yield rows
                buffer[0] = rows[k]
                first += k
            if fh.read(1):
                raise TrajectoryParseError(
                    f"row {n + 1} at byte {offset}: beyond the n = {n} rows its "
                    "sidecar records"
                )
        # For a unit v*, alpha + beta <= eta * trace(M), and the trace of
        # the second moment is the sum of the recorded ||phi||^2; the
        # 1e-9 relative slack absorbs the two sums' rounding.
        most = self.config.eta * trace
        if self.alpha + self.beta > most * (1.0 + 1e-9):
            raise ConfigError(
                f"{meta_where(self.path)}: "
                f"key 'alpha' + key 'beta' = {self.alpha + self.beta!r} exceeds "
                f"key 'eta' * sum(phi_norm_sq) = {most!r}, the most a run gives"
            )


# The bytes of a cell: a JSON number, with e as its only exponent mark.
_NUMBER_BYTES = b"0123456789.e+-"


def _parse_block(lines: list[bytes], n_fields: int) -> np.ndarray | None:
    """The (len(lines), n_fields) values of data rows, or None unless
    every row is in the trajectory grammar: n_fields finite JSON numbers
    spelled in _NUMBER_BYTES, split by commas.

    The lines are parsed as one JSON array of rows. k rows of numbers
    take exactly the frame's k + 1 opening brackets, so no line held a
    bracket. Each cell reads to float()'s bits, but -0, which JSON reads
    as the integer 0, so as 0.0.
    """
    framed = [b"[[" + lines[0], *lines[1:]]
    framed[-1] += b"]]"
    doc = b"],[".join(framed)
    if doc.translate(None, _NUMBER_BYTES + b",\n[]"):
        return None
    try:
        block = np.array(orjson.loads(doc), dtype=np.float64)
    except ValueError:  # not JSON, or rows of unequal shape
        return None
    if block.shape != (len(lines), n_fields) or not np.isfinite(block).all():
        return None
    return block


def _raise_at_defect(
    lines: list[bytes], first_row: int, n_fields: int, line_start: int
) -> NoReturn:
    """Raise at the first defect of data rows first_row, ... (the first
    line starts at byte line_start), a block _parse_block refused, by
    walking them in its grammar: invalid UTF-8, a row of other than
    n_fields cells, then the row's first cell out of the grammar."""
    for row, raw in enumerate(lines, first_row):
        line = _decode_line(raw, line_start)
        cells = line.split(",")
        if len(cells) != n_fields:
            raise TrajectoryParseError(
                f"row {row} at byte {line_start}: "
                f"expected {n_fields} fields, found {len(cells)}"
            )
        for j, cell in enumerate(cells):
            defect = _cell_defect(cell)
            if defect:
                at = _byte_offset(line_start, line, j)
                raise TrajectoryParseError(f"{defect} at byte {at}")
        line_start += len(raw)
    raise AssertionError(f"_parse_block refused rows {first_row}.. in the grammar")


def _cell_defect(cell: str) -> str | None:
    """Why _parse_block refuses a cell as a row of one field, or None if
    it takes it: non-finite where float() reads inf or nan, else
    unparseable."""
    if _parse_block([cell.encode("utf-8")], 1) is not None:
        return None
    try:
        if not math.isfinite(float(cell)):
            return f"non-finite field {cell!r}"
    except ValueError:
        pass
    return f"unparseable field {cell!r}"


def _decode_line(raw: bytes, line_start: int) -> str:
    """A line read from the file, decoded, without its newline."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TrajectoryParseError(
            f"invalid UTF-8 at byte {line_start + exc.start}"
        ) from exc
    return line[:-1] if line.endswith("\n") else line


def _byte_offset(line_start: int, line: str, j: int) -> int:
    """Byte offset of field j of a line that starts at byte line_start."""
    before = ",".join(line.split(",")[:j])
    return line_start + len(before.encode("utf-8")) + (1 if j > 0 else 0)
