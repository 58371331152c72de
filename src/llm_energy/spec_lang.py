"""Einsum-based model specification language.

A model is an ordered list of ops, each either a two-operand einsum
contraction ("bsm,mf->bsf"), a single-input broadcast/scatter
("bsm->bsmA"), or the reserved ``attention`` opcode carrying sub-equations.
Ops may be annotated with a sharded dimension (``parallel``), a
context-parallel dimension (``cp_dim``), and overlap settings.

Symbols are single characters. Dimension sizes are supplied separately via
:class:`DimensionBindings` so one spec covers many model scales.
"""

from __future__ import annotations

import errno
import io
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Optional, Sequence

from .errors import SpecError, ValidationError

ATTENTION_OPCODE = "attention"

# Degree kinds for annotated symbols: expert-side symbols shard over the
# expert-parallel group, everything else over the tensor-parallel group.
EXPERT_SYMBOLS = frozenset({"E", "A"})


# Symbols bound per phase at evaluation time, not from the dims file:
# batch, query tokens, context tokens and MoE tokens-per-expert.
RUNTIME_SYMBOLS = frozenset({"b", "s", "z", "T"})


def degree_kind(symbol: str) -> str:
    return "ep" if symbol in EXPERT_SYMBOLS else "tp"


@dataclass(frozen=True)
class EinsumEquation:
    """A parsed einsum equation with derived symbol classes."""

    input_operands: tuple[str, ...]
    output_operand: str
    summation_symbols: frozenset[str]
    group_symbols: frozenset[str]

    @property
    def is_single_input(self) -> bool:
        return len(self.input_operands) == 1

    def all_symbols(self) -> frozenset[str]:
        syms = set(self.output_operand)
        for op in self.input_operands:
            syms.update(op)
        return frozenset(syms)

    def to_text(self) -> str:
        return ",".join(self.input_operands) + "->" + self.output_operand


def parse_equation(text: str) -> EinsumEquation:
    """Parse ``"bsm,mf->bsf"`` into an :class:`EinsumEquation`.

    Raises :class:`SpecError` on malformed arrow/comma structure, repeated
    symbols within one operand, or (for multi-input equations) output
    symbols absent from every input. Single-input equations must be
    broadcast/scatter forms: the output symbol set is a superset of the
    input's.
    """
    if not isinstance(text, str):
        raise SpecError(f"equation must be a string, got {type(text).__name__}")
    if text.count("->") != 1:
        raise SpecError(f"equation {text!r} must contain exactly one '->'")
    lhs, output = text.split("->")
    inputs = lhs.split(",")
    if not output or any(not op for op in inputs):
        raise SpecError(f"equation {text!r} has an empty operand")
    for operand in list(inputs) + [output]:
        if not all(ch.isalnum() for ch in operand):
            raise SpecError(f"operand {operand!r} contains non-symbol characters")
        if len(set(operand)) != len(operand):
            raise SpecError(f"operand {operand!r} repeats a symbol")

    input_syms = set().union(*(set(op) for op in inputs))
    out_syms = set(output)
    if len(inputs) == 1:
        if not out_syms >= set(inputs[0]):
            raise SpecError(
                f"single-input equation {text!r} must be a broadcast "
                "(output symbols must include all input symbols)"
            )
    else:
        missing = out_syms - input_syms
        if missing:
            raise SpecError(
                f"output symbols {sorted(missing)} of {text!r} appear in no input"
            )

    summation = frozenset(input_syms - out_syms)
    groups = frozenset(
        s for s in out_syms if all(s in op for op in inputs)
    ) if len(inputs) > 1 else frozenset()
    return EinsumEquation(tuple(inputs), output, summation, groups)


def check_overlap_setting(stages, sm_comm, what: str,
                          error: type = ValidationError) -> tuple[int, int]:
    """(stages, sm_comm) if both are integers >= 1, not bools or floats;
    else ``error`` naming ``what``. Each is held to :func:`as_int`'s rule
    too, and one too large for a float is named by its size alone, not by
    ``what``, which may spell it. The hardware and the shape are checked
    when the overlap is planned."""
    if not all(type(v) is int and v >= 1 for v in (stages, sm_comm)):
        raise error(f"{what}: stages and sm must be integers >= 1")
    try:
        as_int(stages, "overlap stages")
        as_int(sm_comm, "overlap sm")
    except ValidationError as exc:
        raise error(str(exc)) from None
    return stages, sm_comm


OverlapSetting = Optional[tuple[int, int]]  # (stages, sm_comm) or None


def parse_overlap(value) -> OverlapSetting:
    """An overlap setting from its text or JSON form: None or "none",
    "stages:sm", or [stages, sm], both integers >= 1."""
    if value is None or value == "none":
        return None
    try:
        stages, sm = map(int, value.split(":")) if isinstance(value, str) else value
    except (TypeError, ValueError):
        raise ValidationError(f"overlap setting {value!r} must be 'none', "
                              "'stages:sm' or [stages, sm]") from None
    return check_overlap_setting(stages, sm, f"overlap setting {value!r}")


def format_overlap(setting: OverlapSetting) -> Optional[str]:
    """The "stages:sm" text of an overlap setting, or None for no overlap."""
    return None if setting is None else f"{setting[0]}:{setting[1]}"


@dataclass(frozen=True)
class OpSpec:
    """One operation of a model spec, with parallelism/overlap annotations."""

    equation: Optional[EinsumEquation]  # None for the attention opcode
    label: str
    parallel: Optional[str] = None
    cp_dim: Optional[str] = None
    overlap_stage: Optional[int] = None
    overlap_sm: Optional[int] = None
    overlap_dim: Optional[str] = None
    attn_eqs: tuple["OpSpec", ...] = ()

    @property
    def is_attention(self) -> bool:
        return self.equation is None

    def validate(self) -> None:
        overlap_fields = (self.overlap_stage, self.overlap_sm, self.overlap_dim)
        n_set = sum(f is not None for f in overlap_fields)
        if n_set not in (0, 3):
            raise SpecError(
                f"op {self.label!r}: overlap_stage/overlap_sm/overlap must be "
                "all present or all absent"
            )
        if self.is_attention:
            if not self.attn_eqs:
                raise SpecError(f"op {self.label!r}: attention opcode requires attn_eqs")
            for sub in self.attn_eqs:
                sub.validate()
        else:
            if self.attn_eqs:
                raise SpecError(f"op {self.label!r}: attn_eqs only valid with 'attention'")
            syms = self.equation.all_symbols()
            for name, sym in (("parallel", self.parallel),
                              ("cp_dim", self.cp_dim),
                              ("overlap", self.overlap_dim)):
                if sym is not None and sym not in syms:
                    raise SpecError(
                        f"op {self.label!r}: {name} symbol {sym!r} not in equation "
                        f"{self.equation.to_text()!r}"
                    )
        if n_set == 3:
            check_overlap_setting(self.overlap_stage, self.overlap_sm,
                                  f"op {self.label!r} overlap", SpecError)
            if self.parallel is None:
                raise SpecError(f"op {self.label!r}: overlap requires a parallel symbol")
            if not self.is_attention and self.parallel not in self.equation.summation_symbols:
                raise SpecError(
                    f"op {self.label!r}: overlap requires the parallel symbol to be "
                    "summed (no collective to hide otherwise)"
                )

    def to_dict(self) -> dict:
        d: dict = {"eq": ATTENTION_OPCODE if self.is_attention else self.equation.to_text(),
                   "label": self.label}
        if self.parallel is not None:
            d["parallel"] = self.parallel
        if self.cp_dim is not None:
            d["cp_dim"] = self.cp_dim
        if self.overlap_stage is not None:
            d["overlap_stage"] = self.overlap_stage
            d["overlap_sm"] = self.overlap_sm
            d["overlap"] = self.overlap_dim
        if self.attn_eqs:
            d["attn_eqs"] = [sub.to_dict() for sub in self.attn_eqs]
        return d


_OP_KEYS = {"eq", "parallel", "cp_dim", "overlap_stage", "overlap_sm",
            "overlap", "label", "attn_eqs"}


def _parse_op(obj: dict, index: int) -> OpSpec:
    if not isinstance(obj, dict):
        raise SpecError(f"op #{index} must be a JSON object, got {obj!r}")
    unknown = set(obj) - _OP_KEYS
    if unknown:
        raise SpecError(f"op #{index}: unknown field(s) {sorted(unknown)}")
    if "eq" not in obj:
        raise SpecError(f"op #{index}: missing 'eq'")
    eq_text = obj["eq"]
    label = obj.get("label", f"op{index}")
    subs = obj.get("attn_eqs", [])
    if not isinstance(subs, list):
        raise SpecError(f"op #{index}: attn_eqs must be an array")
    attn_eqs = tuple(_parse_op(sub, i) for i, sub in enumerate(subs))
    equation = None if eq_text == ATTENTION_OPCODE else parse_equation(eq_text)
    return OpSpec(
        equation=equation,
        label=label,
        parallel=obj.get("parallel"),
        cp_dim=obj.get("cp_dim"),
        overlap_stage=obj.get("overlap_stage"),
        overlap_sm=obj.get("overlap_sm"),
        overlap_dim=obj.get("overlap"),
        attn_eqs=attn_eqs,
    )


@dataclass(frozen=True)
class ModelSpec:
    """An ordered op list describing one transformer layer, repeated ``layers`` times."""

    ops: tuple[OpSpec, ...]
    layers: int = 1

    def validate(self) -> None:
        if not self.ops:
            raise SpecError("model spec has no ops")
        if type(self.layers) is not int or self.layers < 1:
            raise SpecError(f"layers must be an integer >= 1, got {self.layers!r}")
        for op in self.ops:
            op.validate()

    def symbols(self) -> frozenset[str]:
        syms: set[str] = set()
        stack = list(self.ops)
        while stack:
            op = stack.pop()
            if op.is_attention:
                stack.extend(op.attn_eqs)
            else:
                syms |= op.equation.all_symbols()
        return frozenset(syms)

    def to_dict(self) -> dict:
        return {"layers": self.layers, "ops": [op.to_dict() for op in self.ops]}


def parse_model_spec(document: dict) -> ModelSpec:
    """Parse a decoded model-spec document (see :func:`load_model_spec`)."""
    if not isinstance(document, dict):
        raise SpecError("model spec must be a JSON object")
    unknown = set(document) - {"layers", "ops", "format_version"}
    if unknown:
        raise SpecError(f"model spec: unknown field(s) {sorted(unknown)}")
    ops_raw = document.get("ops")
    if not isinstance(ops_raw, list) or not ops_raw:
        raise SpecError("model spec needs a nonempty 'ops' array")
    spec = ModelSpec(
        ops=tuple(_parse_op(op, i) for i, op in enumerate(ops_raw)),
        layers=document.get("layers", 1),
    )
    spec.validate()
    return spec


# Every input file is read here: a syntax fault is a ValidationError naming the
# file (and, for CSV, the line). Value ranges are checked by the types built
# from the file, whose errors ``in_file`` prefixes with the path.


# Bytes per read past an input file's size as fstat gave it.
_READ_SIZE = 1 << 16


class InputFile:
    """An input file's path that reads the file once: its bytes,
    :attr:`data`, are read when first asked for (so where its loader first
    opens it, and an unreadable file fails in the loaders' order), and
    :func:`open_text` decodes them instead of opening the file again. It
    stands for the path wherever the loaders use one: ``str`` and
    ``os.fspath`` give the path's.

    The bytes are read as ``open(path, "rb").read()`` reads them, with the
    same errors, but through ``os.open`` and ``os.read`` to the end of the
    file, without a buffered file object."""

    __slots__ = ("path", "_data")

    def __init__(self, path):
        self.path, self._data = path, None

    @property
    def data(self) -> bytes:
        if self._data is None:
            path = os.fspath(self.path)
            fd = os.open(path, os.O_RDONLY)
            try:
                status = os.fstat(fd)
                if stat.S_ISDIR(status.st_mode):
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
                chunks = [os.read(fd, status.st_size + 1)]
                while chunks[-1]:
                    chunks.append(os.read(fd, _READ_SIZE))
            finally:
                os.close(fd)
            self._data = b"".join(chunks)
        return self._data

    def __fspath__(self) -> str:
        return os.fspath(self.path)

    def __str__(self) -> str:
        return str(self.path)


@contextmanager
def open_text(path):
    """One input file, open as UTF-8 text; a byte that is not UTF-8 is a
    :class:`ValidationError` naming the file. An :class:`InputFile`'s
    bytes are decoded as ``open`` decodes a file, lazily and without a
    copy of them."""
    fh = (io.TextIOWrapper(io.BytesIO(path.data), encoding="utf-8")
          if isinstance(path, InputFile) else open(path, encoding="utf-8"))
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def load_json(path):
    """Decode one JSON input file; a file that is not JSON, or that uses the
    ``NaN``/``Infinity`` constants, is a :class:`ValidationError` naming it."""
    with open_text(path) as fh:
        text = fh.read()
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from None


@contextmanager
def in_file(path):
    """Name ``path`` in a SpecError or ValidationError raised inside."""
    try:
        yield
    except (SpecError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def as_int(value, what: str) -> int:
    """``value`` if an integer, not a bool, float or string (the rule of
    :func:`check_overlap_setting`), that a float can hold, since sizes are
    priced as floats; else a ValidationError naming ``what``. An int too
    large for a float is named by its size, as :func:`as_number` does."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise ValidationError(f"{what} must be an integer that fits a float, got "
                              f"one of {value.bit_length()} bits") from None
    return value


def int_cell(name: str):
    """A :func:`read_csv` converter of the integer column ``name``: ``int``
    held to :func:`as_int`'s rule (a cell too large for a float is named)."""
    return lambda cell: as_int(int(cell), name)


def as_number(value, what: str):
    """``value`` if a finite int or float (not a bool); else a ValidationError.
    An int too large for a float is named by its size: Python will not
    write an int of more than 4300 digits as text."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise ValidationError(f"{what} must be a finite number, got an integer "
                              f"of {value.bit_length()} bits, too large for a "
                              f"float") from None
    if not finite:
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    return value


def _csv_rows(lines, comments: list):
    """(line number, text) of each line that is neither blank nor a ``#``
    comment; the text of each comment goes to ``comments``."""
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if line[:1] == "#":
            comments.append(line.lstrip("# "))
        elif line:
            yield lineno, line


_BLOCK_ROWS = 256


def _row_blocks(fh, lineno: int, rows: list, numbers: list, comments: list):
    """Blocks of ``_BLOCK_ROWS`` rows (fewer in the last) from the lines of
    ``fh`` after line ``lineno``, as (rows, line numbers), where ``rows``
    and ``numbers`` already hold the first. Rows are as :func:`_csv_rows`
    gives them; a block of lines with no blank line and no ``#`` is taken
    whole, without a look at each line."""
    while lines := list(map(str.strip, islice(fh, _BLOCK_ROWS - len(rows)))):
        if "" in lines or "#" in ",".join(lines):
            for lineno, line in enumerate(lines, lineno + 1):
                if line[:1] == "#":
                    comments.append(line.lstrip("# "))
                elif line:
                    rows.append(line)
                    numbers.append(lineno)
        else:
            rows += lines
            numbers += range(lineno + 1, lineno + 1 + len(lines))
            lineno += len(lines)
        if len(rows) == _BLOCK_ROWS:
            yield rows, numbers
            rows, numbers = [], []
    if rows:
        yield rows, numbers


def csv_blocks(path, fh, header: Optional[Sequence[str]],
               comments: list) -> tuple[int, Iterator[tuple[str, list, list]]]:
    """The width of the comma-separated input file ``path``, open as ``fh``,
    and its rows a block of ``_BLOCK_ROWS`` at a time, as (text, cells, line
    numbers): ``text`` joins the block's rows with ``",\\n"``, and ``cells``
    are its cells in row order. The comments go to ``comments``.

    With a ``header``, the first row must be exactly that header and is not
    in a block. Every row must be as wide as the first; a row that is not
    is named ``path:line`` when its block is reached.
    """
    lineno, first = next(_csv_rows(fh, comments), (1, ""))
    head = first.split(",") if first else []
    if header is not None and [cell.strip() for cell in head] != list(header):
        raise ValidationError(f"{path}:{lineno}: header must be {','.join(header)}")
    data = ([first], [lineno]) if header is None and first else ([], [])
    width = len(head)
    return width, _checked_blocks(path, width,
                                  _row_blocks(fh, lineno, *data, comments))


def _checked_blocks(path, width: int, blocks) -> Iterator[tuple[str, list, list]]:
    for rows, numbers in blocks:
        # Joined by ",\n", each row but the first starts its first cell
        # with the only "\n" of that cell, so the rows are all ``width``
        # wide exactly when those cells fall at every ``width``-th place.
        text = ",\n".join(rows)
        cells = text.split(",")
        starts = ",".join(cells[width::width])
        if (len(cells) != width * len(rows)
                or starts.count("\n") != len(rows) - 1):
            lineno = next(n for n, row in zip(numbers, rows)
                          if row.count(",") != width - 1)
            raise ValidationError(f"{path}:{lineno}: expected {width} columns")
        if starts:
            cells[width::width] = starts[1:].split(",\n")
        yield text, cells, numbers


def read_csv(path, header: Optional[Sequence[str]], converters: Sequence,
             rest=None) -> tuple[list[list], list[str]]:
    """The columns and the comments of one comma-separated input file.

    With a ``header``, the first row must be exactly that header. Every row
    must be as wide as the first. Column ``i`` is converted by
    ``converters[i]`` (``int``, ``float`` or any callable that raises
    ``ValueError``) and any further column by ``rest``; a column whose
    converter is None is not read and comes back empty. Rows are split and
    converted a block of ``_BLOCK_ROWS`` at a time (:func:`csv_blocks`), a
    whole column of the block per ``map``, so a long file's cells are never
    all held as strings at once. A fault is named ``path:line``: the first
    in the first block that has one, a bad width before a bad cell, the
    leftmost column first.
    """
    comments: list[str] = []
    with open_text(path) as fh:
        width, blocks = csv_blocks(path, fh, header, comments)
        converters = list(converters) + [rest] * (width - len(converters))
        columns: list[list] = [[] for _ in converters]
        for _, cells, numbers in blocks:
            for i, column, convert in zip(range(width), columns, converters):
                if convert is None:
                    continue
                try:
                    column.extend(map(convert, cells[i::width]))
                except ValueError:
                    for lineno, cell in zip(numbers, cells[i::width]):
                        try:
                            convert(cell)
                        except ValueError as exc:
                            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    return columns, comments


def load_model_spec(path) -> ModelSpec:
    document = load_json(path)
    with in_file(path):
        return parse_model_spec(document)


# Appendix-style derived-symbol relations, checked when all parts are bound:
# i = 2 + r (fused QKV), F = 2*f (fused gate&up), H = r*K (GQA).
_DERIVED = (
    ("i", lambda d: 2 + d["r"], ("r",), "i = 2 + r"),
    ("F", lambda d: 2 * d["f"], ("f",), "F = 2*f"),
    ("H", lambda d: d["r"] * d["K"], ("r", "K"), "H = r*K"),
)


@dataclass(frozen=True)
class DimensionBindings:
    """Symbol -> size map plus the data type width in bytes."""

    sizes: dict[str, int] = field(default_factory=dict)
    dtype_bytes: int = 2
    layers: Optional[int] = None

    def __post_init__(self):
        if self.dtype_bytes < 1:
            raise ValidationError("dtype_bytes must be a positive integer")
        if self.layers is not None and self.layers < 1:
            raise ValidationError("layers must be >= 1")
        for sym, size in self.sizes.items():
            if len(sym) != 1:
                raise ValidationError(f"symbol {sym!r} is not a single character")
            if size <= 0:
                raise ValidationError(f"symbol {sym!r} has non-positive size {size}")

    def check_derived(self) -> None:
        for sym, fn, deps, rule in _DERIVED:
            if sym in self.sizes and all(d in self.sizes for d in deps):
                expected = fn(self.sizes)
                if self.sizes[sym] != expected:
                    raise ValidationError(
                        f"inconsistent bindings: {rule} requires {sym}={expected}, "
                        f"got {self.sizes[sym]}"
                    )

    def with_sizes(self, **extra) -> "DimensionBindings":
        merged = dict(self.sizes)
        merged.update(extra)
        return DimensionBindings(merged, self.dtype_bytes, self.layers)

    def size(self, symbol: str):
        try:
            return self.sizes[symbol]
        except KeyError:
            raise ValidationError(f"unbound symbol {symbol!r}") from None


# Dims-file keys that are not single-character einsum symbols.
_DIMS_ALIASES = {"num_experts": "E", "top_k": "A"}
_DIMS_META = {"dtype_bytes", "layers", "format_version"}


def load_bindings(path) -> DimensionBindings:
    """Load a flat key->integer dims file (symbols plus dtype_bytes/layers aliases)."""
    raw = load_json(path)
    with in_file(path):
        if not isinstance(raw, dict):
            raise ValidationError("dims file must be a JSON object")
        sizes = {_DIMS_ALIASES.get(key, key): as_int(value, f"dims key {key!r}")
                 for key, value in raw.items() if key not in _DIMS_META}
        dims = DimensionBindings(
            sizes,
            dtype_bytes=as_int(raw.get("dtype_bytes", 2), "dims key 'dtype_bytes'"),
            layers=(as_int(raw["layers"], "dims key 'layers'")
                    if "layers" in raw else None),
        )
        dims.check_derived()
        return dims


@dataclass(frozen=True)
class EvalContextInfo:
    """Result of cross-checking a spec against bindings and parallel degrees."""

    spec: ModelSpec
    dims: DimensionBindings
    degrees: dict[str, int]  # {"tp": n, "ep": n, "cp": n}


def validate_bindings(spec: ModelSpec, dims: DimensionBindings,
                      degrees: dict[str, int]) -> EvalContextInfo:
    """Check that every spec symbol is bound and every annotated dimension shards evenly."""
    spec.validate()
    dims.check_derived()
    full_degrees = {"tp": 1, "ep": 1, "cp": 1}
    for kind, deg in degrees.items():
        if kind not in full_degrees:
            raise ValidationError(f"unknown parallelism kind {kind!r}")
        if as_int(deg, f"{kind} degree") < 1:
            raise ValidationError(f"{kind} degree must be >= 1, got {deg}")
        full_degrees[kind] = deg

    unbound = spec.symbols() - set(dims.sizes) - RUNTIME_SYMBOLS
    if unbound:
        raise ValidationError(f"unbound symbol(s) {sorted(unbound)}")

    def check_op(op: OpSpec) -> None:
        for sym, kind in ((op.parallel, None), (op.cp_dim, "cp")):
            if sym is None or sym in RUNTIME_SYMBOLS:
                continue
            deg = full_degrees[kind or degree_kind(sym)]
            size = dims.size(sym)
            if size % deg:
                raise ValidationError(
                    f"op {op.label!r}: symbol {sym!r} size {size} not divisible "
                    f"by degree {deg}"
                )
        for sub in op.attn_eqs:
            check_op(sub)

    for op in spec.ops:
        check_op(op)
    return EvalContextInfo(spec, dims, full_degrees)
