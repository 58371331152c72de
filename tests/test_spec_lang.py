"""Parser and validation tests for the einsum spec language."""

import dataclasses
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llm_energy import (
    DimensionBindings,
    ModelSpec,
    SpecError,
    ValidationError,
    parse_equation,
    parse_model_spec,
    validate_bindings,
)
from llm_energy.interpreter import local_size
from llm_energy.spec_lang import OpSpec, as_number, degree_kind, load_json, read_csv

import reference


def test_parse_basic_contraction():
    eq = parse_equation("bsm,mf->bsf")
    assert eq.input_operands == ("bsm", "mf")
    assert eq.output_operand == "bsf"
    assert eq.summation_symbols == {"m"}
    assert eq.group_symbols == frozenset()


def test_parse_qkv_projection():
    eq = parse_equation("bsm,miKh->bsiKh")
    assert eq.summation_symbols == {"m"}


def test_parse_grouped_attention():
    eq = parse_equation("bKrsh,bKzh->bKrsz")
    assert eq.summation_symbols == {"h"}
    assert eq.group_symbols == {"b", "K"}


def test_parse_scatter_broadcast():
    eq = parse_equation("bsm->bsmA")
    assert eq.is_single_input
    assert eq.summation_symbols == frozenset()


def test_round_trip():
    for text in ("bsm,mf->bsf", "bKrsh,bKzh->bKrsz", "bsm->bsmA",
                 "ETm,EmF->ETF", "bsAm,bsA->bsm"):
        assert parse_equation(parse_equation(text).to_text()) == parse_equation(text)


@pytest.mark.parametrize("bad", [
    "bsm,mf",            # no arrow
    "bsm,mf->bsf->x",    # two arrows
    "bbm,mf->bf",        # repeated symbol in operand
    "bsm,mf->bsq",       # output symbol in no input
    "bsm->bs",           # single-input not a broadcast
    ",mf->f",            # empty operand
    "b m,mf->bf",        # non-symbol character
])
def test_parse_errors(bad):
    with pytest.raises(SpecError):
        parse_equation(bad)


def test_summation_matches_set_difference():
    rng = random.Random(7)
    for _ in range(200):
        syms = rng.sample(string.ascii_letters, rng.randint(2, 8))
        cut1, cut2 = sorted(rng.sample(range(1, len(syms)), 2)) if len(syms) > 2 else (1, 1)
        a = "".join(syms[:max(cut1, 1)]) or syms[0]
        b = "".join(syms[cut1:]) or syms[-1]
        if not a or not b:
            continue
        out = "".join(s for s in syms if rng.random() < 0.6)
        text = f"{a},{b}->{out}"
        try:
            eq = parse_equation(text)
        except SpecError:
            continue
        assert eq.summation_symbols == (set(a) | set(b)) - set(out)


def test_model_spec_parses_dense(dense_spec):
    assert len(dense_spec.ops) == 5
    assert [op.label for op in dense_spec.ops] == [
        "QKV Projection", "Attention", "Output Projection",
        "Gate & Up Projection", "Down Projection"]


def test_model_spec_parses_moe(moe_spec):
    assert len(moe_spec.ops) == 8
    labels = [op.label for op in moe_spec.ops]
    for needed in ("Router", "Scatter", "Reduction"):
        assert needed in labels


def test_partial_overlap_fields_rejected():
    doc = {"ops": [{"eq": "bsf,fm->bsm", "parallel": "f",
                    "overlap_stage": 4, "label": "x"}]}
    with pytest.raises(SpecError):
        parse_model_spec(doc)


def test_overlap_requires_summed_parallel():
    doc = {"ops": [{"eq": "bsm,mf->bsf", "parallel": "f", "overlap_stage": 2,
                    "overlap_sm": 8, "overlap": "s", "label": "x"}]}
    with pytest.raises(SpecError):
        parse_model_spec(doc)


def test_unknown_field_rejected():
    with pytest.raises(SpecError):
        parse_model_spec({"ops": [{"eq": "bsm,mf->bsf", "bogus": 1}]})


def test_parallel_symbol_must_be_in_equation():
    with pytest.raises(SpecError):
        parse_model_spec({"ops": [{"eq": "bsm,mf->bsf", "parallel": "Q"}]})


def test_derived_symbol_consistency():
    DimensionBindings({"r": 4, "i": 6}).check_derived()
    with pytest.raises(ValidationError):
        DimensionBindings({"r": 4, "i": 7}).check_derived()
    with pytest.raises(ValidationError):
        DimensionBindings({"f": 100, "F": 300}).check_derived()
    with pytest.raises(ValidationError):
        DimensionBindings({"r": 4, "K": 8, "H": 16}).check_derived()


def test_validate_bindings_shard_arithmetic(dense_spec, dims_8b):
    info = validate_bindings(dense_spec, dims_8b, {"tp": 2})
    # K=8 per-GPU halves under TP2
    assert local_size("K", dims_8b, {"K": info.degrees["tp"]}) == 4


def test_validate_bindings_divisibility_error(dense_spec, dims_8b):
    with pytest.raises(ValidationError):
        validate_bindings(dense_spec, dims_8b, {"tp": 3})


def test_validate_bindings_expert_shard(moe_spec, dims_moe):
    info = validate_bindings(moe_spec, dims_moe, {"tp": 2, "ep": 4})
    # 128 experts over EP4
    assert local_size("E", dims_moe, {"E": info.degrees["ep"]}) == 32


def test_validate_bindings_unbound_symbol(dense_spec):
    with pytest.raises(ValidationError):
        validate_bindings(dense_spec, DimensionBindings({"m": 64}), {})


def test_degree_kind():
    assert degree_kind("E") == "ep"
    assert degree_kind("A") == "ep"
    assert degree_kind("K") == "tp"
    assert degree_kind("f") == "tp"


def test_fixture_annotations_fail_when_symbol_removed(dense_spec):
    # Moving an op's parallel annotation to a symbol outside its equation
    # must be rejected at validation time.
    broken_ops = []
    for op in dense_spec.ops:
        if op.label == "Down Projection":
            op = dataclasses.replace(op, parallel="E")
        broken_ops.append(op)
    with pytest.raises(SpecError):
        ModelSpec(tuple(broken_ops), dense_spec.layers).validate()


def test_spec_serialization_round_trip(dense_spec, moe_spec, cp_spec):
    for spec in (dense_spec, moe_spec, cp_spec):
        again = parse_model_spec(spec.to_dict())
        assert again == spec


def test_attention_requires_attn_eqs():
    with pytest.raises(SpecError):
        OpSpec(equation=None, label="Attention").validate()


def test_dims_aliases(dims_moe):
    assert dims_moe.size("E") == 128
    assert dims_moe.size("A") == 8
    assert dims_moe.layers == 48
    assert dims_moe.dtype_bytes == 2


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_load_json_rejects_non_finite_constants(tmp_path, constant):
    path = tmp_path / "f.json"
    path.write_text(f'{{"label": {constant}}}')
    with pytest.raises(ValidationError, match="f.json"):
        load_json(path)


_CELL = st.sampled_from(["1", "-3", " 4 ", "07", "2"])
_ODD_LINE = st.sampled_from(["", "   ", "# note", "  # indented", "#", "1,x", "x",
                             "1,,2", "1e3,2", "nan,1,2,3", "a#b,1", "1, 2 ,3,4,5"])


@st.composite
def _csv_text(draw):
    """Lines of rows of one width, with comments, blank lines and faults,
    often more than one block of rows long."""
    width = draw(st.integers(1, 4))
    row = st.lists(_CELL, min_size=width, max_size=width).map(",".join)
    pattern = draw(st.lists(st.one_of(row, row, _ODD_LINE), min_size=1, max_size=6))
    lines = pattern * draw(st.integers(1, 300))
    for index, line in draw(st.lists(st.tuples(st.integers(0, 10 ** 4), _ODD_LINE),
                                     max_size=3)):
        lines[index % len(lines)] = line
    return width, lines


@settings(max_examples=200, deadline=None)
@given(text=_csv_text(), header=st.sampled_from([None, "match", "other"]),
       converters=st.lists(st.sampled_from([int, float, None, str, str.strip]),
                           max_size=4),
       rest=st.sampled_from([None, int, str]),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_read_csv_equals_line_by_line_reference(tmp_path_factory, text, header,
                                                converters, rest, newline):
    width, lines = text
    names = tuple("abcd"[:width])
    if header is not None:
        lines = ["# made by hand", ",".join(names), *lines]
        if header == "other":
            names = names[::-1] + ("z",)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(newline.join(lines).encode() + b"\n")

    def outcome(read):
        try:
            return read(path, header and names, converters, rest)
        except ValidationError as exc:
            return str(exc)

    # repr: a NaN cell is not equal to itself.
    assert repr(outcome(read_csv)) == repr(outcome(reference.read_csv))


def test_read_csv_names_the_line_of_a_fault(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# note\na, b\n\n1,2\n3,x\n")
    assert read_csv(path, ("a", "b"), [int, None]) == ([[1, 3], []], ["note"])
    with pytest.raises(ValidationError, match=r"t\.csv:5: "):
        read_csv(path, ("a", "b"), [int, int])
    path.write_text("0,1,2\n1,3,4\n")
    assert read_csv(path, None, [None], rest=int) == ([[], [1, 3], [2, 4]], [])
    path.write_text("0,1,2\n1,3\n")
    with pytest.raises(ValidationError, match=r"t\.csv:2: expected 3 columns"):
        read_csv(path, None, [None], rest=int)


@pytest.mark.parametrize("digits", [309, 401, 5000])
def test_an_int_too_large_for_a_float_is_named_by_its_size(digits):
    # Not by its text: Python writes no int of more than 4300 digits.
    with pytest.raises(ValidationError) as info:
        as_number(10**digits, "x")
    assert str(info.value) == (f"x must be a finite number, got an integer of "
                               f"{(10**digits).bit_length()} bits, too large "
                               "for a float")
    assert as_number(10**308, "x") == 10**308
