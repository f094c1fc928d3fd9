import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockred.data import (
    load_power_network,
    reference_dominant_poles,
    reference_solvents,
)
from blockred.errors import DimensionMismatch, InvariantViolation, ParseError
from blockred.matpoly import MatrixPolynomial
from blockred.solvents import denominator_from_solvents
from blockred.sysdoc import (
    build_system,
    document_from_system,
    format_document,
    load_document,
    load_system,
    parse_document,
    save_document,
)
from blockred.sysrep import (
    BlockDiagonalRealization,
    DiagonalBlock,
    RightMFD,
    StateSpace,
)

from conftest import probe_points, random_stable_system

from test_solvents import separated_matrices


def test_state_space_round_trip(tmp_path, rng):
    ss = random_stable_system(rng, 5, 2, 3)
    path = tmp_path / "plant.sys"
    save_document(ss, path, name="plant", description="round trip check")
    back = load_system(path)
    assert isinstance(back, StateSpace)
    assert_allclose(back.A, ss.A)  # %.17g keeps doubles exactly
    assert_allclose(back.B, ss.B)
    assert_allclose(back.C, ss.C)
    assert_allclose(back.D, ss.D)


def test_state_space_without_states_round_trip(tmp_path):
    # C has no columns, so its rows take no lines in the document
    ss = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)),
                    np.arange(6.0).reshape(3, 2))
    path = tmp_path / "gain.sys"
    save_document(ss, path)
    back = load_system(path)
    assert back.n == 0 and back.C.shape == (3, 0)
    assert_allclose(back.D, ss.D)


def test_right_mfd_round_trip(tmp_path, rng):
    D = denominator_from_solvents(separated_matrices(rng, 2, 2))
    N = MatrixPolynomial([rng.standard_normal((3, 2)) for _ in range(2)])
    E = rng.standard_normal((3, 2))
    f = RightMFD(N, D, E)
    path = tmp_path / "fraction.sys"
    save_document(f, path)
    back = load_system(path)
    assert isinstance(back, RightMFD)
    assert back.D.degree == 2
    for a, b in zip(back.D.coeffs, f.D.coeffs):
        assert_allclose(a, b)
    assert_allclose(back.feedthrough, E)
    for s in probe_points(rng, 4):
        assert_allclose(back.transfer(s), f.transfer(s), rtol=1e-12)


def test_block_diagonal_round_trip(tmp_path, rng):
    blocks = (
        DiagonalBlock(np.diag([-1.0, -2.0]), rng.standard_normal((2, 2)),
                      rng.standard_normal((2, 2))),
        DiagonalBlock(-np.eye(1), rng.standard_normal((1, 2)),
                      rng.standard_normal((2, 1))),
    )
    bd = BlockDiagonalRealization(blocks)
    path = tmp_path / "blocks.sys"
    save_document(bd, path)
    back = load_system(path)
    assert isinstance(back, BlockDiagonalRealization)
    assert len(back.blocks) == 2
    assert back.blocks[1].size == 1
    for s in probe_points(rng, 4):
        assert_allclose(back.transfer(s), bd.transfer(s), rtol=1e-12)


def test_format_is_deterministic(rng):
    ss = random_stable_system(rng, 3, 1, 1)
    doc = document_from_system(ss, name="thing")
    assert format_document(doc) == format_document(doc)
    # a re-parse of the output formats back to the same bytes
    text = format_document(doc)
    again = format_document(parse_document(text))
    assert again == text


def test_comments_and_blank_lines_ignored():
    text = """\
# a comment before anything
type: state_space  # trailing comment
name: demo
n: 2
m: 1
p: 1

matrix A 2 2
-1 0   # row comment
0 -2

matrix B 2 1
1
1
matrix C 1 2
1 0
"""
    sys = build_system(parse_document(text))
    assert isinstance(sys, StateSpace)
    assert_allclose(sys.A, np.diag([-1.0, -2.0]))


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_document("type: state_space\nnot a header line\n")
    assert e.value.line == 2 and e.value.col == 1

    bad_number = "type: state_space\nmatrix A 1 2\n1.0 oops\n"
    with pytest.raises(ParseError) as e:
        parse_document(bad_number)
    assert e.value.line == 3
    assert e.value.col == 5  # points into the offending token

    with pytest.raises(ParseError) as e:
        parse_document("type: state_space\nmatrix A 2 2\n1 2\n")
    assert e.value.line == 3  # file ends inside the matrix


def test_parse_error_variants():
    with pytest.raises(ParseError):
        parse_document("type: banana\n")
    with pytest.raises(ParseError):
        parse_document("type: state_space\ntype: state_space\n")
    with pytest.raises(ParseError):
        parse_document("type: state_space\ncolour: green\n")
    with pytest.raises(ParseError):
        parse_document("type: state_space\nn: two\n")
    with pytest.raises(ParseError):
        parse_document("type: state_space\nn: -1\n")
    with pytest.raises(ParseError):
        parse_document("n: 2\n")  # no type at all
    with pytest.raises(ParseError):
        parse_document(
            "type: state_space\nmatrix A 1 1\n1\nmatrix A 1 1\n1\n"
        )
    with pytest.raises(ParseError):
        parse_document("type: state_space\nmatrix A 1 2\n1 2 3\n")


def test_load_document_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_document(tmp_path / "does_not_exist.sys")


def test_build_system_cross_checks():
    base = "type: state_space\nn: 2\nm: 1\np: 1\n"
    amat = "matrix A 2 2\n-1 0\n0 -2\n"
    bmat = "matrix B 2 1\n1\n1\n"
    cmat = "matrix C 1 2\n1 0\n"
    # missing dims
    with pytest.raises(DimensionMismatch):
        build_system(parse_document("type: state_space\nn: 2\nm: 1\n" + amat))
    # missing matrix
    with pytest.raises(DimensionMismatch):
        build_system(parse_document(base + amat + bmat))
    # shape disagrees with the header
    wrong_b = "matrix B 1 1\n1\n"
    with pytest.raises(DimensionMismatch):
        build_system(parse_document(base + amat + wrong_b + cmat))
    # unexpected extra matrix
    extra = "matrix Z 1 1\n0\n"
    with pytest.raises(DimensionMismatch):
        build_system(parse_document(base + amat + bmat + cmat + extra))
    # the valid variant builds
    sys = build_system(parse_document(base + amat + bmat + cmat))
    assert sys.n == 2


def test_build_system_order_cross_check():
    text = (
        "type: right_mfd\nm: 1\np: 1\nr: 2\nn: 5\n"
        "matrix D0 1 1\n1\nmatrix D1 1 1\n3\nmatrix D2 1 1\n2\n"
        "matrix N0 1 1\n1\n"
    )
    with pytest.raises(DimensionMismatch):
        build_system(parse_document(text))
    ok = text.replace("n: 5", "n: 2")
    f = build_system(parse_document(ok))
    assert f.order == 2


def test_document_from_system_rejects_complex():
    ss = StateSpace(
        np.array([[-1.0 + 1.0j]]), np.ones((1, 1)), np.ones((1, 1))
    )
    with pytest.raises(InvariantViolation):
        document_from_system(ss)


def test_feedthrough_omitted_when_zero(rng):
    D = denominator_from_solvents(separated_matrices(rng, 2, 2))
    f = RightMFD(MatrixPolynomial([rng.standard_normal((2, 2))]), D)
    doc = document_from_system(f)
    assert "E" not in doc.matrices
    g = RightMFD(MatrixPolynomial([rng.standard_normal((2, 2))]), D,
                 np.eye(2))
    assert "E" in document_from_system(g).matrices


def test_bundled_power_network():
    ss = load_power_network()
    assert (ss.n, ss.m, ss.p) == (8, 2, 2)
    assert ss.is_stable()
    fixed = load_power_network(fixed=True)
    assert (fixed.n, fixed.m, fixed.p) == (8, 2, 2)
    # the repair touches exactly one output entry
    diff = np.abs(ss.C - fixed.C)
    assert np.count_nonzero(diff) == 1
    assert_allclose(ss.A, fixed.A)
    assert_allclose(ss.B, fixed.B)


def test_bundled_reference_solvents():
    mats = reference_solvents()
    assert len(mats) == 4
    for M in mats:
        assert M.shape == (2, 2)
    eig1 = np.sort_complex(np.linalg.eigvals(mats[0]))
    assert_allclose(eig1, [-0.8 - 1.2j, -0.8 + 1.2j], atol=1e-6)


def test_bundled_dominant_poles():
    poles = reference_dominant_poles()
    assert poles.shape == (5,)
    assert np.all(poles.real < 0.0)
    # the complex member appears with a positive imaginary part recorded
    assert np.any(np.abs(poles.imag) > 1.0)
