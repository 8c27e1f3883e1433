"""Byte-for-byte golden reports of the `abba` command.

Every case runs `abba <argv>` with the working directory set to
`tests/golden/inputs`, so the input paths echoed in the reports are
stable, and compares stdout with `tests/golden/stdout/<case>.out`.

The inputs and expected outputs were written once and are meant to stay
fixed: a refactor of the exact kernel must reproduce every report byte.
Regenerate them only for an intended change of the report, with

    PYTHONPATH=src python -m tests.test_golden
"""

from pathlib import Path

import numpy as np
import pytest

from abba import Matrix, block, catalog, realize_rank_sequence, save_matrix
from abba.cli import main
from abba.generators import (random_hermitian, random_normal, random_unitary, rational_hermitian,
                             rational_normal, rational_psd, rational_unitary)

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
STDOUT = GOLDEN / "stdout"

FIXTURES = ("nilpotent-2x2", "hermitian-products-3x3", "transpose-3x3",
            "hermitian-normal-4x4", "doubling-conjugator")
PAIRS = ("nilpotent-2x2", "hermitian-products-3x3", "hermitian-normal-4x4",
         "hermitian-3-seed3", "hermitian-4-seed4", "hermitian-5-seed5", "hermitian-6-seed6",
         "psd-ep-3-seed5", "psd-normal-4-seed11", "realpart-ep-4-seed12",
         "hermitian-products-3x3-pad1")

CASES = {
    **{f"catalog-show-{name}": ["catalog", "show", name] for name in FIXTURES},
    **{f"decide-construct-{pair}": ["decide", f"{pair}__a.json", f"{pair}__b.json", "--construct"]
       for pair in PAIRS},
    "unitary-hermitian-normal-4x4": ["unitary", "hermitian-normal-4x4__ab.json",
                                     "hermitian-normal-4x4__ba.json"],
    "unitary-hermitian-products-3x3-probe": ["unitary", "hermitian-products-3x3__ab.json",
                                             "hermitian-products-3x3__ba.json",
                                             "--max-word-len", "2"],
    "unitary-exact-conjugate-3": ["unitary", "conjugate-3__x.json", "conjugate-3__y.json"],
    "unitary-float-transpose-4": ["unitary", "float-transpose-4__x.json",
                                  "float-transpose-4__y.json"],
    "unitary-nilpotent-2x2": ["unitary", "nilpotent-2x2__a.json", "nilpotent-2x2__b.json"],
    "rankseq-rational-4": ["rankseq", "rational-4.json"],
    "classify-rational-4": ["classify", "rational-4.json"],
    "classify-hermitian-4-seed4": ["classify", "hermitian-4-seed4__a.json"],
    "classify-psd-3-seed5": ["classify", "psd-ep-3-seed5__a.json"],
    "classify-float-hermitian-3": ["classify", "float-hermitian-3.json"],
    "classify-float-nilpotent-3": ["classify", "float-nilpotent-3.json"],
    "search-zero-one-normal-4-rank3-seed1": ["search", "--family", "zero-one-normal", "--size", "4",
                                             "--rank", "3", "--trials", "60", "--seed", "1"],
    "catalog-list": ["catalog", "list"],
    # exact decide infers BA's tail from AB's limit: after a drop of one here,
    # and from a term at most the limit + 1 in the swapped counterexample
    "decide-chain4-pad1-seed13": ["decide", "chain4-pad1-seed13__a.json",
                                  "chain4-pad1-seed13__b.json"],
    "decide-hermitian-normal-4x4-pad1-seed14-swapped": [
        "decide", "hermitian-normal-4x4-pad1-seed14__b.json",
        "hermitian-normal-4x4-pad1-seed14__a.json"],
    "decide-float-hermitian-normal-4-seed15": ["decide", "float-hermitian-normal-4-seed15__a.json",
                                               "float-hermitian-normal-4-seed15__b.json"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case, capsys, monkeypatch):
    monkeypatch.chdir(INPUTS)
    code = main(CASES[case])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (STDOUT / f"{case}.out").read_text()


def test_exact_inputs_regenerate_byte_for_byte(tmp_path):
    # pins every exact draw behind the inputs; the float files are skipped,
    # their low bits depend on the LAPACK build
    write_inputs(tmp_path)
    names = sorted(p.name for p in INPUTS.glob("*.json"))
    assert sorted(p.name for p in tmp_path.glob("*.json")) == names
    exact = [name for name in names if not name.startswith("float-")]
    assert len(exact) == 33
    for name in exact:
        assert (tmp_path / name).read_bytes() == (INPUTS / name).read_bytes(), name


def write_inputs(directory: Path = INPUTS) -> None:
    """Write the input files into `directory`: catalog pairs and the
    products of two of them, a catalog pair direct-summed with a 1x1 block, seeded exact Hermitian pairs, a PSD x EP pair,
    a PSD x normal pair outside the block form of the PSD-EP transform
    (certified by Sylvester sampling on non-Hermitian products), a
    non-Hermitian matrix with a PSD real part of equal rank times an EP
    matrix in block form of smaller rank (the PSD-EP transform with Y != X),
    a Cayley conjugate of I_1 + J_3 whose entries have non-unit
    denominators, two float matrices for classify (an indefinite Hermitian
    one and a unitary conjugate of J_3, which is neither normal nor EP),
    two pairs for the word screen: an exact 3x3 matrix with a Cayley
    conjugate, which no word tells apart, and a float 4x4 matrix with its
    transpose, which one does, two Cayley-conjugated 5x5 pairs with limit 1
    whose BA sequence exact decide partly infers from AB's limit, and a float
    Hermitian x normal pair of ranks 3 for float decide."""
    directory.mkdir(parents=True, exist_ok=True)
    fixtures = {f.name: f.matrices for f in catalog()}
    for name in PAIRS[:3]:
        a, b = fixtures[name]["a"], fixtures[name]["b"]
        save_matrix(a, directory / f"{name}__a.json")
        save_matrix(b, directory / f"{name}__b.json")
    for name in ("hermitian-products-3x3", "hermitian-normal-4x4"):
        a, b = fixtures[name]["a"], fixtures[name]["b"]
        save_matrix(a @ b, directory / f"{name}__ab.json")
        save_matrix(b @ a, directory / f"{name}__ba.json")
    a, b = fixtures["hermitian-products-3x3"]["a"], fixtures["hermitian-products-3x3"]["b"]
    zero = Matrix.zeros(3, 1)  # direct sums with a 1x1 block, whose Sylvester rows are sparse
    save_matrix(block([[a, zero], [zero.transpose(), Matrix.exact([[1]])]]),
                directory / "hermitian-products-3x3-pad1__a.json")
    save_matrix(block([[b, zero], [zero.transpose(), Matrix.exact([[2]])]]),
                directory / "hermitian-products-3x3-pad1__b.json")
    # n = 5 and 6 certify through 25 x 25 and 36 x 36 kernels, which linalg._kernel_rows
    # takes modulo primes (n <= 4 stays on Bareiss)
    for n, seed in ((3, 3), (4, 4), (5, 5), (6, 6)):
        rng = np.random.default_rng(seed)
        save_matrix(rational_hermitian(n, rng), directory / f"hermitian-{n}-seed{seed}__a.json")
        save_matrix(rational_hermitian(n, rng), directory / f"hermitian-{n}-seed{seed}__b.json")
    rng = np.random.default_rng(5)
    save_matrix(rational_psd(3, rng, rank=2), directory / "psd-ep-3-seed5__a.json")
    ep = Matrix.exact([["1/2", (0, 1), 0], [2, "-3/4", 0], [0, 0, 0]])
    save_matrix(ep, directory / "psd-ep-3-seed5__b.json")
    rng = np.random.default_rng(11)
    save_matrix(rational_psd(4, rng, rank=3), directory / "psd-normal-4-seed11__a.json")
    save_matrix(rational_normal(4, rng, rank=3), directory / "psd-normal-4-seed11__b.json")
    u = rational_unitary(4, np.random.default_rng(12))  # real part u* (I_3 + 0) u
    core = Matrix.exact([[(1, 1), 1, 0, 0], [-1, 1, (0, 1), 0], [0, (0, 1), 1, 0], [0, 0, 0, 0]])
    save_matrix(u.adjoint() @ core @ u, directory / "realpart-ep-4-seed12__a.json")
    ep = Matrix.exact([[(0, 2), "1/2", 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    save_matrix(ep, directory / "realpart-ep-4-seed12__b.json")
    u = rational_unitary(4, np.random.default_rng(6))
    m = u @ realize_rank_sequence((4, 3, 2, 1)) @ u.adjoint()
    assert any(m[i, j].re.denominator > 1 for i in range(4) for j in range(4))
    save_matrix(m, directory / "rational-4.json")
    u = random_unitary(3, np.random.default_rng(7))
    h = u @ Matrix.from_float(np.diag([2.5, -1.25, 0.5])) @ u.adjoint()
    save_matrix(h, directory / "float-hermitian-3.json")
    u = random_unitary(3, np.random.default_rng(8))
    save_matrix(u @ realize_rank_sequence((3, 2, 1, 0)).to_float() @ u.adjoint(),
                directory / "float-nilpotent-3.json")
    x = Matrix.exact([[1, 2, 0], [(0, 1), -1, 3], [0, "1/2", (1, -1)]])
    u = rational_unitary(3, np.random.default_rng(9))
    save_matrix(x, directory / "conjugate-3__x.json")
    save_matrix(u @ x @ u.adjoint(), directory / "conjugate-3__y.json")
    rng = np.random.default_rng(10)
    x = Matrix.from_float(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    save_matrix(x, directory / "float-transpose-4__x.json")
    save_matrix(x.transpose(), directory / "float-transpose-4__y.json")
    # Cayley conjugates of direct sums with an invertible 1x1 block (limit 1): a PSD
    # a and a cyclic shift b, whose products are each one Jordan chain of size 4,
    # and the catalog's Hermitian x normal counterexample
    u, zero4 = rational_unitary(5, np.random.default_rng(13)), Matrix.zeros(4, 1)
    shift = Matrix.exact([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    for x, name in ((Matrix.from_ints(np.diag([1, 1, 1, 0, 1])), "a"),
                    (block([[shift, zero4], [zero4.transpose(), Matrix.exact([[2]])]]), "b")):
        save_matrix(u @ x @ u.adjoint(), directory / f"chain4-pad1-seed13__{name}.json")
    u = rational_unitary(5, np.random.default_rng(14))
    for name, pad in (("a", 1), ("b", 2)):
        x = block([[fixtures["hermitian-normal-4x4"][name], zero4],
                   [zero4.transpose(), Matrix.exact([[pad]])]])
        save_matrix(u @ x @ u.adjoint(), directory / f"hermitian-normal-4x4-pad1-seed14__{name}.json")
    rng = np.random.default_rng(15)
    save_matrix(random_hermitian(4, rng, rank=3), directory / "float-hermitian-normal-4-seed15__a.json")
    save_matrix(random_normal(4, rng, rank=3), directory / "float-hermitian-normal-4-seed15__b.json")


if __name__ == "__main__":
    import contextlib
    import io
    import os

    write_inputs()
    STDOUT.mkdir(parents=True, exist_ok=True)
    os.chdir(INPUTS)
    for case, argv in sorted(CASES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if main(argv) != 0:
                raise SystemExit(f"abba {' '.join(argv)} failed")
        (STDOUT / f"{case}.out").write_text(buf.getvalue())
