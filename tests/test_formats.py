"""On-disk formats: LCF1 binaries, deterministic CSV, PGM heatmaps."""

import json
import struct

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from leakmap.formats import read_lcf, sha256_file, write_csv, write_lcf, write_pgm


# ---------------------------------------------------------------------------
# LCF1 binary matrices


def test_lcf_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    a = rng.normal(size=(7, 5))
    p = write_lcf(tmp_path / "m.lcf", a)
    back = read_lcf(p)
    assert back.dtype == np.float64
    assert_array_equal(back, a)


def test_lcf_header_layout(tmp_path):
    p = write_lcf(tmp_path / "m.lcf", np.zeros((2, 3)))
    raw = p.read_bytes()
    assert raw[:4] == b"LCF1"
    assert struct.unpack("<III", raw[4:16]) == (2, 3, 1)
    assert len(raw) == 16 + 8 * 6


def test_lcf_rejects_non_matrix(tmp_path):
    with pytest.raises(ValueError):
        write_lcf(tmp_path / "m.lcf", np.zeros(5))


def test_lcf_read_validation(tmp_path):
    bad = tmp_path / "bad.lcf"
    bad.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError):
        read_lcf(bad)
    good = write_lcf(tmp_path / "m.lcf", np.ones((2, 2)))
    truncated = tmp_path / "trunc.lcf"
    truncated.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ValueError):
        read_lcf(truncated)
    wrong_code = tmp_path / "code.lcf"
    raw = bytearray(good.read_bytes())
    raw[12:16] = struct.pack("<I", 9)
    wrong_code.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        read_lcf(wrong_code)


# ---------------------------------------------------------------------------
# CSV tables


def test_csv_formatting(tmp_path):
    p = write_csv(
        tmp_path / "t.csv",
        ["n", "x"],
        [np.array([1, 2]), np.array([0.1, 2.0])],
    )
    assert p.read_text() == "n,x\n1,0.1\n2,2.0\n"


def test_csv_floats_round_trip_exactly(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.normal(size=20)
    p = write_csv(tmp_path / "t.csv", ["x"], [x])
    back = np.array([float(line) for line in p.read_text().splitlines()[1:]])
    assert_array_equal(back, x)


def per_scalar_text(x) -> str:
    """Reference formatting of one numpy scalar, as write_csv once did it."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def test_csv_bytes_equal_per_scalar_formatting(tmp_path):
    rng = np.random.default_rng(4)
    floats = np.concatenate([[np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, 1e300], rng.normal(size=92)])
    cols = [
        np.arange(-50, 50),
        np.arange(100, dtype=np.uint8),
        floats,
        rng.normal(size=100).astype(np.float32),
    ]
    p = write_csv(tmp_path / "t.csv", ["i", "u", "x", "y"], cols)
    lines = ["i,u,x,y"] + [",".join(per_scalar_text(c[i]) for c in cols) for i in range(100)]
    assert p.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.arange(3), np.arange(4)])


@pytest.mark.parametrize("header,n_cols", [(["a", "b"], 1), (["a"], 2)])
def test_csv_rejects_a_header_that_does_not_name_every_column(tmp_path, header, n_cols):
    # either mismatch once wrote a malformed table; no file is opened
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=f"CSV header has {len(header)} names for {n_cols} columns"):
        write_csv(path, header, [np.arange(3)] * n_cols)
    assert not path.exists()


# ---------------------------------------------------------------------------
# PGM heatmaps


def test_pgm_scaling_and_sidecar(tmp_path):
    vals = np.array([[0.0, 5.0], [10.0, 2.5]])
    img, sidecar = write_pgm(tmp_path / "h.pgm", vals, None)
    raw = img.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    pix = np.frombuffer(raw[len(b"P5\n2 2\n255\n"):], dtype=np.uint8).reshape(2, 2)
    assert pix[0, 0] == 1  # minimum
    assert pix[1, 0] == 255  # maximum
    assert pix[0, 1] == round(1 + 254 * 0.5)
    meta = json.loads(sidecar.read_text())
    assert meta["min"] == 0.0
    assert meta["max"] == 10.0
    assert meta["masked_pixel"] == 0
    assert sidecar.name == "h.pgm.json"


def test_pgm_masked_cells_are_zero(tmp_path):
    vals = np.array([[1.0, 2.0], [3.0, 4.0]])
    mask = np.array([[True, False], [True, True]])
    img, _ = write_pgm(tmp_path / "h.pgm", vals, mask)
    pix = np.frombuffer(img.read_bytes()[-4:], dtype=np.uint8).reshape(2, 2)
    assert pix[0, 1] == 0
    assert pix[0, 0] >= 1


def test_pgm_constant_field(tmp_path):
    img, sidecar = write_pgm(tmp_path / "h.pgm", np.full((3, 3), 7.0), None)
    pix = np.frombuffer(img.read_bytes()[-9:], dtype=np.uint8)
    assert_array_equal(pix, 255)
    meta = json.loads(sidecar.read_text())
    assert meta["min"] == meta["max"] == 7.0


def test_pgm_all_masked(tmp_path):
    img, sidecar = write_pgm(tmp_path / "h.pgm", np.ones((2, 2)), np.zeros((2, 2), bool))
    pix = np.frombuffer(img.read_bytes()[-4:], dtype=np.uint8)
    assert_array_equal(pix, 0)
    meta = json.loads(sidecar.read_text())
    assert meta["min"] is None and meta["max"] is None


def test_pgm_rejects_non_matrix(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "h.pgm", np.ones(4), None)


# ---------------------------------------------------------------------------
# helpers


def test_sha256_known_vector(tmp_path):
    p = tmp_path / "abc.txt"
    p.write_bytes(b"abc")
    assert sha256_file(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )
