"""Properties of small configs: survival curves, resonance moduli, Schur
forms, Husimi fields, Wehrl entropies and the CLI's exit codes; and of
configs of any size, that they read back from their serialized text.

Configs stay small (N <= 40, grids <= 30^2, t_max <= 200) so the suite
runs in seconds.  Hypothesis draws them from a fixed seed and keeps no
example database, so every run checks the same cases.

The library properties draw the kick from |K| <= 1e3 (the paper's K = 10
and a hundred times more).  Far beyond that, double precision gives out
before any property could be asked: the tangent frame overflows between
renormalizations from about |K| = 1e16, where the orbit pass raises, and
`build_unitary` fails the commands' unitarity check once N |K| reaches a
few times 1e5 (K = 1e4 at N = 40, 3e3 at N = 128).  The CLI property
draws K and the leak center from every finite double as often as from
that range, so the commands' handling of such values is checked too, as
is the record a run leaves: its whole manifest, or on exit 2 no file at
all.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from leakmap.cli import main
from leakmap.config import ConfigError, ExperimentConfig, apply_overrides, parse_config, serialize_config
from leakmap.ensemble import PhaseSpaceGrid, escape_ensemble, survival_probability
from leakmap.quantum import QuantumParams, build_projector, build_unitary, open_propagator, resonance_spectrum
from leakmap.standard_map import Leak, MapParams
from leakmap.tomography import HusimiTransform, mean_husimi, state_entropies

# reproducible and without a .hypothesis/ directory; deadline off, since a
# first Schur or plan build is slower than later ones
PROPERTY = settings(derandomize=True, database=None, deadline=None)

# Without a database Hypothesis still caches the constants it reads from
# the source, at collection time, under ./.hypothesis/ by default; keep
# that cache in a directory that is removed when the process exits.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

kicks = st.floats(-1e3, 1e3)
centers = st.floats(-10.0, 10.0)
widths = st.floats(0.0, 1.0)
cells = st.integers(2, 30)
dims = st.integers(2, 40)


def open_map(n, k, center, width):
    qp = QuantumParams(n, k)
    return open_propagator(build_unitary(qp), build_projector(qp, Leak(center, width)))


def spectrum(n, k, center, width):
    return resonance_spectrum(open_map(n, k, center, width))


@PROPERTY
@given(k=kicks, center=centers, width=widths, n_q=cells, n_p=cells, t_max=st.integers(1, 200))
def test_survival_is_a_non_increasing_probability(k, center, width, n_q, n_p, t_max):
    ens = escape_ensemble(PhaseSpaceGrid(n_q, n_p), Leak(center, width), t_max, MapParams(k))
    p = survival_probability(ens)
    assert p.shape == (t_max + 1,)
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.all(np.diff(p) <= 0.0)


@PROPERTY
@given(n=dims, k=kicks, center=centers, width=widths)
@example(n=40, k=1e3, center=0.2, width=0.0)
def test_resonance_moduli_are_bounded_and_ordered(n, k, center, width):
    modz = np.abs(spectrum(n, k, center, width).z)
    assert np.all(modz <= 1.0 + 1e-10)
    assert np.all(np.diff(modz) <= 0.0)


@PROPERTY
@given(n=dims, k=kicks, center=centers, width=widths)
@example(n=40, k=10.0, center=0.2, width=0.2)
def test_schur_vectors_triangularize_the_open_propagator(n, k, center, width):
    # the Schur form read back from V alone: V^H M V is upper triangular
    # with the spectrum on its diagonal
    m = open_map(n, k, center, width)
    res = resonance_spectrum(m.copy())  # the Schur overwrites its argument
    v = res.vectors
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-10
    t = v.conj().T @ m @ v
    assert np.abs(np.tril(t, -1)).max() <= 1e-10
    assert np.abs(np.diag(t) - res.z).max() <= 1e-10


@PROPERTY
@given(n=dims, k=kicks, center=centers, width=widths, n_q=cells, n_p=cells, top=st.integers(1, 5))
def test_husimi_fields_are_probability_masses(n, k, center, width, n_q, n_p, top):
    res = spectrum(n, k, center, width)
    plan = HusimiTransform(n, n_q, n_p)
    fields = [plan.field(res.vectors[:, j]) for j in range(n)]
    if int((res.dwell > 0.0).sum()) >= top:
        fields.append(mean_husimi(res, top, plan))
    for field in fields:
        assert field.shape == (n_q, n_p)
        assert field.min() >= 0.0
        assert abs(field.sum() - 1.0) <= 1e-12


@PROPERTY
@given(n=dims, k=kicks, center=centers, width=widths, n_q=cells, n_p=cells)
@example(n=12, k=10.0, center=0.2, width=0.2, n_q=2, n_p=2)
def test_wehrl_entropies_lie_in_the_unit_interval(n, k, center, width, n_q, n_p):
    # a grid that cannot resolve the coherent reference has no entropy
    # scale and is refused (on 2x2 every cell is equally far from it)
    vectors = spectrum(n, k, center, width).vectors
    try:
        s_w = state_entropies(vectors, HusimiTransform(n, n_q, n_p))
    except RuntimeError as exc:
        assert "degenerate coherent reference entropy" in str(exc)
        return
    assert s_w.shape == (n,)
    assert np.all((s_w >= 0.0) & (s_w <= 1.0))


finite = st.floats(allow_nan=False, allow_infinity=False)
counts = st.integers(2, 10**9).map(str)

# text for every key: valid numbers of any size, and any output text
config_text = st.fixed_dictionaries(
    {
        "map.k": finite.map(repr),
        "leak.center": finite.map(repr),
        "leak.width": st.floats(0.0, 1.0).map(repr),
        "classical.grid_q": counts,
        "classical.grid_p": counts,
        "classical.ftle_steps": counts,
        "classical.t_max": counts,
        "quantum.dim": counts,
        "husimi.grid_q": counts,
        "husimi.grid_p": counts,
        "husimi.top_states": counts,
        "husimi.dwell_bin": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
        "scan.positions": counts,
        "scan.husimi_grid_q": counts,
        "scan.husimi_grid_p": counts,
        "run.output": st.text(),
    }
)


@PROPERTY
@given(overrides=config_text)
@example(overrides={"run.output": "x "})
@example(overrides={"run.output": "a\nb"})
def test_every_accepted_config_reads_back_from_its_text(overrides):
    try:
        cfg = apply_overrides(ExperimentConfig(), list(overrides.items()))
    except ConfigError:
        return
    assert parse_config(serialize_config(cfg)) == cfg


# every key a valid config may set, within the small-config limits
cli_overrides = st.fixed_dictionaries(
    {
        "map.k": st.one_of(kicks, finite),
        "leak.center": st.one_of(centers, finite),
        "leak.width": widths,
        "classical.grid_q": cells,
        "classical.grid_p": cells,
        "classical.ftle_steps": st.integers(1, 50),
        "classical.t_max": st.integers(1, 200),
        "quantum.dim": dims,
        "husimi.grid_q": cells,
        "husimi.grid_p": cells,
        "husimi.top_states": st.integers(1, 45),
        "husimi.dwell_bin": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        "scan.positions": st.integers(1, 4),
        "scan.husimi_grid_q": cells,
        "scan.husimi_grid_p": cells,
    }
)

# the keys an @example leaves out: a small config, not the defaults
SMALL = {
    "classical.grid_q": 20,
    "classical.grid_p": 20,
    "classical.t_max": 100,
    "quantum.dim": 16,
    "husimi.grid_q": 20,
    "husimi.grid_p": 20,
    "scan.positions": 2,
    "scan.husimi_grid_q": 20,
    "scan.husimi_grid_p": 20,
}


@PROPERTY
@given(command=st.sampled_from(["ftle-field", "open-classical", "quantum", "scan"]), overrides=cli_overrides)
@example(command="ftle-field", overrides={"map.k": 1e300})
@example(command="quantum", overrides={"map.k": 1e300})
def test_cli_on_a_valid_config_succeeds_or_reports_the_error(command, overrides):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = {**SMALL, **overrides}
        argv = [command, "--output", tmp] + [f"--{key}={value!r}" for key, value in config.items()]
        # numpy's warnings do not stop the command, as on a command line, so
        # it meets a non-finite value where it would outside the suite
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(argv)
        written = {str(p.relative_to(tmp)) for p in Path(tmp).rglob("*") if p.is_file()}
        manifest = Path(tmp, "manifest.json")
        listed = {e["path"] for e in json.loads(manifest.read_text())["outputs"]} if manifest.is_file() else set()
    if code == 0:
        assert f"{command}: wrote" in out.getvalue()
    else:
        assert code == 2, err.getvalue()
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    # a run leaves its whole record, a manifest listing every file, or on
    # exit 2 no file at all
    assert written == listed | {"manifest.json"} or (code == 2 and not written)
