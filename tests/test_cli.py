import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import complex_noise, rng_for, src_env

from pairframe import OperatorFamily, WeightSequence, cli, fileformat, neumann, pairs, spectral

HERE = Path(__file__).parent
FIX = HERE / "fixtures"
GOLD = HERE / "golden"


def run_cli(*args, check_exit=0):
    proc = subprocess.run(
        [sys.executable, "-m", "pairframe.cli", *args],
        capture_output=True,
        env=src_env(),
    )
    if check_exit is not None:
        assert proc.returncode == check_exit, proc.stderr.decode()
    return proc


GOLDEN_CASES = [
    (("frame", "analyze", str(FIX / "mercedes.json")), "frame_analyze_mercedes.txt"),
    (
        ("frame", "analyze", str(FIX / "mercedes.json"), "--format", "json"),
        "frame_analyze_mercedes.json",
    ),
    (("frame", "analyze", str(FIX / "rank_deficient2.json")), "frame_analyze_rankdef.txt"),
    (("pair", "analyze", str(FIX / "swap_pair.json")), "pair_analyze_swap.txt"),
    (
        ("pair", "analyze", str(FIX / "swap_pair.json"), "--format", "json"),
        "pair_analyze_swap.json",
    ),
    (("pair", "analyze", str(FIX / "diag13_pair.json")), "pair_analyze_diag13.txt"),
    (("pair", "analyze", str(FIX / "complex_weights.json")), "pair_analyze_complex_weights.txt"),
    (("neumann", str(FIX / "diag13_pair.json"), "--N", "6"), "neumann_diag13.txt"),
    (
        ("neumann", str(FIX / "diag13_pair.json"), "--N", "4",
         "--signal", str(FIX / "signal2.json")),
        "neumann_diag13_signal.txt",
    ),
    (
        ("neumann", str(FIX / "diag13_pair.json"), "--N", "3", "--format", "json"),
        "neumann_diag13.json",
    ),
    (("dual", str(FIX / "mercedes.json")), "dual_mercedes.json"),
    (("gen", "harmonic", "--dim", "2", "--count", "4"), "gen_harmonic24.json"),
]


@pytest.mark.parametrize("args,golden", GOLDEN_CASES, ids=[g for _, g in GOLDEN_CASES])
def test_golden_outputs(args, golden):
    proc = run_cli(*args)
    assert proc.stdout == (GOLD / golden).read_bytes()


def test_parse_failure_exits_2():
    proc = run_cli("frame", "analyze", str(FIX / "bad.json"), check_exit=2)
    assert b"error:" in proc.stderr


@pytest.mark.parametrize(
    "text, where",
    [
        (
            '{"format_version": "1", "dim": 2, "vectors": '
            "[[[NaN, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}",
            "$.vectors[0][0]",
        ),
        (
            '{"format_version": "1", "dim": 2, "vectors": '
            "[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "
            '"weights": [[Infinity, 0.0], [1.0, 0.0]]}',
            "weights[0]",
        ),
    ],
    ids=["nan-vector", "infinite-weight"],
)
def test_non_finite_file_exits_2(tmp_path, text, where):
    path = tmp_path / "nonfinite.json"
    path.write_text(text, encoding="utf-8")
    proc = run_cli("pair", "analyze", str(path), check_exit=2)
    assert f"{where}: complex values must be finite" in proc.stderr.decode()
    assert b"Traceback" not in proc.stderr


HUGE_VECTORS = (
    '{"format_version": "1", "dim": 2, "vectors": '
    "[[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]}"
)
HUGE_WEIGHTS = (
    '{"format_version": "1", "dim": 2, "vectors": '
    "[[[10.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [10.0, 0.0]]], "
    '"weights": [[1e308, 0.0], [1e308, 0.0]]}'
)


@pytest.mark.parametrize(
    "text, command",
    [
        (HUGE_VECTORS, ["frame", "analyze"]),
        (HUGE_VECTORS, ["dual"]),
        (HUGE_VECTORS, ["pair", "analyze"]),
        (HUGE_VECTORS, ["neumann"]),
        (HUGE_WEIGHTS, ["pair", "analyze"]),
        (HUGE_WEIGHTS, ["neumann"]),
    ],
    ids=["vectors-frame", "vectors-dual", "vectors-pair", "vectors-neumann",
         "weights-pair", "weights-neumann"],
)
def test_overflowing_operator_exits_2(tmp_path, capsys, text, command):
    """Finite entries whose operator overflows raise a named error instead
    of a wrong verdict, a traceback or an SVD that does not converge; any
    RuntimeWarning on the way fails the suite."""
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main([*command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "operator overflows" in err


def test_unsupported_version_exits_2():
    run_cli("frame", "analyze", str(FIX / "badversion.json"), check_exit=2)


def test_missing_file_exits_2():
    run_cli("frame", "analyze", str(FIX / "no_such_file.json"), check_exit=2)


def test_dimension_mismatch_exits_3():
    proc = run_cli("pair", "analyze", str(FIX / "mismatch.json"), check_exit=3)
    assert b"error:" in proc.stderr


def test_dual_of_non_frame_exits_4():
    proc = run_cli("dual", str(FIX / "rank_deficient2.json"), check_exit=4)
    assert b"no bounded dual" in proc.stderr


def test_dual_rejects_format_flag():
    """dual always writes a frame file, so it takes no --format."""
    proc = run_cli("dual", str(FIX / "mercedes.json"), "--format", "json", check_exit=2)
    assert b"unrecognized arguments" in proc.stderr


def test_pair_analyze_rejects_theta_steps_flag():
    """The numerical-range sweep has a fixed grid, so it takes no --theta-steps."""
    proc = run_cli(
        "pair", "analyze", str(FIX / "swap_pair.json"), "--theta-steps", "90", check_exit=2
    )
    assert b"unrecognized arguments" in proc.stderr


def test_neumann_auto_alpha_refusal_exits_4():
    proc = run_cli("neumann", str(FIX / "swap_pair.json"), check_exit=4)
    assert b"not near-identity" in proc.stderr


def test_neumann_explicit_alpha_overrides_refusal():
    proc = run_cli("neumann", str(FIX / "swap_pair.json"), "--alpha", "0.5", "--N", "2")
    assert b"residual: 1.5" in proc.stdout


def test_neumann_complex_alpha_and_random_signal():
    proc = run_cli(
        "neumann", str(FIX / "diag13_pair.json"),
        "--alpha", "0.5+0i", "--N", "2", "--signal", "random:3",
    )
    assert b"rel_error" in proc.stdout


def test_neumann_bad_alpha_exits_2():
    run_cli("neumann", str(FIX / "diag13_pair.json"), "--alpha", "spam", check_exit=2)


def test_neumann_bad_signal_spec_exits_2():
    run_cli("neumann", str(FIX / "diag13_pair.json"), "--signal", "random:x", check_exit=2)


def test_neumann_signal_with_unknown_key_exits_2(tmp_path):
    sig = tmp_path / "signal.json"
    sig.write_text(json.dumps({
        "format_version": "1", "dim": 2, "vector": [[1.0, 0.0], [0.0, -1.0]], "extra": 1,
    }), encoding="utf-8")
    proc = run_cli("neumann", str(FIX / "diag13_pair.json"), "--signal", str(sig), check_exit=2)
    assert b"unknown keys ['extra']" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_file_that_is_not_utf8_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff" + (FIX / "mercedes.json").read_bytes())
    proc = run_cli("frame", "analyze", str(path), check_exit=2)
    assert b"not UTF-8" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_neumann_signal_dimension_clash_exits_3():
    proc = run_cli(
        "gen", "orthonormal", "--dim", "3", "--out", str(FIX / "_tmp_o3.json")
    )
    try:
        run_cli(
            "neumann", str(FIX / "_tmp_o3.json"),
            "--signal", str(FIX / "signal2.json"), check_exit=3,
        )
    finally:
        (FIX / "_tmp_o3.json").unlink()


def _neumann_signal_rows(tmp_path, monkeypatch, capsys, f, N):
    """Rows of ``neumann --signal`` run in process on a non-hermitian
    near-identity system, S = e^{0.4i}(I + 0.075 G) on C^16, with the loaded
    system, signal and pair_operator calls of the command."""
    rng = rng_for(123)
    basis = OperatorFamily.from_vectors(np.eye(16))
    rows = np.eye(16) + 0.3 * complex_noise(rng, (16, 16)) / 4.0
    lam = OperatorFamily.from_vectors(rows.conj())
    doc = fileformat.FrameDocument(
        dim=16, lam=lam, lam_encoding="vectors", gamma=basis, gamma_encoding="vectors",
        weights=WeightSequence([np.exp(0.4j)] * 16),
    )
    path, sig = tmp_path / "near_identity.json", tmp_path / "signal.json"
    path.write_text(fileformat.serialize_document(doc), encoding="utf-8")
    signal = {"format_version": "1", "dim": 16, "vector": [[z.real, z.imag] for z in f]}
    sig.write_text(json.dumps(signal), encoding="utf-8")
    calls = []
    pair_operator = neumann.pair_operator

    def counting_pair_operator(system):
        calls.append(1)
        return pair_operator(system)

    monkeypatch.setattr(cli, "pair_operator", counting_pair_operator)
    monkeypatch.setattr(neumann, "pair_operator", counting_pair_operator)
    argv = ["neumann", str(path), "--N", str(N), "--signal", str(sig), "--format", "json"]
    assert cli.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    return payload, fileformat.load_document(path).pair_system(), fileformat.load_signal(sig), calls


def test_neumann_signal_rows_equal_reconstruct_from_one_operator(tmp_path, monkeypatch, capsys):
    """Every rel_error is reconstruct's, bit for bit, and the whole command
    builds S once (one reconstruct per row would build it N + 2 times)."""
    f = complex_noise(rng_for(124), 16)
    payload, system, signal, calls = _neumann_signal_rows(tmp_path, monkeypatch, capsys, f, 30)
    assert len(calls) == 1
    alpha = neumann.find_alpha(neumann.pair_operator(system)).alpha
    assert complex(*payload["alpha"]) == alpha
    assert [row["N"] for row in payload["rows"]] == list(range(31))
    for row in payload["rows"]:
        assert row["rel_error"] == neumann.reconstruct(system, alpha, row["N"], signal)[1]
        assert row["rel_error"] <= row["error"] + 1e-15  # the defect bounds it


def test_neumann_zero_signal_rows_report_zero_error(tmp_path, monkeypatch, capsys):
    payload, *_ = _neumann_signal_rows(tmp_path, monkeypatch, capsys, np.zeros(16, complex), 5)
    assert [row["rel_error"] for row in payload["rows"]] == [0.0] * 6


@pytest.mark.parametrize(
    "args",
    [
        ("--N", "-1"),
        ("--N", "100000000000000000000"),
        ("--alpha", "nan"),
        ("--alpha", "1e400"),
        ("--alpha", "1e308"),
        ("--alpha", "1e200", "--N", "2"),
        ("--alpha", "1e307+1e307i", "--N", "1"),
    ],
    ids=[
        "negative-N",
        "N-beyond-maxsize",
        "nan-alpha",
        "overflowing-alpha",
        "alpha-times-S-overflows",
        "power-overflows",
        "partial-sum-overflows",
    ],
)
def test_neumann_rejects_bad_arguments_with_exit_2(args):
    proc = run_cli("neumann", str(FIX / "diag13_pair.json"), *args, check_exit=2)
    assert b"error:" in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("pair", "analyze", str(FIX / "swap_pair.json"), "--tol", "nan"),
        ("frame", "analyze", str(FIX / "mercedes.json"), "--tol", "nan"),
        ("frame", "analyze", str(FIX / "rank_deficient2.json"), "--tol", "-1"),
        ("dual", str(FIX / "mercedes.json"), "--tol", "inf"),
    ],
    ids=["pair-nan", "frame-nan", "frame-negative", "dual-inf"],
)
def test_tol_rejects_non_finite_or_negative_with_exit_2(args):
    """Every comparison with a NaN tolerance is false, so it would flip the
    verdicts; a negative one breaks the frame analysis."""
    proc = run_cli(*args, check_exit=2)
    assert b"argument --tol" in proc.stderr
    assert b"Traceback" not in proc.stderr


#: a non-hermitian near-identity system: S = diag(1, 0.8i, 0.5 + 0.5i)
COMPLEX_WEIGHTS = FIX / "complex_weights.json"


def _count_solves(monkeypatch) -> dict:
    """Count the eigvalsh and eigh calls made from here on."""
    counts = {"eigvalsh": 0, "eigh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return counts


def _recording(fn, log: list):
    """``fn``, appending each of its results to ``log``."""

    def wrapper(*args):
        log.append(fn(*args))
        return log[-1]

    return wrapper


def _pair_analyze_recorded(monkeypatch, path) -> tuple:
    """Run ``pair analyze`` on ``path`` and return every numerical-range
    bracket and find_alpha report it made."""
    brackets, alphas = [], []
    monkeypatch.setattr(spectral, "_numerical_range_bracket",
                        _recording(spectral._numerical_range_bracket, brackets))
    monkeypatch.setattr(neumann, "find_alpha", _recording(neumann.find_alpha, alphas))
    assert cli.main(["pair", "analyze", str(path)]) == 0
    return brackets, alphas


def test_pair_analyze_brackets_the_numerical_range_once(monkeypatch, capsys):
    """A non-hermitian system: the report takes one numerical-range bracket
    of at most 64 solves (a sweep takes 480), and find_alpha adds one eigh
    per cut and nothing else."""
    counts = _count_solves(monkeypatch)
    (bracket,), (near,) = _pair_analyze_recorded(monkeypatch, COMPLEX_WEIGHTS)
    assert "near identity: yes" in capsys.readouterr().out
    assert bracket.solves <= 64
    assert counts["eigvalsh"] + counts["eigh"] == bracket.solves + near.cuts


def test_pair_analyze_sweeps_a_hermitian_numerical_range_once(monkeypatch, capsys):
    """A hermitian system keeps the support-function sweep (THETA_STEPS/2
    grid solves, then two golden-section refinements of 2*REFINE_ITERS
    solves each); find_alpha's closed form adds one eigvalsh."""
    counts = _count_solves(monkeypatch)
    (bracket,), (near,) = _pair_analyze_recorded(monkeypatch, FIX / "diag13_pair.json")
    assert "near identity: yes" in capsys.readouterr().out
    sweep = spectral.THETA_STEPS // 2 + 4 * spectral.REFINE_ITERS
    assert bracket.solves == sweep
    assert near.method == "closed form"
    assert counts == {"eigvalsh": sweep + 1, "eigh": 0}


def test_pair_analyze_builds_s_once_plus_the_adjoint_check(monkeypatch, capsys):
    """classify_pair builds S once and the swapped system once; find_alpha
    reads the report's S."""
    path = COMPLEX_WEIGHTS
    calls = []
    pair_operator = pairs.pair_operator

    def counting_pair_operator(system):
        calls.append(1)
        return pair_operator(system)

    monkeypatch.setattr(pairs, "pair_operator", counting_pair_operator)
    monkeypatch.setattr(cli, "pair_operator", counting_pair_operator)
    assert cli.main(["pair", "analyze", str(path)]) == 0
    assert "near identity: yes" in capsys.readouterr().out
    assert len(calls) == 2


@pytest.mark.parametrize("signal", [str(FIX / "missing.json"), "random:x"], ids=["missing", "bad-seed"])
def test_neumann_reads_the_signal_before_the_alpha_search(signal, monkeypatch, capsys):
    """A bad --signal exits 2 before find_alpha runs, even on a system that
    is not near-identity (exit 4 once the search had run)."""

    def no_search(s):
        raise AssertionError("find_alpha ran before the signal was read")

    monkeypatch.setattr(neumann, "find_alpha", no_search)
    assert cli.main(["neumann", str(FIX / "swap_pair.json"), "--signal", signal]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_weighted_rejects_non_finite_scales_with_exit_2():
    proc = run_cli("gen", "weighted", "--dim", "2", "--scales", "1,nan", check_exit=2)
    assert b"error:" in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_gen_unwritable_out_exits_2(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    assert cli.main(["gen", "orthonormal", "--dim", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_gen_requires_dim():
    run_cli("gen", "harmonic", check_exit=2)


def test_gen_invalid_spec_exits_2():
    run_cli("gen", "orthonormal", "--dim", "2", "--count", "3", check_exit=2)
    run_cli("gen", "weighted", "--dim", "2", "--scales", "1,spam", check_exit=2)


def test_gen_same_seed_is_byte_identical():
    a = run_cli("gen", "random_frame", "--dim", "3", "--count", "5", "--seed", "11")
    b = run_cli("gen", "random_frame", "--dim", "3", "--count", "5", "--seed", "11")
    c = run_cli("gen", "random_frame", "--dim", "3", "--count", "5", "--seed", "12")
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout


def test_gen_random_frame_at_redundancy_two():
    """128 gaussian rows in C^64 concentrate at a condition ratio of about
    0.03, below the 0.05 resampling floor, and still make a frame."""
    proc = run_cli("gen", "random_frame", "--dim", "64", "--count", "128", "--seed", "1")
    payload = json.loads(proc.stdout)
    rows = np.array(payload["vectors"])
    rows = rows[..., 0] + 1j * rows[..., 1]
    assert payload["dim"] == 64 and rows.shape == (128, 64)
    w = np.linalg.eigvalsh(rows.conj().T @ rows)
    r = np.sqrt(64 / 128)
    assert 0.5 * ((1 - r) / (1 + r)) ** 2 * w[-1] < w[0] <= 0.05 * w[-1]
    assert run_cli("gen", "random_frame", "--dim", "64", "--count", "128", "--seed", "1").stdout == proc.stdout


def test_gen_output_is_loadable(tmp_path):
    out = tmp_path / "fam.json"
    run_cli(
        "gen", "prescribed_spectrum", "--dim", "2", "--count", "3",
        "--eigenvalues", "0.5,2.0", "--out", str(out),
    )
    proc = run_cli("frame", "analyze", str(out), "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["is_frame"] is True
    assert payload["bounds"]["lower"] == pytest.approx(0.5, abs=1e-10)
    assert payload["bounds"]["upper"] == pytest.approx(2.0, abs=1e-10)


def test_gen_gframe_codim_round_trip(tmp_path):
    out = tmp_path / "gframe.json"
    run_cli(
        "gen", "random_gframe", "--dim", "3", "--count", "2", "--codim", "2",
        "--out", str(out),
    )
    payload = json.loads(out.read_text())
    assert "operators" in payload
    assert len(payload["operators"][0]) == 2  # two rows per member
    run_cli("pair", "analyze", str(out))


def test_json_report_is_full_precision():
    proc = run_cli("frame", "analyze", str(FIX / "mercedes.json"), "--format", "json")
    payload = json.loads(proc.stdout)
    assert payload["bounds"]["lower"] == 1.4999999999999998
    assert payload["alpha_star"] == 0.6666666666666666
