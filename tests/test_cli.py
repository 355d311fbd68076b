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


def run_cli(*args, check_exit=0, **env):
    proc = subprocess.run(
        [sys.executable, "-m", "pairframe.cli", *args],
        capture_output=True,
        env={**src_env(), **env},
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
    (
        ("frame", "analyze", str(FIX / "rank_deficient2.json"), "--format", "json"),
        "frame_analyze_rankdef.json",
    ),
    (("pair", "analyze", str(FIX / "swap_pair.json")), "pair_analyze_swap.txt"),
    (
        ("pair", "analyze", str(FIX / "swap_pair.json"), "--format", "json"),
        "pair_analyze_swap.json",
    ),
    (("pair", "analyze", str(FIX / "diag13_pair.json")), "pair_analyze_diag13.txt"),
    (("pair", "analyze", str(FIX / "complex_weights.json")), "pair_analyze_complex_weights.txt"),
    (("pair", "analyze", str(FIX / "rank_deficient2.json")), "pair_analyze_rankdef.txt"),
    (
        ("pair", "analyze", str(FIX / "rank_deficient2.json"), "--format", "json"),
        "pair_analyze_rankdef.json",
    ),
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
    (
        ("neumann", str(FIX / "diag13_pair.json"), "--N", "2",
         "--signal", str(FIX / "signal2.json"), "--format", "json"),
        "neumann_diag13_signal.json",
    ),
    (("dual", str(FIX / "mercedes.json")), "dual_mercedes.json"),
    (("gen", "harmonic", "--dim", "2", "--count", "4"), "gen_harmonic24.json"),
]


@pytest.mark.parametrize("args,golden", GOLDEN_CASES, ids=[g for _, g in GOLDEN_CASES])
def test_golden_outputs(args, golden):
    """Byte-identical stdout and nothing on stderr; the child turns every
    warning into an error, which pyproject's filter does not reach."""
    proc = run_cli(*args, PYTHONWARNINGS="error")
    assert proc.stdout == (GOLD / golden).read_bytes()
    assert proc.stderr == b""


#: the goldens that CI's numpy-only step diffs against the installed command
NUMPY_ONLY_CASES = [
    case for case in GOLDEN_CASES
    if case[1] in {"pair_analyze_swap.txt", "pair_analyze_swap.json",
                   "pair_analyze_complex_weights.txt", "frame_analyze_mercedes.txt",
                   "neumann_diag13.txt", "dual_mercedes.json"}
]
#: ``python -m pairframe`` in an interpreter that cannot import the test-only packages
NUMPY_ONLY = (
    "import runpy, sys\n"
    "sys.modules.update(dict.fromkeys(('scipy', 'hypothesis', 'pytest')))\n"
    "runpy.run_module('pairframe', run_name='__main__', alter_sys=True)\n"
)


@pytest.mark.parametrize("args,golden", NUMPY_ONLY_CASES, ids=[g for _, g in NUMPY_ONLY_CASES])
def test_numpy_only_runtime_matches_the_goldens(args, golden):
    """The offline twin of CI's numpy-only install step: each of its six
    commands runs with scipy, hypothesis and pytest unimportable and still
    prints its golden, with nothing on stderr."""
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY, *args],
        capture_output=True,
        env={**src_env(), "PYTHONWARNINGS": "error"},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLD / golden).read_bytes()
    assert proc.stderr == b""


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


TINY_VECTORS = (
    '{"format_version": "1", "dim": 2, "vectors": '
    "[[[1e-156, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e-156, 0.0]]]}"
)


@pytest.mark.parametrize("command", [["frame", "analyze"], ["dual"], ["pair", "analyze"], ["neumann"]],
                         ids=["frame", "dual", "pair", "neumann"])
def test_underflowing_operator_exits_2(tmp_path, command):
    """Finite entries whose operator S = 1e-312 I lies below the normal
    range raise a named error instead of a ValueError traceback."""
    path = tmp_path / "tiny.json"
    path.write_text(TINY_VECTORS, encoding="utf-8")
    proc = run_cli(*command, str(path), check_exit=2)
    assert proc.stdout == b"" and b"operator underflows" in proc.stderr
    assert b"Traceback" not in proc.stderr


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


@pytest.mark.parametrize(
    "keys",
    [["gamma"], ["weights"], ["gamma", "weights"]],
    ids=["gamma", "weights", "both"],
)
def test_dual_of_a_pair_file_exits_2_naming_the_dropped_keys(tmp_path, capsys, keys):
    """dual writes the canonical dual of the primary family as a frame file,
    which has no place for gamma or the weights; it used to drop them with
    exit 0."""
    doc = json.loads((FIX / "mercedes.json").read_text(encoding="utf-8"))
    pair = {"gamma": {"vectors": doc["vectors"]}, "weights": [[2.0, 0.0]] * 3}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({**doc, **{key: pair[key] for key in keys}}), encoding="utf-8")
    assert cli.main(["dual", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"would drop the pair keys {keys}" in err


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
    """--alpha is checked at parse time, before the file is read."""
    proc = run_cli("neumann", str(FIX / "no_such_file.json"), "--alpha", "spam", check_exit=2)
    assert b"argument --alpha: must be 'auto' or a finite" in proc.stderr


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


@pytest.mark.parametrize(
    "text", ["[" * 100_000 + "]" * 100_000, "1" * 5_000], ids=["too-deep", "long-integer"]
)
@pytest.mark.parametrize("reads", ["frame", "signal"])
def test_json_that_cannot_be_decoded_exits_2(tmp_path, reads, text):
    """Nesting deeper than json.loads' recursion limit, and an integer
    beyond Python's 4,300-digit conversion limit."""
    path = tmp_path / "undecodable.json"
    path.write_text(text, encoding="utf-8")
    args = ("frame", "analyze", str(path))
    if reads == "signal":
        args = ("neumann", str(FIX / "diag13_pair.json"), "--signal", str(path))
    proc = run_cli(*args, check_exit=2)
    assert b"not valid JSON" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_neumann_signal_dimension_clash_exits_3(tmp_path):
    path = tmp_path / "o3.json"
    run_cli("gen", "orthonormal", "--dim", "3", "--out", str(path))
    proc = run_cli("neumann", str(path), "--signal", str(FIX / "signal2.json"), check_exit=3)
    assert b"expected a signal of length 3, got shape (2,)" in proc.stderr


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
    "args, where",
    [
        (("--N", "-1"), b"argument --N"),
        (("--N", "100000000000000000000"), b"argument --N"),
        (("--N", "9223372036854775807"), b"argument --N"),
        (("--alpha", "nan"), b"argument --alpha"),
        (("--alpha", "1e400"), b"argument --alpha"),
        (("--alpha", "1e308"), b"alpha*S overflows at N=0"),
        (("--alpha", "1e200", "--N", "2"), b"overflows at N=1"),
        (("--alpha", "1e307+1e307i", "--N", "1"), b"partial sum overflows at N=1"),
    ],
    ids=[
        "negative-N",
        "N-beyond-maxsize",
        "N-at-maxsize",
        "nan-alpha",
        "overflowing-alpha",
        "alpha-times-S-overflows",
        "power-overflows",
        "partial-sum-overflows",
    ],
)
def test_neumann_rejects_bad_arguments_with_exit_2(args, where):
    """An argument out of its range fails at parse time, naming it; a finite
    alpha that overflows fails in the table, naming the row."""
    proc = run_cli("neumann", str(FIX / "diag13_pair.json"), *args, check_exit=2)
    assert b"error:" in proc.stderr and where in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("pair", "analyze", str(FIX / "swap_pair.json")),
        ("frame", "analyze", str(FIX / "mercedes.json")),
        ("dual", str(FIX / "mercedes.json")),
    ],
    ids=["pair", "frame", "dual"],
)
def test_tol_is_an_unrecognized_argument(args):
    """The verdicts have fixed relative thresholds, so no command takes --tol."""
    proc = run_cli(*args, "--tol", "1e-6", check_exit=2)
    assert b"unrecognized arguments: --tol" in proc.stderr
    assert b"Traceback" not in proc.stderr


#: a non-hermitian near-identity system: S = diag(1, 0.8i, 0.5 + 0.5i)
COMPLEX_WEIGHTS = FIX / "complex_weights.json"


@pytest.mark.parametrize("c", [1e-130, 1e-60, 1e60, 1e80])
def test_pair_analyze_verdicts_are_scale_free(tmp_path, capsys, c):
    """complex_weights.json with its vectors scaled by c, so S by c^2, keeps
    the golden's scale-free lines, where an unscaled alpha search ends in a
    NaN alpha or the ring."""
    doc = json.loads(COMPLEX_WEIGHTS.read_text(encoding="utf-8"))
    doc["vectors"] = (c * np.array(doc["vectors"])).tolist()
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["pair", "analyze", str(path)]) == 0
    golden = (GOLD / "pair_analyze_complex_weights.txt").read_text(encoding="utf-8").splitlines()
    out = capsys.readouterr().out.splitlines()
    keep = ("pair frame:", "condition number:", "alpha residual:", "near identity:")
    assert [s for s in out if s.startswith(keep)] == [s for s in golden if s.startswith(keep)]


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


def test_pair_analyze_brackets_the_numerical_range_once(monkeypatch, capsys, lapack_calls):
    """A non-hermitian system: the report takes one numerical-range bracket
    of at most 64 solves (a sweep takes 480), and find_alpha adds one eigh
    per cut and nothing else."""
    counts = lapack_calls("eigvalsh", "eigh")
    (bracket,), (near,) = _pair_analyze_recorded(monkeypatch, COMPLEX_WEIGHTS)
    assert "near identity: yes" in capsys.readouterr().out
    assert bracket.solves <= 64
    assert counts["eigvalsh"] + counts["eigh"] == bracket.solves + near.cuts


def test_pair_analyze_sweeps_a_hermitian_numerical_range_once(monkeypatch, capsys, lapack_calls):
    """A hermitian system keeps the support-function sweep (THETA_STEPS/2
    grid solves, then two golden-section refinements of 2*REFINE_ITERS
    solves each); find_alpha's closed form adds one eigvalsh."""
    counts = lapack_calls("eigvalsh", "eigh")
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


@pytest.mark.parametrize(
    "args",
    [
        ("weighted", "--scales", "1,,2"),
        ("weighted", "--scales", "1,2,"),
        ("prescribed_spectrum", "--eigenvalues", ",1,2"),
    ],
    ids=["inner", "trailing", "leading"],
)
def test_gen_rejects_an_empty_list_item_with_exit_2(capsys, args):
    """An empty item is not a number; it used to be dropped with exit 0."""
    kind, *params = args
    assert cli.main(["gen", kind, "--dim", "2", *params]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: parameter lists must be comma-separated numbers\n"


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
