"""The cost contract at the documented scale, n = 512.

One frame of 1,024 random complex vectors on C^512 is written once with
``serialize_document`` (about 26 MB). Each command then runs in a child
interpreter of its own, so its peak RSS is its own. The child counts every
LAPACK-backed ``numpy.linalg`` call and reports the counts and its peak
RSS on stderr. Wall time on a shared machine is noise; call counts and
peak memory are not.

The peak is ``VmHWM`` from ``/proc/self/status``, the high-water mark of
the child's own address space. Its ``ru_maxrss`` will not do on Linux: it
starts at the peak of the process that spawned it, here the pytest run.
"""

import json
import subprocess
import sys

import pytest
from conftest import complex_noise, rng_for, src_env

from pairframe import OperatorFamily, fileformat

N, COUNT = 512, 1024

#: runs ``pairframe.cli.main(argv)`` with stdout discarded by the parent,
#: then prints ``{"code": ..., "calls": {name: count}, "peak_kb": ...}`` on stderr
CHILD = """
import json, sys
import numpy as np

calls = {}

def counting(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper

for name in ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
             "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd", "svdvals"):
    if hasattr(np.linalg, name):
        setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))

from pairframe import cli

code = cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "calls": calls, "peak_kb": peak}), file=sys.stderr)
"""


@pytest.fixture(scope="module")
def frame_file(tmp_path_factory):
    rng = rng_for(512)
    lam = OperatorFamily.from_vectors(complex_noise(rng, (COUNT, N)))
    doc = fileformat.FrameDocument(dim=N, lam=lam, lam_encoding="vectors")
    path = tmp_path_factory.mktemp("scale") / "frame512.json"
    path.write_text(fileformat.serialize_document(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "command, calls",
    [
        (["frame", "analyze"], {"eigvalsh": 1, "svd": 1}),
        (["dual"], {"eigvalsh": 1, "solve": 1}),
    ],
    ids=["frame-analyze", "dual"],
)
def test_command_at_n512_takes_fixed_lapack_calls_in_bounded_memory(frame_file, command, calls):
    """Exact LAPACK counts, and a peak RSS of at most 40 MB plus ten times
    the file size."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *command, str(frame_file)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=src_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stderr.decode().splitlines()[-1])
    assert report["code"] == 0
    assert report["calls"] == calls
    peak_mb = report["peak_kb"] / 1024
    file_mb = frame_file.stat().st_size / 2**20
    assert peak_mb <= 40 + 10 * file_mb, (peak_mb, file_mb)
