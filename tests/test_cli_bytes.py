"""Byte identity of the CLI on a fixed set of command lines.

Each case runs ``cli.main(argv)`` in process from the repository root and
hashes its exit code, stdout and stderr with SHA-256.  The expected digests
below were recorded from the program as it stood before the frame-coefficient
algebra was merged into ``model.py``; a refactor must leave every one of them
unchanged.  The analyze reports of the built-in and example curves were
re-recorded three times since then: when their independence value moved by
one ulp to the correctly rounded 3 - sqrt(5), when their ``implied_n_bound``
for the order-2 set went from 3 to the correct n >= 2, and when that value's
key became ``min_gram_eigenvalue`` (it is the smallest eigenvalue of a Gram
matrix, not a singular value).  The geodesic reports were re-recorded when
their ``solve.verdict`` became the case table's "geodesic: any delta
admissible".  The six ``verify-example`` digests were re-recorded when the
ninth check line dropped "(eq2 sign plus)", a sign choice the program no
longer offers.  ``verify-example --delta1=-8 --delta2=2`` printed the default
bytes, because the command never read its weights; it no longer accepts
them, and that line became an exit-2 check.  ``verify-example --c=0.5``
printed four FAIL lines and exited 1 on a correct program, because the
self-check's expected values hold only at c = -3; the command no longer
accepts ``--c``, and that line became an exit-2 check too.

Two digests record the case-I decision that a constant-curvature curve with
rho = d1/d2 = 0 is excluded: ``analyze`` of the k1 = 1 circle at c = 1 (its
solve block reports feasible false and the verdict "excluded: requires
delta1/delta2 != 0") and the default ``scan --case I`` (the k1 = 1, k2 = 0
cell, with the same verdict).

The exit-2 paths are pinned on two files: ``domain_error.txt`` (a log
outside its domain) and ``division_by_zero.txt`` (a zero divisor), each
under ``analyze`` and ``flow``.  The two division lines were re-recorded
when a zero divisor began to name its expression, as every other domain
error does.

Two flow lines pin the descent's other paths: ``--rate 1``, where most
line-search trials are rejected and the step backtracks, and zero weights,
where the first step stops with "zero gradient".

A change that alters CLI output on purpose re-records the digests by running
this file as a script (``PYTHONPATH=src python tests/test_cli_bytes.py``),
pastes the printed table over ``DIGESTS``, and says in CHANGES.md which
outputs changed and why.  ``--dump DIR`` instead writes each command line's
exit code, stdout and stderr to one file in DIR, named after the command
line, so the outputs of two commits can be compared with ``diff -r``.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import pytest

from contactcurves.cli import main

ROOT = Path(__file__).resolve().parent.parent

CURVES = {
    "builtin": [],
    "example": ["--curve", "demos/curves/example.txt"],
    "geodesic": ["--curve", "demos/curves/geodesic.txt"],
}
# unit-speed Legendre curves pinned by their analyze reports alone: one whose
# coordinates share trig arguments and repeat subexpressions, one through
# exp, log, atan, ^ and division
REPORT_CURVES = ("tests/curves/shared_trig.txt", "tests/curves/elementary.txt")
ANALYZE_VARIANTS = (
    ["--c=0.5"],
    ["--c=1"],
    ["--delta1=-8", "--delta2=2"],
    ["--delta1=1.5", "--delta2=-0.25"],
    ["--tol=1e-9"],
    ["--tol=1e-3"],
)


def _argvs():
    out = []
    for curve in CURVES.values():
        for grid in ("64", "256", "4096"):
            out.append(["analyze", *curve, "--grid", grid])
        for extra in ANALYZE_VARIANTS:
            out.append(["analyze", *curve, "--grid", "256", *extra])
        out.append(["flow", *curve, "--grid", "64", "--steps", "5"])
    out.append(["analyze", "--grid", "15"])
    for path in REPORT_CURVES:
        for grid in ("64", "256"):
            out.append(["analyze", "--curve", path, "--grid", grid])
    # case I at rho = 0: analyze and scan both exclude it
    out.append(["analyze", "--curve", "tests/curves/circle_k1.txt", "--c=1"])
    # a coordinate that leaves the domain of log: one error line, exit 2
    out.append(["analyze", "--curve", "tests/curves/domain_error.txt"])
    out.append(["flow", "--curve", "tests/curves/domain_error.txt", "--steps", "1"])
    # a coordinate that divides by zero at every t: one error line, exit 2
    out.append(["analyze", "--curve", "tests/curves/division_by_zero.txt"])
    out.append(["flow", "--curve", "tests/curves/division_by_zero.txt", "--steps", "1"])
    out.append(["flow", "--curve", "demos/curves/example.txt", "--grid", "64",
                "--steps", "5", "--delta1=-8", "--delta2=2"])
    # a large rate: most line-search trials are rejected and backtrack
    out.append(["flow", "--grid", "64", "--steps", "5", "--rate", "1"])
    # zero weights: the first step stops with "zero gradient"
    out.append(["flow", "--grid", "32", "--steps", "3", "--delta1=0", "--delta2=0"])
    for extra in (["--grid", "64"], ["--grid", "256"], ["--grid", "4096"],
                  ["--tol=1e-9"]):
        out.append(["verify-example", *extra])
    out += [
        ["scan", "--case", "I", "--k1-range=0.2:2:5", "--k2-range=0:1.5:4"],
        ["scan", "--case", "II", "--c-range=-3:2:3", "--k1-range=0:2:5",
         "--k2-range=0:1:3"],
        ["scan", "--case", "III", "--c-range=-3:3:4", "--k1-range=0.5:3:6"],
        ["scan", "--case", "IV", "--c-range=-3:5:3", "--k1-range=0.5:2:3",
         "--k2-range=0.5:1.5:3", "--alpha0-range=-1.5:1.5:5"],
        # case I with rho = 0 excluded rows and k1 = 0 rows
        ["scan", "--case", "I", "--k1-range=0:1:6", "--k2-range=0:0.8:5"],
        # case IV with k1 = 0 rows, c <= -3 threshold rows and -0 constraints
        ["scan", "--case", "IV", "--c-range=-5:1:4", "--k1-range=0:2:3",
         "--k2-range=0:1:2", "--alpha0-range=-1:1:3"],
        # the 16 000-cell case-IV sweep
        ["scan", "--case", "IV", "--c-range=-3:5:20", "--k1-range=0:2.5:20",
         "--k2-range=0:2.5:20", "--alpha0-range=0:3:2"],
        # the default cell k1 = 1, k2 = 0: rho = 0, excluded
        ["scan", "--case", "I"],
    ]
    return out


def run(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return str(rc), out.getvalue(), err.getvalue()


def digest(argv):
    """SHA-256 of the exit code, stdout and stderr of one in-process run."""
    h = hashlib.sha256()
    for part in run(argv):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def dump(directory):
    """Write each command line's exit code, stdout and stderr to one file."""
    directory = Path(directory).resolve()
    directory.mkdir(parents=True, exist_ok=True)
    os.chdir(ROOT)
    for argv in _argvs():
        rc, out, err = run(argv)
        name = "_".join(argv).replace("/", "_") + ".txt"
        (directory / name).write_text(
            f"$ {' '.join(argv)}\nexit: {rc}\n--- stdout\n{out}--- stderr\n{err}")


DIGESTS = {
    'analyze --grid 64':
        '13fe104d031599a3dbdee3178d750dd0dcb730c6bca3ef9f69525c2c4cae299b',
    'analyze --grid 256':
        'e073753e9d6ec0dd8ce83a0b2f772c1396dbd643a952daac7330318754c60b90',
    'analyze --grid 4096':
        'c13973160101594b530cb2f5db125a9945dc3fd144d71c4f87ceb79f3f586e7f',
    'analyze --grid 256 --c=0.5':
        '86d7ca87c42260f86d8279de19345eb145e61a7e49fc78db86fd6ff68e04b0fa',
    'analyze --grid 256 --c=1':
        'df4484d083b0549bb075362ae78ef61b522fe0f8cc9d30f5b0a9ce3ec4343e59',
    'analyze --grid 256 --delta1=-8 --delta2=2':
        '44a98124c78e617a1b72202c1eeedc04f9727c89a86ffb6aee29c0deb4d3605d',
    'analyze --grid 256 --delta1=1.5 --delta2=-0.25':
        'e192a9f77d41af427db945e02bf76537eeabee654e2363348be9d9a51ef5a639',
    'analyze --grid 256 --tol=1e-9':
        'c61fc64240fd768c7e609f2797c67ece690bbbfa4af2799bbc48dd4b7565c285',
    'analyze --grid 256 --tol=1e-3':
        '680296205cef65c2c08cc9975929b4906541effb7bdb0a94b28ed3abd52a545d',
    'flow --grid 64 --steps 5':
        'f5ba184186f6a28fc28f16fc13fea6fe1c9c324339af80a0a5c7ca82aa8794e2',
    'analyze --curve demos/curves/example.txt --grid 64':
        '14f7bb79c0df8292ce839e04a596e88783add0e2d963a5f6c5da42cc9df43c8a',
    'analyze --curve demos/curves/example.txt --grid 256':
        'dd6c804a2d10da715408a12f37964dbb84986976edffc7f5c2a70fd849b68544',
    'analyze --curve demos/curves/example.txt --grid 4096':
        '1f1f3bc5749f4adcf1a898d449e72bd95e0ff1be69185d3d8db7fc72789cf281',
    'analyze --curve demos/curves/example.txt --grid 256 --c=0.5':
        '7b2781e2b6c4bcb5ee80971c3e753646de86056bf725cefd989e466cbf1a0d80',
    'analyze --curve demos/curves/example.txt --grid 256 --c=1':
        'e92da024720e0429adcb588fb531fe05dc770c980d68899ccf760fc79f0374ea',
    'analyze --curve demos/curves/example.txt --grid 256 --delta1=-8 --delta2=2':
        '24cc938250985e242cf277bc30f2ccf36fd612c2984892e746cc7c12b80e9374',
    'analyze --curve demos/curves/example.txt --grid 256 --delta1=1.5 --delta2=-0.25':
        '7e11e5361b96449b2f3a0bf9aeccc479766f80640ce324833e4ec2c606a9508d',
    'analyze --curve demos/curves/example.txt --grid 256 --tol=1e-9':
        'ffad46d65e9a9bbacbbf4db4e74493411be0fc42a4a062547356282cf00f06c3',
    'analyze --curve demos/curves/example.txt --grid 256 --tol=1e-3':
        'a543f3aaff8bd511fc0fb4d5073ae599c0b19f2b7a9a761e9f204c928a246c6e',
    'flow --curve demos/curves/example.txt --grid 64 --steps 5':
        'f5ba184186f6a28fc28f16fc13fea6fe1c9c324339af80a0a5c7ca82aa8794e2',
    'analyze --curve demos/curves/geodesic.txt --grid 64':
        '98490e4043fe4f7a84afe6783dcaa516210a8b64a8f9c7df5fe690a0ea2f6057',
    'analyze --curve demos/curves/geodesic.txt --grid 256':
        '97f287fbc89a4c82a396bc626c1700640b7e596d77fd33f7992fedf070ad9399',
    'analyze --curve demos/curves/geodesic.txt --grid 4096':
        'b773000a36bc053ae0926d3875cbb422557452751a5131f268d9ec978d98e218',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --c=0.5':
        '79d413480695ac1b343fccb5b498fa97bef9ab7a7ef5d29afe9b9c064433d851',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --c=1':
        '45817c4aeb97f739c0b53cee38de66cc9789d974d22a482633fccb0b176d6716',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --delta1=-8 --delta2=2':
        'dcfc03aa4d65f52254b574903f7c13324a9871e4b7c5cde730a6c4a49a92fe72',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --delta1=1.5 --delta2=-0.25':
        'f5af9c890409ba350ba9a9e7c82990a2a574a25e290b70ff2ef35aed8425bda8',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --tol=1e-9':
        '12a5029f8c55e769493a891c9b8caecb87bf683cf2d7ffc1ce715a013bc578e3',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --tol=1e-3':
        'df823b61016bceaa2860d1d48909fcfc9a66811eca6e797c32daf7ddb2c9ef89',
    'flow --curve demos/curves/geodesic.txt --grid 64 --steps 5':
        '9953db1bd97bbdbd17068ef1724b97387ad830b66e52b9e52bda7a4c65606f37',
    'analyze --grid 15':
        '36d080b028619d2d9c357828cd85bfe30c74a2fcf363bf1533a13776d7ebc5cc',
    'analyze --curve tests/curves/shared_trig.txt --grid 64':
        'bb0daf6fdaa1efd97d9191b6bf325f3c7a3dcefb533cbefb34203bab7e221d57',
    'analyze --curve tests/curves/shared_trig.txt --grid 256':
        '6c1299605ea4b7ae407dcf275ed0aa9cdf7f2cc2b2f11a1ac4c14ca053d964a4',
    'analyze --curve tests/curves/elementary.txt --grid 64':
        '72bf315910916ca1589d00cf2899db8e573bbfaad63f643e696d9411b8568c0f',
    'analyze --curve tests/curves/elementary.txt --grid 256':
        '3dbf5f34975f06e330e4daf485d5e303870287a6ae7b40594757bb78e30215f3',
    'analyze --curve tests/curves/circle_k1.txt --c=1':
        '4810a2ed4b5b2d55e32819634679c0ecb98d172225cce78ba091a975c042c15e',
    'analyze --curve tests/curves/domain_error.txt':
        '62a60fd0470888ed26326878cc766e953b6c92336865d6646e24f6d5050b6973',
    'flow --curve tests/curves/domain_error.txt --steps 1':
        '62a60fd0470888ed26326878cc766e953b6c92336865d6646e24f6d5050b6973',
    'analyze --curve tests/curves/division_by_zero.txt':
        '86f3a71f459937b3ce13290ef57324db260d44d6b16ecb349de242e714688cf5',
    'flow --curve tests/curves/division_by_zero.txt --steps 1':
        '86f3a71f459937b3ce13290ef57324db260d44d6b16ecb349de242e714688cf5',
    'flow --curve demos/curves/example.txt --grid 64 --steps 5 --delta1=-8 --delta2=2':
        'a2281df7f7574372bf2a528cf8d7de922bf19a0e1cbe17fcb19354e736f1fcc3',
    'flow --grid 64 --steps 5 --rate 1':
        '34cd558bd72f84adaa0821757b1eaede89f710221c1d4fc17bf1c40faff84916',
    'flow --grid 32 --steps 3 --delta1=0 --delta2=0':
        '0626a1be0bbfe606a58d99e4a5b3177f308bec07b387884667882c6c833c2df8',
    'verify-example --grid 64':
        '940d2aa31c3613e497e331d90125be53daf9706cb178e154ab0daa8c81557064',
    'verify-example --grid 256':
        '5307b1536e4f3bc2f23128129465ad0054fecd65753af57d5522e324664ee329',
    'verify-example --grid 4096':
        'a3332041bb0a67fdddf2506c8ad865a188bd0c8e52177a44f4d9e2dc3fff9c63',
    'verify-example --tol=1e-9':
        '5307b1536e4f3bc2f23128129465ad0054fecd65753af57d5522e324664ee329',
    'scan --case I --k1-range=0.2:2:5 --k2-range=0:1.5:4':
        'b27addca5e27ee07d26214d2041fb0b7e8b6132f78f78d3cac0f634fa6743147',
    'scan --case II --c-range=-3:2:3 --k1-range=0:2:5 --k2-range=0:1:3':
        '8edf97594ec806b2b17f4259269fafa6fa40fad6b909517817b59820ec4b7647',
    'scan --case III --c-range=-3:3:4 --k1-range=0.5:3:6':
        'f289deed65ce4e901af86b43c3409e99b959c4d832513ed4cb13e99b212c520c',
    'scan --case IV --c-range=-3:5:3 --k1-range=0.5:2:3 --k2-range=0.5:1.5:3 --alpha0-range=-1.5:1.5:5':
        '6ace76b274c1c486f3e1442f371f1fbfa862de9730583d35befe1ce567a3996f',
    'scan --case I --k1-range=0:1:6 --k2-range=0:0.8:5':
        '5dbd55dabb70b096d18aabe06a98993ede9ba63f5cddcce18f3a6aa79979246c',
    'scan --case IV --c-range=-5:1:4 --k1-range=0:2:3 --k2-range=0:1:2 --alpha0-range=-1:1:3':
        '6847b210ebc593a73cabdd62e9b76e6a65c6d3950ef6e1b912511f995e5fcf9a',
    'scan --case IV --c-range=-3:5:20 --k1-range=0:2.5:20 --k2-range=0:2.5:20 --alpha0-range=0:3:2':
        '7db4c66aa46af5811366029f094008068db425decfab81e3174cccd9a11f59b9',
    'scan --case I':
        'a98e6d202cd7dd49ab9b97273f2a3cd6b9e3a516fd804e1541fdd841108437fe',
}


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_cli_bytes_unchanged(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert digest(argv) == DIGESTS[" ".join(argv)]


def test_verify_example_weight_flags_exit_2(capsys):
    # verify-example checks the fixed weights (-8, 2) and (0, 1) and has no
    # weight flags; argparse exits 2 before any output
    with pytest.raises(SystemExit) as exc:
        main(["verify-example", "--delta1=-8", "--delta2=2"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --delta1=-8 --delta2=2\n")


def test_verify_example_c_flag_exit_2(capsys):
    # the self-check's expected values hold only at the model's c = -3, so
    # the command has no --c; argparse exits 2 before any output
    with pytest.raises(SystemExit) as exc:
        main(["verify-example", "--c=0.5"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --c=0.5\n")


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--dump":
        dump(sys.argv[2])
        sys.exit(0)
    os.chdir(ROOT)
    print("DIGESTS = {")
    for argv in _argvs():
        print(f"    {' '.join(argv)!r}:\n        {digest(argv)!r},")
    print("}")
