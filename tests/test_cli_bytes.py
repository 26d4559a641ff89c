"""Byte identity of the CLI on a fixed set of command lines.

Each case runs ``cli.main(argv)`` in process from the repository root and
hashes its exit code, stdout and stderr with SHA-256.  The expected digests
below were recorded from the program as it stood before the frame-coefficient
algebra was merged into ``model.py``; a refactor must leave every one of them
unchanged.  The analyze reports of the built-in and example curves were
re-recorded twice since then: when their ``min_singular_value`` moved by one
ulp to the correctly rounded 3 - sqrt(5), and when their ``implied_n_bound``
for the order-2 set went from 3 to the correct n >= 2.

A change that alters CLI output on purpose re-records the digests by running
this file as a script (``PYTHONPATH=src python tests/test_cli_bytes.py``),
pastes the printed table over ``DIGESTS``, and says in CHANGES.md which
outputs changed and why.
"""

import contextlib
import hashlib
import io
import os
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
    # a coordinate that leaves the domain of log: one error line, exit 2
    out.append(["analyze", "--curve", "tests/curves/domain_error.txt"])
    out.append(["flow", "--curve", "tests/curves/domain_error.txt", "--steps", "1"])
    out.append(["flow", "--curve", "demos/curves/example.txt", "--grid", "64",
                "--steps", "5", "--delta1=-8", "--delta2=2"])
    for extra in (["--grid", "64"], ["--grid", "256"], ["--grid", "4096"],
                  ["--eq2-sign", "minus"], ["--eq2-sign", "minus", "--c=0.5"],
                  ["--c=0.5"], ["--delta1=-8", "--delta2=2"], ["--tol=1e-9"]):
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
    ]
    return out


def digest(argv):
    """SHA-256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    h = hashlib.sha256()
    for part in (str(rc), out.getvalue(), err.getvalue()):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


DIGESTS = {
    'analyze --grid 64':
        'cde258a495d31a03bf25eacffa98fb69bb03f3f3cb7723c169818e3709e0c9d6',
    'analyze --grid 256':
        '4977580237d2675c04a2996ad6e6894041bcc5f13471b8d5bb5c8524f0dbbfb1',
    'analyze --grid 4096':
        'f01325dc9f4746805532bbb5e32ae15f9fb10acd1b3b5678ea08b5f638869075',
    'analyze --grid 256 --c=0.5':
        '11069215212e7d029bdbcf160c0b1bfc0cf4cab96a48643e56349f1b9ef10640',
    'analyze --grid 256 --c=1':
        '7ea050f5a2155a4121d4aad072acd6b2b6068ae213aa505a86075d62c4491b37',
    'analyze --grid 256 --delta1=-8 --delta2=2':
        '818944d69876093c562e3e03877de2bde086389391531f0bcabdb0ac64bb2d4c',
    'analyze --grid 256 --delta1=1.5 --delta2=-0.25':
        '8bd0ff1adb78f7bb01e052d2d7062d97efb969feef23369309a789976377d281',
    'analyze --grid 256 --tol=1e-9':
        'a16881a59b4e5ad47da250023a4f172fd207e8f063678e0c78d2e3283ceefc27',
    'analyze --grid 256 --tol=1e-3':
        'b0d0492f8ae9c5c5c28812ec42f041083369eb03f1549255577dd0eef03201d0',
    'flow --grid 64 --steps 5':
        'f5ba184186f6a28fc28f16fc13fea6fe1c9c324339af80a0a5c7ca82aa8794e2',
    'analyze --curve demos/curves/example.txt --grid 64':
        'e17feb66a73164165a8dc8606f70174480227e6b1a5f85dd5415109ed4f65abc',
    'analyze --curve demos/curves/example.txt --grid 256':
        '7dda90856956cd977b35fb21b0ab95df692222fa5caa4993669c1b444b1b4492',
    'analyze --curve demos/curves/example.txt --grid 4096':
        '2139d47118805482c8346a346b32d491195606b20670c8a7f83e6479a0ccf652',
    'analyze --curve demos/curves/example.txt --grid 256 --c=0.5':
        'cfd545a9e4434dd13a24df9b4f6b1191958456061c335483528b37795e958b4a',
    'analyze --curve demos/curves/example.txt --grid 256 --c=1':
        'a5b4b18d324980b52c51a3a288aff150854e837bae15c2adc2b4039fd4892f56',
    'analyze --curve demos/curves/example.txt --grid 256 --delta1=-8 --delta2=2':
        '3cbbb28e62a4c0f549a4312e09281ea1229817c8499cc7d4d731497b0414e2a1',
    'analyze --curve demos/curves/example.txt --grid 256 --delta1=1.5 --delta2=-0.25':
        'bd9e128b70a35fddb73b97b1979fd6164706fd454e027c719c1d2dba3a0dccff',
    'analyze --curve demos/curves/example.txt --grid 256 --tol=1e-9':
        'e8b7a44df4d5251d7cad02762bbe5b1da8f0e18bc5ac934c0415ab3093884cf1',
    'analyze --curve demos/curves/example.txt --grid 256 --tol=1e-3':
        '71b5b29a8f6f0fc5e9d15281cb236c01bbd5a0347be7db21145997b94d64e909',
    'flow --curve demos/curves/example.txt --grid 64 --steps 5':
        'f5ba184186f6a28fc28f16fc13fea6fe1c9c324339af80a0a5c7ca82aa8794e2',
    'analyze --curve demos/curves/geodesic.txt --grid 64':
        'a205d35757df13234c5f9fad458cc8b00bd982b54e8339b77a7f38306d21d4c7',
    'analyze --curve demos/curves/geodesic.txt --grid 256':
        '78a9506cfd37ddcdf0ec5b70a4289e1244fcc3dab67b82f421034ec36469cc9f',
    'analyze --curve demos/curves/geodesic.txt --grid 4096':
        'c972acd9add0172269cfd1de7b4715be4bcaddc0c98308281890e59fb72ca5d4',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --c=0.5':
        '9c28687f786438a296b7c91f04125ca95ca5ecb6616cec75f217d3e5274e44f2',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --c=1':
        '31fcbd4e3c0bba92c06a376f379a651e8b59527b9318eb4bf1c01a4337ad9f4f',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --delta1=-8 --delta2=2':
        'a4d620f1ba91c6667e200f48075d04745ee86c7f2ebd6158e655bef546fcde49',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --delta1=1.5 --delta2=-0.25':
        'f2144189ec66f7012dcde767dde2ba16ccca3d848070786eb2ac62a0441a3eb3',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --tol=1e-9':
        'ff3b1fcc63bd403a9f5d83743002959b527fbf0edf376cc3c7451dd73b72f165',
    'analyze --curve demos/curves/geodesic.txt --grid 256 --tol=1e-3':
        'fe32363675e372532c68bd58d1722534334f3e610779cf56a11cbdbb7c8691fa',
    'flow --curve demos/curves/geodesic.txt --grid 64 --steps 5':
        '9953db1bd97bbdbd17068ef1724b97387ad830b66e52b9e52bda7a4c65606f37',
    'analyze --grid 15':
        '36d080b028619d2d9c357828cd85bfe30c74a2fcf363bf1533a13776d7ebc5cc',
    'analyze --curve tests/curves/shared_trig.txt --grid 64':
        'bb0daf6fdaa1efd97d9191b6bf325f3c7a3dcefb533cbefb34203bab7e221d57',
    'analyze --curve tests/curves/shared_trig.txt --grid 256':
        '6c1299605ea4b7ae407dcf275ed0aa9cdf7f2cc2b2f11a1ac4c14ca053d964a4',
    'analyze --curve tests/curves/elementary.txt --grid 64':
        'ba063077ac0abf3a0f9521dacbdbd81589805646d15e91b7101d59928557b4ac',
    'analyze --curve tests/curves/elementary.txt --grid 256':
        '662c873070505d8a942efc8a0b0826a379dcd424d822022f534201bcebcd34d4',
    'analyze --curve tests/curves/domain_error.txt':
        '62a60fd0470888ed26326878cc766e953b6c92336865d6646e24f6d5050b6973',
    'flow --curve tests/curves/domain_error.txt --steps 1':
        '62a60fd0470888ed26326878cc766e953b6c92336865d6646e24f6d5050b6973',
    'flow --curve demos/curves/example.txt --grid 64 --steps 5 --delta1=-8 --delta2=2':
        'a2281df7f7574372bf2a528cf8d7de922bf19a0e1cbe17fcb19354e736f1fcc3',
    'verify-example --grid 64':
        '2caa3bf7ef5edfc181643283ccc92ed73d01f592ce4e940d3522c8d4ce20c678',
    'verify-example --grid 256':
        '357b4ee4ce0e8abed3d94c87792ccfc7e0b3219594ecc395ae991b958babe891',
    'verify-example --grid 4096':
        'ee2357cdfc9a651badecf98f76a5e8742b5b8a7ef9a4b69f47b78eedc8ad6b9b',
    'verify-example --eq2-sign minus':
        '6d19aa7e66fee36f8f748dae82a0764d3da7662a505e54319e2a4a455c4131ec',
    'verify-example --eq2-sign minus --c=0.5':
        '6951e96c0e9087fe3b488d6cd43f62106c2ceb5215e11c701bebfe336b51d828',
    'verify-example --c=0.5':
        '88f8b74cf15a14e69a4c669e1a9dc7168c51b16ef0b27875ecb29350e038f1ec',
    'verify-example --delta1=-8 --delta2=2':
        '357b4ee4ce0e8abed3d94c87792ccfc7e0b3219594ecc395ae991b958babe891',
    'verify-example --tol=1e-9':
        '357b4ee4ce0e8abed3d94c87792ccfc7e0b3219594ecc395ae991b958babe891',
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
}


@pytest.mark.parametrize("argv", _argvs(), ids=" ".join)
def test_cli_bytes_unchanged(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert digest(argv) == DIGESTS[" ".join(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    print("DIGESTS = {")
    for argv in _argvs():
        print(f"    {' '.join(argv)!r}:\n        {digest(argv)!r},")
    print("}")
