"""Byte identity of the CLI on a fixed set of command lines.

Each case runs ``cli.main(argv)`` in process from the repository root and
hashes its exit code, stdout and stderr with SHA-256.  The expected digests
below were recorded from the program as it stood before the frame-coefficient
algebra was merged into ``model.py``; a refactor must leave every one of them
unchanged.

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
        'be510b627425632d121a5aacdd130f1f7b1128700803afb106d5b7a3ecc0a834',
    'analyze --grid 256':
        'f6a3d03efb985ad6e3ab7791eb69f3a7f643ab78b03c0a551a04bce28ddb6513',
    'analyze --grid 4096':
        '1d28300e0d7fdf179d62e5722a15c7ff592fead1c1218a0e7757af4774733d1c',
    'analyze --grid 256 --c=0.5':
        '99644630db08c3304560916cef9c9719fe1da0242830c9182d260180f1ed2d03',
    'analyze --grid 256 --c=1':
        '9f78f0f1bf96482849045f341d4c132d6090a2baaa9cccf83a59e8c11fa14d48',
    'analyze --grid 256 --delta1=-8 --delta2=2':
        '9866c4b3953fea7418f97bfa2546bf72b5251f93eefb3da7430a416e1cb1698e',
    'analyze --grid 256 --delta1=1.5 --delta2=-0.25':
        '840b7ba06fa2f8d6e362a9df8bae2bbae063dba829387a4e368711258c0d354c',
    'analyze --grid 256 --tol=1e-9':
        'ec5c595249a0a597038e980eb5e780cbb989e1d9abab11bb1bef4bc13e6b3660',
    'analyze --grid 256 --tol=1e-3':
        'dbe3dabd2e9e30b5475adda5b5388d4adcafdd43179c9d91d293cd7abf39f098',
    'flow --grid 64 --steps 5':
        'f5ba184186f6a28fc28f16fc13fea6fe1c9c324339af80a0a5c7ca82aa8794e2',
    'analyze --curve demos/curves/example.txt --grid 64':
        'f79b117f1bb9bc159ca110ecadcb4e7675771ca92d18f986542dae41aeaee52b',
    'analyze --curve demos/curves/example.txt --grid 256':
        'c93c689b97a23e87e0b3e21ff5715c3288ac7728f9e3ad8f893f57ff5727cb6b',
    'analyze --curve demos/curves/example.txt --grid 4096':
        '3a749ba49156632abcff47826b259ba15f81c19e50ff787ce9c748c2d2352647',
    'analyze --curve demos/curves/example.txt --grid 256 --c=0.5':
        '6987b102fd3d39d5de58486c769904a7966a2461f2e94b1a91212d2ba99aa162',
    'analyze --curve demos/curves/example.txt --grid 256 --c=1':
        '5332770f4fa10520f8267c30a11c7cb50012952c7f20c5484bddfbfc369a2850',
    'analyze --curve demos/curves/example.txt --grid 256 --delta1=-8 --delta2=2':
        '48bfa1da68722ca41c4f0ac95777577104f2446acc5be5b77f66e8b0426dc7b9',
    'analyze --curve demos/curves/example.txt --grid 256 --delta1=1.5 --delta2=-0.25':
        'e910d626c11c8ff134d01c84d354d54957d4c9856b22d09f9269c2704e5e8841',
    'analyze --curve demos/curves/example.txt --grid 256 --tol=1e-9':
        '8850ee210a2bfb9a4e38a04b553cd2ea2a870f5a5a296facc805fe7a60b6a9b3',
    'analyze --curve demos/curves/example.txt --grid 256 --tol=1e-3':
        'e2d219e1f7ab3d325558049ea6c5ccff527c72e78eb51d7b8eec9d88011b6722',
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
