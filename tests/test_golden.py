"""Golden bytes: SHA-256 digests of every file the exporting commands write.

`encrypt` (each scheme, synthetic and from IHDS input), a small `challenge`
and `prep-public` draw only from the package's RNG streams and mix in
numpy's own elementwise loops, so their outputs are fixed by the seed on any
machine with the same numpy. A refactor that keeps the RNG layout keeps these
digests; a change to the layout must update them on purpose and say so in
CHANGES.md. Attack
and train outputs are left out: their float64 reductions go through BLAS and
may differ with the library or the thread count.

On a mismatch, `pytest -vv` shows the digests of the current code in the
assertion diff.
"""

import hashlib

from instahide.core import make_gaussian_dataset
from instahide.cli import main
from instahide.ihds import save_dataset
from instahide.rng import RngStream

# command name -> argv; every path is relative to the test's working directory,
# so the reports (which name their output files) are byte-stable too
RUNS = {
    "encrypt-mixup": ["encrypt", "--scheme", "mixup", "--k", "2", "--out", "mixup.ihds"],
    "encrypt-inside": ["encrypt", "--scheme", "inside", "--out", "inside.ihds"],
    "encrypt-cross": ["encrypt", "--scheme", "cross", "--out", "cross.ihds"],
    "prep-public": [
        "prep-public", "--in", "public.ihds", "--out", "patches.ihds",
        "--patch-size", "8x8", "--per-image", "3", "--min-keypoints", "2",
    ],
    "encrypt-cross-files": [
        "encrypt", "--scheme", "cross", "--k", "4", "--in", "private.ihds",
        "--public", "patches.ihds", "--epochs", "2", "--out", "cross_files.ihds",
    ],
    "challenge": [
        "challenge", "--n", "8", "--epochs", "3", "--synthetic-dims", "3x8x8",
        "--out", "challenge.ihds",
    ],
}
SYNTHETIC = ["--synthetic-n", "10", "--synthetic-dims", "3x8x8", "--epochs", "3"]

GOLDEN = {
    "challenge.ihds": "57d47219522605c3ca476aaae59247c1cbc3c16ada1ed3f55ec0fe4cbaa3b7b1",
    "challenge.ihds.meta.txt": "354663299d5765e4e2d06bf0e4bc482570828424f806627e35cbf280a06e204c",
    "challenge.json": "86798033748ae7a80583330a9a0bdf395e4b582650d51eeab509b4b0a7a9df8c",
    "cross.ihds": "3bef0851b765e699c8300f777528cf1cf4c244b6b4d9205e0652a2ece5dd7ea0",
    "cross.ihds.meta.txt": "d53d3acefd79d547ce23a8ef68ffe0d1c4bc6c4c6c506d3b5154eb0de465777a",
    "cross_files.ihds": "193037fdc460099bbf04a63c8b96a553846b8bc260a0c6923a37bc9fcee54a3f",
    "cross_files.ihds.meta.txt": "07ad56feb2a61f8d8d1004bdc6a04a2b483412b8bf8c841e525caa9e4de2bd08",
    "encrypt-cross-files.json": "5cf75b42db0535ec70b819499f911dc015fb08383fc09a547ece7dc4882629a3",
    "encrypt-cross.json": "6835964080a0f4e7835b63c5e35df464a3cc43118fa43672e90051d64cedd5b9",
    "encrypt-inside.json": "3771182723bb5e5590ecc5a704fc49b9b554a0c01727da8f6776b51d199eaa83",
    "encrypt-mixup.json": "1e155063c0819bbc69e804b4ab9c5c93432aad7e171b7e185a4880ff24bfba46",
    "inside.ihds": "bd3c09b36d13c2e5d06081fd15a6c8c23e3d2f2727b3ddca2695dc86781241c4",
    "inside.ihds.meta.txt": "2df87dc190914a9316f1992261dd569aa41bb8302de0173b6e00fe85a2359534",
    "mixup.ihds": "dc81ea7c152745404d1b8e560c002d8bf8c3254d9e0210d7bf59a28342fd38e8",
    "mixup.ihds.meta.txt": "6b94f851be9b93e077d39285f67120bb8bb1572bbdacb3952d5646838cdabfae",
    "patches.ihds": "8a8a95fa2aadf862c4b20ee3b97fa1b230e71e519e055116954deb822d9d2968",
    "patches.ihds.prov.csv": "942886159316272e872a006ceb851b0754d1ec30f1274af2e0e1d5f9e3ed6803",
    "prep-public.json": "c5654bf4bb176d863b93491bfacade8bb1feb9ba9af36e624602c68fe11b5c0a",
    "private.ihds": "6858a4b58e2d9ae26dab1966b91bc5447f10ca5246b393f640a22c3402529fe8",
    "public.ihds": "516238bf008db2a916b8a73f404052336de9f9262fb2effb2d65c973f19c0cc3",
}


def _digests(root):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


def test_exported_bytes_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = RngStream(11)
    save_dataset(make_gaussian_dataset(12, (3, 16, 16), rng.child("public"), normalize=False),
                 "public.ihds")
    save_dataset(make_gaussian_dataset(6, (3, 8, 8), rng.child("private"), classes=3,
                                       normalize=False), "private.ihds")
    for name, argv in RUNS.items():
        extra = SYNTHETIC if argv[0] == "encrypt" and "--in" not in argv else []
        assert main([*argv, *extra, "--seed", "3", "--report", f"{name}.json"]) == 0, name
    assert _digests(tmp_path) == GOLDEN
