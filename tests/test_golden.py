"""Golden bytes: SHA-256 digests of every file the exporting commands write.

`encrypt` (each scheme, synthetic and from IHDS input), a small `challenge`
and `prep-public` draw only from the package's RNG streams and mix in
numpy's own elementwise loops, so their outputs are fixed by the seed on any
machine with the same numpy. A refactor that keeps the RNG layout keeps these
digests; a change to the layout must update them on purpose and say so in
CHANGES.md. `train`, encrypted `eval` and `stats ks-table` are pinned on sets
small enough that their BLAS products give the same bytes at one and two
OpenBLAS threads; attack outputs are left out, as their float64 reductions
may differ with the library or the thread count.

Their reports pin only an accuracy, so encrypted `eval`'s probabilities
are pinned too: PROBS holds the digest of the float64 matrix that
`utility._encrypted_probs` returns in each eval run (inside, and cross with
its three source blocks: the inputs, the partner pool and the public set).

On a mismatch, `pytest -vv` shows the digests of the current code in the
assertion diff.
"""

import hashlib

from instahide import utility
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
    "train": [
        "train", "--in", "private.ihds", "--scheme", "inside", "--k", "4", "--epochs", "3",
        "--out", "model.ihmd",
    ],
    "eval-inside": [
        "eval", "--model", "model.ihmd", "--mode", "encrypted", "--synthetic-n", "40",
        "--synthetic-dims", "3x8x8", "--synthetic-classes", "3", "--scheme", "inside",
        "--ensemble", "3",
    ],
    "eval-cross": [
        "eval", "--model", "model.ihmd", "--mode", "encrypted", "--synthetic-n", "40",
        "--synthetic-dims", "3x8x8", "--synthetic-classes", "3", "--scheme", "cross",
        "--public", "patches.ihds", "--ensemble", "3",
    ],
    "ks-table": [
        "stats", "ks-table", "--in", "private.ihds", "--picks", "3", "--encryptions", "60",
        "--out", "ks.csv",
    ],
}
SYNTHETIC = ["--synthetic-n", "10", "--synthetic-dims", "3x8x8", "--epochs", "3"]

GOLDEN = {
    "challenge.ihds": "3d062cd2c8398ab22a62792966db65c9f3ff1849b7d071e79875126a227fe57e",
    "challenge.ihds.meta.txt": "354663299d5765e4e2d06bf0e4bc482570828424f806627e35cbf280a06e204c",
    "challenge.json": "f493564b039326a65b7b28d4bbed9ebba1076b3fbb311ab344bcc3ec2455d996",
    "cross.ihds": "6f84ea7583a23f837d63f9f7b820ec48c5c912d1a56ae240e5bbbc57189cbe8c",
    "cross.ihds.meta.txt": "d53d3acefd79d547ce23a8ef68ffe0d1c4bc6c4c6c506d3b5154eb0de465777a",
    "cross_files.ihds": "5f8809cc61a462cbb248326e53636ad408bcab80f259753418ff082cf49237bc",
    "cross_files.ihds.meta.txt": "07ad56feb2a61f8d8d1004bdc6a04a2b483412b8bf8c841e525caa9e4de2bd08",
    "encrypt-cross-files.json": "8343bd75ccd26d7b1ebbb2f6aa1a193742a1d90de62c80d2e2f502f6a3a7a0ff",
    "encrypt-cross.json": "2802c19dd169bc394bfbc59a99ddf6347f9dd0fa3dd563bff8e36686d251b683",
    "encrypt-inside.json": "b547f3bf48d6ad4d9994b6c477a35ae8934d1e5ae1ef78a062ab1bac80f3cfe6",
    "encrypt-mixup.json": "797052db75aedab6968ca6bf16552a04ac999a15ee2b13f4602ca0432e119ace",
    "inside.ihds": "40a3cfc871b49cb352f1cd4b0b45fab8323abcadce1d6cbf0581019e4d3a7b76",
    "inside.ihds.meta.txt": "dd10223d971cf18f7c7358882074395420ad8953c58209a0b4344a5165ca88d5",
    "mixup.ihds": "430b93fb3afa6144b30f4735d6b99d2acc3e210a941259fdb4d330aa631ed29e",
    "mixup.ihds.meta.txt": "8857e4b64a50bca8ae4eeddd4d42fa61ae2764472fdd0fd829c236a26e4b74bf",
    "patches.ihds": "5f2ab671ca57ac1ee7e66ea04353ec253d4a069f4664ff693744d2416b7fb263",
    "patches.ihds.prov.csv": "3b7ca4a34419888847a8c15318523b29d24812e75718ae1a667b566e9442f53f",
    "prep-public.json": "2da5384b38600a72ce58046ae250b994be4019325470e7d7643ec6809fa6f564",
    "private.ihds": "6858a4b58e2d9ae26dab1966b91bc5447f10ca5246b393f640a22c3402529fe8",
    "public.ihds": "516238bf008db2a916b8a73f404052336de9f9262fb2effb2d65c973f19c0cc3",
    # train, encrypted eval and the KS table draw keys through the same kernel
    "eval-cross.json": "acc2fafd5d1b3ec7e002bda6f67a9543e819bc7049ea8ac48d8fdc3c0897855b",
    "eval-inside.json": "fc5e176fe7c0931be659db401fe8738653544229bacbc84afabd8763e2590578",
    "ks-table.json": "1f18f1f117f9aeff8d6c9cc23afc46fbed43d97ee2b4c51b6fc4d81d400e5b75",
    "ks.csv": "0b68d1629892dbc7c67375eb3fbb4c2d5afb0057c4a5b5c7aaf8b06e9329f925",
    "model.ihmd": "089c44f72a973b9f87eb54f9137d1a6fa104c177bc4098da4f6abff414df9583",
    "train.json": "1a3c00648600fe183863a062e2ca586f8e7a65e76fe1b80081673251dc200bbb",
}

PROBS = {
    "eval-cross": "197a930c370ee88aa9e3d36fe006e280605b7c71231352678bc01a10a8f25fbb",
    "eval-inside": "e6af84197ceb1792d48b16e749df05e01bf7da9fc4f563b218f6872bead8507a",
}


def _digests(root):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
    }


def test_exported_bytes_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    probs, encrypted_probs = {}, utility._encrypted_probs

    def record(*args, **kwargs):
        P = encrypted_probs(*args, **kwargs)
        probs[name] = hashlib.sha256(P.tobytes()).hexdigest()
        return P

    monkeypatch.setattr(utility, "_encrypted_probs", record)
    rng = RngStream(11)
    save_dataset(make_gaussian_dataset(12, (3, 16, 16), rng.child("public"), normalize=False),
                 "public.ihds")
    save_dataset(make_gaussian_dataset(6, (3, 8, 8), rng.child("private"), classes=3,
                                       normalize=False), "private.ihds")
    for name, argv in RUNS.items():
        extra = SYNTHETIC if argv[0] == "encrypt" and "--in" not in argv else []
        assert main([*argv, *extra, "--seed", "3", "--report", f"{name}.json"]) == 0, name
    assert _digests(tmp_path) == GOLDEN
    assert probs == PROBS
