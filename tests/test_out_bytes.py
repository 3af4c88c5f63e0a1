"""Golden --out files: small command lines whose report bytes are pinned.

Each line runs breglab.cli.main in process, once with --format json and once
with --format csv, and the sha256 of the --out file and the exit code must
match the values recorded here.  A refactor that is meant to leave every
report unchanged keeps this file as it is; a change that moves a report on
purpose records the new hashes and says why.
"""

import hashlib

import pytest

from breglab.cli import main

LINES = {
    "divergence-1d": ["divergence", "--gen", "neglog", "--x", "2", "--y", "3"],
    "divergence-2d": ["divergence", "--gen", "sqeuclid", "--x", "1,2.5", "--y=-0.5,4"],
    "risk-exp": [
        "risk", "--model", "exp", "--gen", "neglog", "--estimator", "type1",
        "--theta", "2", "--n", "5", "-M", "20000", "--seed", "3", "--workers", "2",
    ],
    "risk-lognormal-right": [
        "risk", "--model", "lognormal", "--gen", "negentropy", "--estimator", "classical",
        "--theta", "1.5", "--n", "4", "-M", "20000", "--seed", "4", "--orientation", "right",
    ],
    "check-type1": [
        "check", "--kind", "type1", "--model", "exp", "--gen", "neglog", "--estimator", "type1",
        "--theta", "1,2", "--n", "5", "-M", "20000", "--seed", "5",
    ],
    "check-type2": [
        "check", "--kind", "type2", "--model", "lognormal", "--estimator", "classical",
        "--theta", "0.5,2.5", "--n", "6", "-M", "20000", "--seed", "6",
    ],
    "check-lehmann": [
        "check", "--kind", "lehmann", "--model", "normal:2", "--gen", "sqeuclid",
        "--estimator", "const:2.5", "--theta", "1", "--grid", "0.5,1,1.5",
        "--n", "4", "-M", "20000", "--seed", "7",
    ],
    "compare": [
        "compare", "--model", "exp", "--gen", "neglog", "--e1", "type1", "--e2", "first-k:3",
        "--theta", "2", "--n", "5", "-M", "20000", "--seed", "8",
    ],
    "oracle-negentropy-mean": [
        "oracle", "--m", "3", "--n", "4", "--gen", "negentropy", "--estimator", "mean",
        "--theta", "0.5,1,2",
    ],
    "oracle-neglog-first": [
        "oracle", "--support", "0.5,1.5,2.5,4", "--n", "3", "--gen", "neglog",
        "--estimator", "first-k:1", "--theta", "0.7,1.3",
    ],
    "reproduce-exp": ["reproduce", "--example", "exp", "-M", "20000", "--seed", "9"],
}

# (exit code, sha256 of the --out file) per (line, format)
GOLDEN = {
    ("check-lehmann", "json"): (0, "8ba9cc8e5a2f00676a43b376089060803f4121ab7653479de19e249c3ee3b8f1"),
    ("check-lehmann", "csv"): (0, "58e4d25b640505ae48d5186e98eac7f4a64ca63746b206704009207f095fc434"),
    ("check-type1", "json"): (0, "b4da65784f2b8ad400c9fdde513143803c6ace6ee5777c561db69bcf0f474606"),
    ("check-type1", "csv"): (0, "3c69776eda7434ca97bdedfe36e77ea7d26601ee98a18866b211d41dd3a547ac"),
    ("check-type2", "json"): (0, "d36c427ea00fe68899281fd2ae3d632a37f4dafc8555d6b65bef44722b3590dd"),
    ("check-type2", "csv"): (0, "c03d81f11457a3cc097c3e6766336cde89d0e77f930f78807f475db354658fbb"),
    ("compare", "json"): (0, "aabd4d92e9902f0a62cb866a47a72396a11db229cf0f21f58bc220c4cc1af3c0"),
    ("compare", "csv"): (0, "0d19095fc1be70c6156ef33ec1ad7d87589ccdb8c35aa0494db0eab287b8d3ed"),
    ("divergence-1d", "json"): (0, "3f678885fca5acaf2246c35af82b3fe8f6616fa2acf0f49a43b49a16c56a0b2a"),
    ("divergence-1d", "csv"): (0, "e9915e1673af8b9a101bf0aec7d5d775d7aa62a764de5e5050be35de7c7883ea"),
    ("divergence-2d", "json"): (0, "313c563cc8743f0428cc22ce07b80938da348155888662478ef39b01f6ab479d"),
    ("divergence-2d", "csv"): (0, "08ecbaabbd53da4aa52e0563f3cd05094b31482b62fb38601847a7c5e05672bf"),
    ("oracle-negentropy-mean", "json"): (0, "5242074b44140dda31282dc118515add3711fcf5c369f6c3d6ed43c84d9621a6"),
    ("oracle-negentropy-mean", "csv"): (0, "6c9e544cffaf60464116dd457bcde9c279e64a0d8c354908d8ad91bfc28e0363"),
    ("oracle-neglog-first", "json"): (0, "0fd580d10354b73909c20b3a12beae7d9d47c428c10c817a41edba30bf2f73fc"),
    ("oracle-neglog-first", "csv"): (0, "f58084db29bd59fdc76830255034e9d546ab7a0088ced9bb103cb51a41756471"),
    ("reproduce-exp", "json"): (0, "59ded44cee7825e29c675cf6d7ede5fb082ed6746eb7dca6cefc06d5ffef3905"),
    ("reproduce-exp", "csv"): (0, "eec0b2e78a2b56064d556788e1dffcbeafa08925a6004aa53cd0029a8c3bd298"),
    ("risk-exp", "json"): (0, "f04a353ce1c8292953399038e2e6001db5cf14d7da44aa339723e2ed25331ebd"),
    ("risk-exp", "csv"): (0, "7417d65cb157681498307e319297d3f76aa1494cf40c7fefb64cb61d6f850283"),
    ("risk-lognormal-right", "json"): (0, "5ab77280ee73248d9fa754031f152368ab6e31d262b64169ac3bd3f995a1c5f7"),
    ("risk-lognormal-right", "csv"): (0, "a7f51073d9b156f0e9fa15eb7ae91f06f78a1907905244c80aa09fa1d60f63cf"),
}


def out_bytes(argv, fmt, path):
    """Exit code and --out bytes of one command line run in process."""
    code = main(argv + ["--format", fmt, "--out", str(path)])
    return code, path.read_bytes()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(LINES))
def test_out_bytes_are_pinned(name, fmt, tmp_path, capsys):
    code, data = out_bytes(LINES[name], fmt, tmp_path / "out")
    capsys.readouterr()
    assert (code, hashlib.sha256(data).hexdigest()) == GOLDEN[name, fmt]
