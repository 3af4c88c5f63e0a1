"""Golden command output: small command lines whose report bytes and stdout are pinned.

Each line runs breglab.cli.main in process, once with --format json and once
with --format csv, from inside a fresh directory with --out out, so the
echoed config line does not depend on where the test runs.  Most lines are
one chunk (M <= 20 000); the three "4-chunks" lines run M = 200 000, so
their reports also pin the chunk merges.  The exit code,
the sha256 of the --out file and the sha256 of stdout must match the values
recorded here.  A refactor that is meant to leave every output unchanged
keeps this file as it is; a change that moves an output on purpose records
the new hashes and says why.
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
    # four chunks each: the left center and the Bregman information pass
    # through the chunk merge, BregmanInfo.__add__
    "risk-neglog-4-chunks": [
        "risk", "--model", "exp", "--gen", "neglog", "--estimator", "classical",
        "--theta", "2", "--n", "5", "-M", "200000", "--seed", "10",
    ],
    "risk-negentropy-4-chunks": [
        "risk", "--model", "lognormal", "--gen", "negentropy", "--estimator", "mean",
        "--theta", "1.5", "--n", "4", "-M", "200000", "--seed", "11",
    ],
    "risk-sqeuclid-4-chunks": [
        "risk", "--model", "normal:2", "--gen", "sqeuclid", "--estimator", "first-k:2",
        "--theta", "-0.5", "--n", "5", "-M", "200000", "--seed", "12", "--workers", "2",
    ],
}

# (exit code, sha256 of the --out file, sha256 of stdout) per (line, format)
GOLDEN = {
    ("check-lehmann", "json"): (
        0,
        "8ba9cc8e5a2f00676a43b376089060803f4121ab7653479de19e249c3ee3b8f1",
        "679fd2445e9becc294cd2ae212de83fe53bedd955839f89f3f8f9f122bc7bd7c",
    ),
    ("check-lehmann", "csv"): (
        0,
        "58e4d25b640505ae48d5186e98eac7f4a64ca63746b206704009207f095fc434",
        "7b86eb9e6e259154704b553b952ff240c08aecc9ebfcfeda1bdb32b8c0b3c18f",
    ),
    ("check-type1", "json"): (
        0,
        "b4da65784f2b8ad400c9fdde513143803c6ace6ee5777c561db69bcf0f474606",
        "8caeeb4dbbada1f49ae705ba24c2d289d16354e2d84c00b3e597ae449dc8d48f",
    ),
    ("check-type1", "csv"): (
        0,
        "3c69776eda7434ca97bdedfe36e77ea7d26601ee98a18866b211d41dd3a547ac",
        "e29de3445527e7bb8900998870ae97b6393c645994ee4ea5f6f6aeb3616810cb",
    ),
    ("check-type2", "json"): (
        0,
        "d36c427ea00fe68899281fd2ae3d632a37f4dafc8555d6b65bef44722b3590dd",
        "587c379cdd0100c650696e27436d1964c1a46c3e0e66353ec00f13c80978a013",
    ),
    ("check-type2", "csv"): (
        0,
        "c03d81f11457a3cc097c3e6766336cde89d0e77f930f78807f475db354658fbb",
        "419cea71dc5c6a31c51fb8396ed5b5ad3166c9be7590540e3d198e9a3f219599",
    ),
    ("compare", "json"): (
        0,
        "aabd4d92e9902f0a62cb866a47a72396a11db229cf0f21f58bc220c4cc1af3c0",
        "19abe0df174522ee13603b3db744a4be895bc89cdf6cc68895a1e18260660898",
    ),
    ("compare", "csv"): (
        0,
        "0d19095fc1be70c6156ef33ec1ad7d87589ccdb8c35aa0494db0eab287b8d3ed",
        "032027eb7c08ec32634e0717d82934f5afec0082629cfb880fb3fc7c28b2c29d",
    ),
    ("divergence-1d", "json"): (
        0,
        "3f678885fca5acaf2246c35af82b3fe8f6616fa2acf0f49a43b49a16c56a0b2a",
        "f1b4f6443ebfb174dc6eeceae1274ade1bdfab32d5de7d34126d91554513e210",
    ),
    ("divergence-1d", "csv"): (
        0,
        "e9915e1673af8b9a101bf0aec7d5d775d7aa62a764de5e5050be35de7c7883ea",
        "d77517a060570fad483c53ab8522dfcc0d234e963157e36a282b55b3a6232435",
    ),
    ("divergence-2d", "json"): (
        0,
        "313c563cc8743f0428cc22ce07b80938da348155888662478ef39b01f6ab479d",
        "9df7072965eda4cf67075e68692281218a368f76c910e0ac0a077b38b0171f27",
    ),
    ("divergence-2d", "csv"): (
        0,
        "08ecbaabbd53da4aa52e0563f3cd05094b31482b62fb38601847a7c5e05672bf",
        "c944d8c64ecb963e34503cd61849e124f4081aa2ce05cbe0fa604ee5c3f07a1d",
    ),
    ("oracle-negentropy-mean", "json"): (
        0,
        "5242074b44140dda31282dc118515add3711fcf5c369f6c3d6ed43c84d9621a6",
        "217f53a1bd9b0f9922d2cdde2561fd35205a113a195744ade73f432e2f6be313",
    ),
    ("oracle-negentropy-mean", "csv"): (
        0,
        "6c9e544cffaf60464116dd457bcde9c279e64a0d8c354908d8ad91bfc28e0363",
        "eb2dd56297aea4e0b8522cf87d3f1c4c6fa92d037b5b101c59c25ac8c72af963",
    ),
    ("oracle-neglog-first", "json"): (
        0,
        "0fd580d10354b73909c20b3a12beae7d9d47c428c10c817a41edba30bf2f73fc",
        "5941866ebdf97598a25b616fa06a695edbce248a5313d073855e6a305b103d85",
    ),
    ("oracle-neglog-first", "csv"): (
        0,
        "f58084db29bd59fdc76830255034e9d546ab7a0088ced9bb103cb51a41756471",
        "79e6ad062a04a64181a163db08bd2b96a210d9c156666fb36c1303da589d7da2",
    ),
    ("reproduce-exp", "json"): (
        0,
        "59ded44cee7825e29c675cf6d7ede5fb082ed6746eb7dca6cefc06d5ffef3905",
        "fb26a4164e471ba4d29967ea60e8289ceceb63dda5afe2ac514c229dcadccec7",
    ),
    ("reproduce-exp", "csv"): (
        0,
        "eec0b2e78a2b56064d556788e1dffcbeafa08925a6004aa53cd0029a8c3bd298",
        "867bc7efaf7c8941420f986d20c14d2a65a1944f723b8d94c886ea35dc9b14dc",
    ),
    ("risk-exp", "json"): (
        0,
        "f04a353ce1c8292953399038e2e6001db5cf14d7da44aa339723e2ed25331ebd",
        "0153fedd9a5a82bd9a65097678987932477a158d514e3c6cad4e4fe8b0b3590c",
    ),
    ("risk-exp", "csv"): (
        0,
        "7417d65cb157681498307e319297d3f76aa1494cf40c7fefb64cb61d6f850283",
        "1c34ff99313b6371de5082be2f2fd9d8fdd1380de9f1b6af14b53069ea08b8a0",
    ),
    ("risk-lognormal-right", "json"): (
        0,
        "5ab77280ee73248d9fa754031f152368ab6e31d262b64169ac3bd3f995a1c5f7",
        "0d13a291e081bf0641bf9af3f0cf54000cae2ae7f66e389ace3e743b1da1fa54",
    ),
    ("risk-lognormal-right", "csv"): (
        0,
        "a7f51073d9b156f0e9fa15eb7ae91f06f78a1907905244c80aa09fa1d60f63cf",
        "226e03916c723527f8f0bb973ac2ccc661c8fe5389b8b8bfd69c4a9696306249",
    ),
    ("risk-neglog-4-chunks", "json"): (
        0,
        "94916bd5d456aa659683d6012c10cfa2bd0c5ad839186c8a05d5454f53534299",
        "931f5d17a48fbb5a178e6a1db8cf5eb4f609a4ec9e26d007925d2149e9450160",
    ),
    ("risk-neglog-4-chunks", "csv"): (
        0,
        "8f421051e08063eb2a8cdc8fedc8486b7c8d9509ffb4fda422bd6271f1b8bc88",
        "f876631531550fd7f8904902e3046342a81fa33152dfab9c179235d0d00e518e",
    ),
    ("risk-negentropy-4-chunks", "json"): (
        0,
        "a33bb87d03d01d74ebddc493c58b93f87d8fa55b88c4063edc685a6190c6e761",
        "542d2acba0782463371ea1174f23cfec77bfa067ceaef345ab32408185466d3e",
    ),
    ("risk-negentropy-4-chunks", "csv"): (
        0,
        "04d80d50c8f0f6070106f9a830241acc77b1a19963461352ee8155252609c22c",
        "6c6ae3c70dcd2e5a583761cbede361c36357dcc60d25b96e4cd76a6b5f56930b",
    ),
    ("risk-sqeuclid-4-chunks", "json"): (
        0,
        "7e0747a434e8516ec0731ad4c8180311b11d434dcbf8fd341213b221ecefa292",
        "7728f32e2dd59dc1ba4901959fb6015fe7f67c553d45b191d2bcf500d41848cc",
    ),
    ("risk-sqeuclid-4-chunks", "csv"): (
        0,
        "0a2a0d69c2190e49f855f53778667a45ff08aaba777df0b6a603017ee68010b4",
        "ec0185bb04a0a84e8b0e801ff8499d5d8883ad6c220ad126b24dbb1499835693",
    ),
}


def run_line(argv, fmt):
    """Exit code and --out bytes of one command line run in process, in the working directory."""
    code = main(argv + ["--format", fmt, "--out", "out"])
    with open("out", "rb") as fh:
        return code, fh.read()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(LINES))
def test_out_bytes_are_pinned(name, fmt, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, data = run_line(LINES[name], fmt)
    stdout = capsys.readouterr().out
    digests = (hashlib.sha256(data).hexdigest(), hashlib.sha256(stdout.encode()).hexdigest())
    assert (code, *digests) == GOLDEN[name, fmt]
