"""Pinned determinism sweep: exit code and sha256 of stdout and --out over a covering set.

tests/test_out_bytes.py pins a few lines at M = 20 000 or 200 000 with n from
3 to 6.  This sweep adds the edges of the Monte Carlo kernel:

- M at a block or chunk edge +-1 at n = 5 (16 383/16 385 rows around one
  2^17-value block, 65 535/65 537 around one chunk) and 81 921, a one-row
  remainder past five blocks;
- n = 1 (one block per chunk, one-row means), n = 2, n = 5, and n = 9, where
  row sums go through np.sum instead of column adds;
- exp, normal and lognormal under their dual-unbiased generators; risk,
  check (type1, type2, lehmann) and compare; both orientations; 1 to 3
  workers.

The Monte Carlo lines are a covering set built by one rule, not the full
product: line k of (M, n) pair i takes kind k mod 5, model k mod 3,
orientation (k div 5) mod 2 and 1 + (k div 2) mod 3 workers.  reproduce runs
the benchmark's own command (default M, one worker) at two seeds for each
example, and a few oracle lines cover the benchmark battery's three supports,
first-k:1 and mean, every builtin generator and a 1x1 mahalanobis file.

Every line runs breglab.cli.main in process, from inside a fresh directory,
with --format json --out out.json.  The hashes were recorded at 207b1bf.  A
change that is meant to keep every output keeps this file as it is; a change
that moves an output on purpose records the new hashes and says why.

History: the six oracle hashes were re-recorded after e46ab0b, when the
Rao-Blackwell risk began to be summed over multiset classes instead of over
the law of the Rao-Blackwell values on every outcome.  Only risk_rb and gap
moved, in their last digits (risk_rb by at most 3.0e-16 relative); every
Monte Carlo and reproduce hash is unchanged.
They were re-recorded again after 8d02a87, when the estimator's own law
began to be weighed through the multiset classes instead of the outcome
weights.  Oracle floats moved in their last digits: risk_estimator and
risk_rb by at most 3.5e-16 relative, and the rounding-sized gaps and
decomposition residuals by at most 1.2e-15 of their report's largest risk.
Every Monte Carlo and reproduce hash is unchanged.
"""

import hashlib
import itertools

import pytest

from breglab.cli import main

REPLICATES = (16_383, 16_385, 65_535, 65_537, 81_921)
SIZES = (1, 2, 5, 9)
KINDS = ("risk", "type1", "type2", "lehmann", "compare")
# model spec, its dual-unbiased generator, theta and a lehmann grid around it
MODELS = (
    ("exp", "neglog", "2", "1,2,3"),
    ("normal:2", "sqeuclid", "-0.5", "-1,-0.5,0"),
    ("lognormal:0.5", "negentropy", "1.5", "1,1.5,2"),
)
ORIENTATIONS = ("left", "right")


def _mc_line(k: int, replicates: int, n: int) -> tuple[str, list[str]]:
    kind = KINDS[k % 5]
    model, gen, theta, grid = MODELS[k % 3]
    orientation = ORIENTATIONS[(k // 5) % 2]
    workers = 1 + (k // 2) % 3
    # the exp type1 estimator T/(n-1) needs n >= 2
    umvue = "mean" if model == "exp" and n == 1 else "type1"
    if kind == "risk":
        args = ["risk", "--gen", gen, "--estimator", ("classical", umvue)[k % 2],
                "--theta", theta, "--orientation", orientation]
    elif kind == "compare":
        args = ["compare", "--gen", gen, "--e1", umvue, "--e2", "first-k:1",
                "--theta", theta, "--orientation", orientation]
    elif kind == "lehmann":
        args = ["check", "--kind", "lehmann", "--gen", gen, "--estimator", umvue,
                "--theta", theta, "--grid", grid, "--orientation", orientation]
    elif kind == "type1":
        args = ["check", "--kind", "type1", "--gen", gen, "--estimator", umvue, "--theta", theta]
    else:
        args = ["check", "--kind", "type2", "--estimator", "classical", "--theta", theta]
    args += ["--model", model, "--n", str(n), "-M", str(replicates),
             "--workers", str(workers), "--seed", str(100 + k)]
    name = f"{kind}-{model.split(':')[0]}-n{n}-M{replicates}-w{workers}"
    return name + (f"-{orientation}" if "--orientation" in args else ""), args


def _lines() -> dict:
    lines = {}
    for i, (replicates, n) in enumerate(itertools.product(REPLICATES, SIZES)):
        for k in range(3 * i, 3 * i + 3):
            name, args = _mc_line(k, replicates, n)
            lines[name] = args
    # the benchmark's reproduce command, at the workload's first op seed for seed 9
    for example, size_flag in (("exp", ["-M", "1000000"]), ("lognormal", [])):
        for seed in (9, 9_000_027):
            lines[f"reproduce-{example}-seed{seed}"] = [
                "reproduce", "--example", example, *size_flag,
                "--workers", "1", "--seed", str(seed),
            ]
    support10 = ",".join(str(0.5 * i) for i in range(1, 11))
    lines.update({
        "oracle-m3n5-sqeuclid-first": [
            "oracle", "--support", "1,2,3", "--n", "5", "--gen", "sqeuclid",
            "--estimator", "first-k:1", "--theta", "0.5,1,2",
        ],
        "oracle-m4n4-neglog-mean": [
            "oracle", "--support", "0.5,1.5,2.5,4", "--n", "4", "--gen", "neglog",
            "--estimator", "mean", "--theta", "0.5,1,2",
        ],
        "oracle-m10n5-negentropy-first": [
            "oracle", "--support", support10, "--n", "5", "--gen", "negentropy",
            "--estimator", "first-k:1", "--theta", "0.5,1,2",
        ],
        "oracle-m10n5-neglog-mean": [
            "oracle", "--support", support10, "--n", "5", "--gen", "neglog",
            "--estimator", "mean", "--theta", "0.5,1,2",
        ],
        "oracle-m3n5-mahalanobis-mean": [
            "oracle", "--support", "1,2,3", "--n", "5", "--gen", "mahalanobis:a.mat",
            "--estimator", "mean", "--theta", "0.5,1,2",
        ],
        "oracle-m4n4-mahalanobis-first": [
            "oracle", "--support", "0.5,1.5,2.5,4", "--n", "4", "--gen", "mahalanobis:a.mat",
            "--estimator", "first-k:1", "--theta", "0.5,1,2",
        ],
    })
    return lines


LINES = _lines()

# (exit code, sha256 of --out, sha256 of stdout) per line
GOLDEN = {
    "compare-exp-n1-M65535-w1-left": (
        0,
        "41194aac882685f6fea7f37de0b609c239bde72745377a45fed677a505661492",
        "fbba198fb4068f84aaafac6c8aba28cab4fa90bdafcae2b17741b2a463af0656",
    ),
    "compare-exp-n2-M65537-w2-right": (
        0,
        "4fe6ab89819c06d58b9a5269abffa5bdb8ea2f31272dccdf2acad0588e800c9c",
        "c06b787d7f308bac58f8d17ea0ee2947c3dcec450823fabf8f30931c0b71c5e1",
    ),
    "compare-exp-n5-M81921-w1-left": (
        0,
        "024fce8f6f522cf9a4729f523c49a360df8354cffcddfb528208eb36cfbd9c00",
        "f1666c1ca37589364807a1e44d383ceeae02393aea677dd0f5bda36ad4b6b024",
    ),
    "compare-exp-n9-M16383-w2-right": (
        0,
        "aeade8916d08958ddb9bab30bb889206c7513bb5fbe7e792e997332b441abc08",
        "b761d88852f5b1e6b6963e98e8367e15f758501696eeb8b44780e603ecb96cbf",
    ),
    "compare-lognormal-n1-M16385-w2-left": (
        0,
        "5f5ed3a98d540f137f6124a8900e945e18a296c408455144d8b34d83e5942611",
        "c37f0430b416b3c56064c03b8aa399a4f1df14cb946da033df93a7f0d4329353",
    ),
    "compare-lognormal-n2-M65535-w3-right": (
        0,
        "1976cbc5f79c55ff00376bc21961df2df57046e721adf0b1060918a7c743b14b",
        "40377cb19eb9c1d8ba71b52355b4da8e767f4ea3d80064c5b61e78d804848236",
    ),
    "compare-lognormal-n5-M65537-w2-left": (
        0,
        "383034072a749b55da96d4c05fe79dbb0ab58838944e233d5a13d318da70477c",
        "6d06728cd8c9b0719d5fd6dc0c00dc84bb5575d5168bf7d5c9bcbda3e5a43dce",
    ),
    "compare-lognormal-n9-M81921-w3-right": (
        0,
        "3e98100e41975facfb2f38077f42aa4ed276a7bbcd3d07b3c1583781b4ec9e69",
        "4c6824f6d7555b3dd142a529c789a75c11c23a17320059957da85c23a8c214e8",
    ),
    "compare-normal-n1-M81921-w1-right": (
        0,
        "ce0900ba202a6bbf94a2bc4cd4a6860dab5623c4faaed0c3e2b223f541ef5b63",
        "eebb0949289ea83f3271b8fde3e96146189d426d84269d0d163ec732aa20c6c9",
    ),
    "compare-normal-n2-M16383-w3-left": (
        0,
        "c39b0ae8a69c51b6ecd357858dd20e5cbceff8727dd40c4c260b45bf39340337",
        "e4ee0433dc190e781a17acb33254cfc1be87e8e991ff2b0457a8160740282f0c",
    ),
    "compare-normal-n5-M16385-w1-right": (
        0,
        "d8ccb3d2981efd1f395725beb9e787b256e21c50eb3d611338b86ffe73673b2a",
        "3ba178c6aad49ff71727fea9b3b603385f07e1a199006e939a8b4ce16e60cfa2",
    ),
    "compare-normal-n9-M65535-w3-left": (
        0,
        "4ec867df2968e7f0a2daeca2245037c72ed789b32978a631dcd6648df7b3f2b4",
        "29733564172339f820f9ce1f315074e14423c1432b4fec0999917d63b5660b84",
    ),
    "lehmann-exp-n1-M81921-w1-right": (
        0,
        "52263055a8099e3dbfa2f0693d9761be13cc29493177722479c48137113f31c0",
        "8e63cd5b367d07573317e654f8ae9d82494fe0650de56772383a11f151650d9e",
    ),
    "lehmann-exp-n2-M16383-w2-left": (
        0,
        "413c05b0ed64103ebe1582e0dfb60a63be6789e343e60c21b27136f3f3c5395f",
        "da34d133e103c551af7105e69ae0d156264cb851a0db5af14e27e2d19f451dcd",
    ),
    "lehmann-exp-n5-M16385-w1-right": (
        0,
        "10ed9b3eacc2321ff24da2b28f6ea43b583180524fa8b73219279163891e90f8",
        "31566e51c4bd43aed532b59845cef5fb8e9f516e1fd8916ffa6420112a50df36",
    ),
    "lehmann-exp-n9-M65535-w2-left": (
        0,
        "54a979132581149d3b7c55af40176788d630216d79fd5dbb083f18ad5177217f",
        "29cc3659b1df379afa8acb735881aed9f2a2d6a94a97ab686793ff8239eb0ce6",
    ),
    "lehmann-lognormal-n1-M65537-w2-right": (
        0,
        "61170637584a51bb1d962eb9e948f3499aef9d89b8c59e6ba4712d9b9afba486",
        "912f912d035bfa7dae7cf41c88971fb99f3528baf889a8e49d79521f6a8c0e45",
    ),
    "lehmann-lognormal-n2-M81921-w3-left": (
        0,
        "9487fb126fa6d88ef4624d7018ef79714dbc4a87862d1bf9000d4332b1e96a58",
        "c3c0d8fe757a2f9dee86321520876ff21517fd0c2293eb8a4e32322a5100f9c9",
    ),
    "lehmann-lognormal-n5-M16383-w2-right": (
        0,
        "1160e27b823fe91a258ea574a0cb8dfefd4526e745fcb12b37fdfd787b2c2a30",
        "bb4cb47af66d242c0f37328fc6dd31fcfa5923090ed8af1f456547f060619779",
    ),
    "lehmann-lognormal-n9-M16385-w3-left": (
        0,
        "4fd3b0762d20963de52085039b09ade739caa7182e8ee0f2f947ba1664a1e60a",
        "d63ec6d7076fc2f7da598c2496d773488240a6392620fec14157225e9b6dd51f",
    ),
    "lehmann-normal-n1-M16385-w1-left": (
        0,
        "0f61e75bfcb89d1d089de7b3626e68bdd23c5576097487f67ffa3da728068a56",
        "c81b595a43425314e21e0db0dd02ecac536ae25f008a2981df6cc2e7283b253f",
    ),
    "lehmann-normal-n2-M65535-w3-right": (
        0,
        "f474cf51cda72069cd7e2b4d7f9ca47e26ccbd4d2648a8da5b3d82bd21d5b4f4",
        "5092793fda571fa6ffa36c474ca679883a1b9e14ddf6a0f48a553f86e385a0c5",
    ),
    "lehmann-normal-n5-M65537-w1-left": (
        0,
        "7e12919f4710cfb50e3e94627283e2cd6d4a2d3ede3f6e59f1be4a12c5c511bd",
        "7d3852687f86de5377fde6258ef7e4b8f0a5ecf3943b92315bdef250a9c8bc61",
    ),
    "lehmann-normal-n9-M81921-w3-right": (
        0,
        "831be128c9407ee2b02196472449a902e56cc316a0b8e0b645640fa4e4466ab9",
        "6795effe13474be383455d1aadd8a49d0b2c76950000487c4eb8dbe7bb09ca70",
    ),
    "oracle-m10n5-negentropy-first": (
        0,
        "6e2a4ac84706354ada840ea512a2461eafde8b608cdb59f3e4765ac2eff53f0e",
        "c395e0eef48d82193e59d21dd041b94bb736d0b59c7a31859b8800baa87e1d77",
    ),
    "oracle-m10n5-neglog-mean": (
        0,
        "ee941b24381a5e964877eb55682d7a9df52d4a2233b85df65217a69da9f779a8",
        "84afb75a33d66ceadb1a86510cc7c0c17e97b1cfd24bcf2413728981ecf17ae6",
    ),
    "oracle-m3n5-mahalanobis-mean": (
        0,
        "3ce39a089c5a436597f3f78bda15f403a7ab24617879076dbc9f9a7bf64024d2",
        "2aba0bf4244238f4097c9965a06957aa25dac1e30e9923b711bd46eaad722b6a",
    ),
    "oracle-m3n5-sqeuclid-first": (
        0,
        "cfbff8e64561ce934e0ccf63aa4211f987a2cf34e6f5f2bd083ae890c158b1e9",
        "810f7079523130835d8ac3c7a433c432b080adeee32889773c4fbc0f66c0ca69",
    ),
    "oracle-m4n4-mahalanobis-first": (
        0,
        "3e211c12fae19d64cfd0d7e5b3c1c5d46f3e45acd890667a56755941d873c304",
        "ae3524fb30b70194dcb88c0942f0777ca05f9df49eab706604d4ff73c932b147",
    ),
    "oracle-m4n4-neglog-mean": (
        0,
        "c65a1583a455b6d85d0cb158087fd62ceb26061d305fed930d970701defd9afd",
        "4461d16a8c0c65667f91b28d810816e914d103c1c6172b44960e7e5dc7756eda",
    ),
    "reproduce-exp-seed9": (
        0,
        "497e95b20179ade03677c81f02e9e01419e7619c679987eaa28b61f10d8222e8",
        "8a7a9e2c20730ebd85669682fae9ae34d69c72bc2eaed6577dcb8f758b735680",
    ),
    "reproduce-exp-seed9000027": (
        0,
        "ca036ffc73cca1d1336a35c2a57160bbd6b836b521ccc5f37daa2a54e6ceaec4",
        "f8c0e2041be77390aa81d3a935ff5619e560684f83c1bf4aba6324d0111089a1",
    ),
    "reproduce-lognormal-seed9": (
        0,
        "072b5377a92e6eba4a53916697718daba1d478de685bc4cd082c0b2373183418",
        "b5ffdd040f6a7984d7078384a8a0d429fde08e6b62a436766c4cfb19cde1d2a2",
    ),
    "reproduce-lognormal-seed9000027": (
        0,
        "9a83c762f9247260a4800d0659c31d1d0c0daa2ea9116cfa3ba56fdbcf0df1e6",
        "ff7a7a521de169d35b6bb8768a6c21d8a8884632b62ec3dc0b95299841f16aed",
    ),
    "risk-exp-n1-M16383-w1-left": (
        0,
        "830a63ece595eb212943e84c1c1e2314af43ab635e3f400a06d174cbecc39614",
        "00f6ac85c9e9f0d894d2258f1c083bb25d68706bce9541168fa8393d65bd3cd8",
    ),
    "risk-exp-n2-M16385-w2-right": (
        0,
        "dba5538e9322b9b398fba4b47eb03a012ec437697265bf78c0701ab6e01fb200",
        "71028328a8786764627bd08e415d6b7ffe24d4d667969118b9b3dac8325680f1",
    ),
    "risk-exp-n5-M65535-w1-left": (
        0,
        "b361ae64512c1ef39a68fd1d9aca6682c4cee77fff582713c77c55a840d65b03",
        "15ecfc51939a8f6987b74165e8ce0cc997682fbddfb5a90ab486316f7e80a118",
    ),
    "risk-exp-n9-M65537-w2-right": (
        0,
        "bc5f7b7b0a97d22cfc578658d994267b87d20749a890165efad0f6a7b45646ff",
        "3946eccf263545a36acdc279697b5dd33913e061e922b93bcd5d4fe9a1f912ac",
    ),
    "risk-lognormal-n1-M81921-w2-left": (
        0,
        "31bae41c27322b732c9cf3aee6ca78068b4fe2db48d7487a370d8289bc4ba9ee",
        "01edfab994ab58bf473a808c706b9bc6c942f240019e99ffeb3247b9f075320d",
    ),
    "risk-lognormal-n2-M16383-w3-right": (
        0,
        "6a7aba9c25c37268fcb026fda7c38835243bb2cb1e6fd33eed8826db72ab6ee0",
        "c49038f230d14da68e7e00d65cf8f8f385a6d9597aa5075b2482e370f5a5c787",
    ),
    "risk-lognormal-n5-M16385-w2-left": (
        0,
        "c8f6d59df7d470a771824e3b3e40db08a951a788cf29a2c5ab9a7815d0229304",
        "9caf1a7c9c4912038cc52919ad6f7bbf3c2253a0dd4f0503107514456ba923e3",
    ),
    "risk-lognormal-n9-M65535-w3-right": (
        0,
        "9f34ec88addc8c530c8e5fe4b97d97e2419f8f487658ae1d49b8bc5230fb1f1e",
        "6e4ea721bb8cc2657b3951439d4439a3278ba1626ecfad5b78598a01e6c6a4af",
    ),
    "risk-normal-n1-M65535-w1-right": (
        0,
        "0b2b4fc6fbdd21d09e6389c4c3b878c834fcb85e3fdc9d019244b7745ee8e0a4",
        "ec94b3d432e49b91a04ba438180f0aa92106782fa8bf8cff77cb76793bc96158",
    ),
    "risk-normal-n2-M65537-w3-left": (
        0,
        "969245efc112f09cd04ae165561edd0694f5b7ed7cd0e48a495a109c1ea3d4d4",
        "4e14e14c021187850542c5a6b9326936aa95b647249382ed4c35acb0b196faf1",
    ),
    "risk-normal-n5-M81921-w1-right": (
        0,
        "99b5487c6347dc48e73bfe210b9e6e58969f8d149fc37872dfe9c022bc2eb8d1",
        "94008388bc1b538b0dedd93b6a79533f89fb9b103257c93a38944b4cfb8cc9f2",
    ),
    "risk-normal-n9-M16383-w3-left": (
        0,
        "a39ae4a4e40807449cf0f23d6fdf0b213af78923ce1ffb05092935d760ef88f2",
        "4bd1375f6330ac2ba39d1941b5eab429d36d9b4704e419105a0c917e4fce07bf",
    ),
    "type1-exp-n1-M65537-w1": (
        0,
        "7907a42ed7a54cdaca12548f8e8c7fe8e71ea484393fc80758c9c3870cdf4eff",
        "e86412f45a96f287f76d99edd1da5dd5df5b11b0f2c3f6d65c9eba24a1a7910a",
    ),
    "type1-exp-n2-M81921-w2": (
        0,
        "5f67e7c15e5e3b4b4d73afda0dc5072bb04b8d3ea6dcb6c4da9feff4b4288e33",
        "55e4e92fdaab5356206c0d40baa11e0a311fe2930a68b948486e71dd9abc142c",
    ),
    "type1-exp-n5-M16383-w1": (
        0,
        "81ee1930c177c56c0e08a908bc74f35ecdde57453881d9b1da1e622902c0e8b4",
        "b2e1a81fabd4c655a707c69a87a58aff4876c81a5b4830aa12d9057c0c5440ee",
    ),
    "type1-exp-n9-M16385-w2": (
        0,
        "0c965adc18ad8351f2596ff8448edca4405e57d1c982554637ef2ecfffa19a7f",
        "a45b080a8fbffb45471ce0603fec7cd29c0e8ceb745b309a91fc94eb22901538",
    ),
    "type1-lognormal-n1-M65535-w2": (
        0,
        "664bcc75ec4ec783a8568aaa566f1d588882f3c6290dbe82f182ad8e0a5c360b",
        "3f0723de8fd5fba230affff7e9c9b74a2ed553ba4ffd0e40b83341660c6537ad",
    ),
    "type1-lognormal-n2-M65537-w3": (
        0,
        "34e0a21a980f5ae1f32737e707eb52b573f62d688ff43d809b0928cbe9c74ad4",
        "b85c58ee11027c7d2430af551528aa52a0ed7f3eef2578dae4c45bc0cdcf4188",
    ),
    "type1-lognormal-n5-M81921-w2": (
        0,
        "3ab3eff9b666ac03e3a7e115c611aaa9821b527b8f112fd01011001b387c4901",
        "e1c63353056a623256fce73d8c227f2caab7a3704c2be2819698c65bb5ed5565",
    ),
    "type1-lognormal-n9-M16383-w3": (
        0,
        "25d87628eebe6b73c4348239b57997e2864d087ccc484c0804bd06598aa77b1f",
        "6d8dc0d74c225e2d8a95affc708f7b18319ad1b81aec01f6a96a7e8e824bfc90",
    ),
    "type1-normal-n1-M16383-w1": (
        0,
        "16fbd73c692cc837ceb7a4dc760e52226f64b94798874eb7342ab56f1eab1b1e",
        "f06a2bbf9a47e14ab5c56ec5f610a1649fd07470a7b162aff1f684a43090c4bf",
    ),
    "type1-normal-n2-M16385-w3": (
        0,
        "bf16a7345ad9c58aa144e5ea67b50348d015a8f13ce2ae5244966def91e91c83",
        "eb2e6e293e77a8f343d92b69ea38aeb26d418ac759803722707f6086b5a48d75",
    ),
    "type1-normal-n5-M65535-w1": (
        0,
        "e2265778a77946bec4fc3d38ca3e86b27ebf1645c188aaeef138e0a503caba9c",
        "4624562a2fb4afb5bd55cf905ea0353532cef1d0ac8fee54c44271802ab18db4",
    ),
    "type1-normal-n9-M65537-w3": (
        0,
        "262617c02e7ef3eb3e8440230c94600c74fbf91d9a7aa54ed10320fc52649f52",
        "e5d4b91a224832dfcc6cc265dae4e4002f87004131ca08ba4fe455fbfd3d9488",
    ),
    "type2-exp-n1-M16385-w1": (
        0,
        "2cd3cd78f1910cddcda7e35da9be3541c4ebbacef21edb32bbbeb752de2857df",
        "c201c8c3779f4b135c27eb69fabf08e5a3605e31eab8eaffe5219b9eabbe049f",
    ),
    "type2-exp-n2-M65535-w2": (
        0,
        "65e2c82918daba98333b59f1bca30d4da57f801f821063a35e0bc21dca883077",
        "8ac8cceff39085a270fddcc70e325c1bef427c06f2129a357e6b44b60ee0dda9",
    ),
    "type2-exp-n5-M65537-w1": (
        0,
        "108ca24694e7550b52107033197e1b6240a0d1f879730dae955859764de153d7",
        "7c09bddbf1d03e0a5f7d8784e140f6baf61b3153c89889c2688467e7e76b3f20",
    ),
    "type2-exp-n9-M81921-w2": (
        0,
        "7c7c20b76b9b6a39206d22628ad5dbfa3ceb02503482761c02966a23e8af2e10",
        "7424f1524ab2675169fa11e2204adbfb8f773b30e031795070faf5e8e5b015e5",
    ),
    "type2-lognormal-n1-M16383-w2": (
        0,
        "0f7ecd4c66bdf633f860d2c89318291fc601a6719bb0e552ff4acf5df5ae362e",
        "45476b6ab70ef7d5a1df0fdfce8be66adb6c01083080405dbbbd0f9b23aea1ff",
    ),
    "type2-lognormal-n2-M16385-w3": (
        0,
        "108ee53c4d6aacc50536490dc5be0b65c893b3a531ca28a9867f88d2b42aecb0",
        "1723020218d0983ffc9e833319af5fec2824b7b8642faa912420917d8ddfd4ea",
    ),
    "type2-lognormal-n5-M65535-w2": (
        0,
        "8e7774d22c713663e6408561ecca8c95e43ac31bdcab18c4f69578e0ce7252c2",
        "30ff1450d3c631ca19e4d00b82a7d7e78940c3984507b3d0ab07285854fddd1d",
    ),
    "type2-lognormal-n9-M65537-w3": (
        0,
        "19489a054a0a13e5bb111036ad61f3de27a9b506770c78cac144406afe063eae",
        "bb32f33f36b61a4a0c8ebb95245d0b531fa46db793ff6894c1d95ce7b49ee42c",
    ),
    "type2-normal-n1-M65537-w1": (
        0,
        "d50a50c3ea9d30feec56727d74450e1f374d0c406cef652d3a1afa37f995077a",
        "216a91aeb9b31ab043294a16464265ec8ad4ac1370d0fb891cea22e03702385e",
    ),
    "type2-normal-n2-M81921-w3": (
        0,
        "67a825d30463d5dd7ab2d0d5da8b13cf9ea0b6f579d8cbe94437c3046acb38d6",
        "10a3adca249e26d4a5ae0d97831e94d794caf703bdb3976e11709de942f8f65a",
    ),
    "type2-normal-n5-M16383-w1": (
        0,
        "44883064c4311e014fb117273d9bcb02fa3a328c1aed1e181be554da7eb6928f",
        "52cf53574ca5ee52eb264fd51e8904d44d56cf6c03aea3d59cf4a3489a3c2894",
    ),
    "type2-normal-n9-M16385-w3": (
        0,
        "649cd97e27c8111a4b016480f12123a08dccb98e7d5be3c876f0cf847d115763",
        "f7f91472d13832928ceafc0fef18516658bbf7a1088d0d2fc60a90b026e2a7c3",
    ),
}


def run_line(argv) -> tuple:
    code = main(argv + ["--format", "json", "--out", "out.json"])
    with open("out.json", "rb") as fh:
        return code, hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(LINES))
def test_sweep_is_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.mat").write_text("1\n1.5\n")
    code, out_digest = run_line(LINES[name])
    stdout = capsys.readouterr().out
    assert (code, out_digest, hashlib.sha256(stdout.encode()).hexdigest()) == GOLDEN[name]
