"""Golden bundle corpus: every generated bundle stays byte-identical.

``data/golden_bundles.json`` holds the sha256 of ``MatrixBundle.dumps()``
for every admissible quadruple x source x block choice, at unit parameters
for doubled spins <= 4 and at multi-term radical parameters for doubled
spins <= 2, and ``LARGE_BUNDLE_DIGESTS`` does so for ``gen`` at dimension 145
and 60.  A refactor of any construction route, of the momentum projection
or of the serializer must leave every digest unchanged.
``SWEEP_DIGESTS`` does the same for the ``verify --sweep N`` report, and
``CORRUPTED_REPORT_DIGESTS`` for the ``verify --in`` reports of bundles with
one matrix edited by hand, which pin each failing rule's first residual, and
``EQUIV_DIGESTS`` for the ``equiv`` payloads, fits and mismatch reports alike.

Re-record (only when an output change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

from poincarerep import bundle as bundle_module
from poincarerep import generators
from poincarerep.bundle import MatrixBundle, vectors_from_source
from poincarerep.cli import main
from poincarerep.momentum import momentum_from_vectors
from poincarerep.radical import ONE, RadicalScalar
from poincarerep.spins import Spin
from poincarerep.vectors import CaseTag, FreeParams, classify_case

DATA = Path(__file__).parent / "data" / "golden_bundles.json"

# sha256 of the `verify --sweep N` report bytes, keyed by N.
SWEEP_DIGESTS = {
    0: "eb8230b9acd3d6bee9334a79b9b945b2a691d51c6d86bfc3128d3402d99adae3",
    1: "9c406a216113da5da0b9034e16dc7fadb2a8b6df868a0e0a3fa7f87fd154d502",
    2: "1a88541ea5cb110117f453606a00eab72d3dfc070ed2ec0a4ecb18e9a6facb52",
    3: "08ed19a3be9064c76b3771297a99094c691bc614067742af6a8f38cfc567a366",
    4: "bc2d9bad9c2a71f2233fc01a4951d009d1874c0f36bdf769a81e76d52c8890e0",
}

# sha256 of the `verify --in` report of a (2,1,1,2) bundle after one edit,
# keyed "block/edit"; see CORRUPTIONS.
CORRUPTED_REPORT_DIGESTS = {
    "keep12/Kx-doubled": "c1a77bb50b8daba3c6ab7b35c05ab59cb59453db750832cee29236be6dc84abd",
    "keep12/Vt-negated": "a5975d21dc299cb75f40a005340a9e137a4d38df57fe1796e821ede97d8d1e37",
    "keep12/Jz-diagonal-bumped": "dcdcdae0514edb8254995ff4e2a6d0a092b8271550a42eec1b0cf032e40e2161",
    "keep21/Ky-negated": "ebaa0f56091231728666a2b05158f0ff3e6c5777510d89be201027b3df553489",
    "both/unedited": "35c0ad9b29ae56d034a15e0611ac23fb6bc8adcd5ef21a22fd7aa851de930a88",
}

# sha256 of the `verify --in` report of the canonical keep12 (2,1,1,2) bundle
# with one J_x cell rewritten to the canonical text of 1, keyed by the cell's
# row-major position: 1 lies in the first irrep's block, where J_x holds 1/2,
# and 6 in the empty 12-block, where only the Lorentz rules see the edit.
# Recorded from the release before standard J and K were recognised by text.
EDITED_JX_REPORT_DIGESTS = {
    1: "f89bbd8aab53ab2a4fd98826c6757f201acdedcf20022bc2e15af1df70ccfeb6",
    6: "e5708553a3db6dabd4490035d1f0eae60c032e23c6a4e3d63e816941eccda4c3",
}

# sha256 of the `verify --in` report of a canonical (2,1,1,2) bundle with one
# V cell rewritten from 1 to 2, keyed (block, matrix, row-major position).
# Vx cell 30 lies in the 12-block of a keep12 file, off the pivot row and
# column of its rank-one factorization, so only the proof sees the edit; Vz
# cell 85 lies in the 21-block of a both file.  Recorded with the release
# before the vector rules of a bundle were settled by their one-spin factors.
EDITED_V_REPORT_DIGESTS = {
    ("keep12", "Vx", 30): "b1e7da5e7a05c3d78850679a255a150603ee0adc8d8305af423e04d77ede9d4b",
    ("both", "Vz", 85): "f058c9394c42ef29b6bc10832c30f878588585480f624e68b689cea3f985b2a9",
}

# sha256 of the `equiv --out` payloads of the 36 admissible quadruples with
# doubled spins <= 3, concatenated in itertools.product order, keyed like
# EQUIV_VARIANTS.
EQUIV_DIGESTS = {
    "default": "d4f2f15485443b96b58a031fcf4c7779191c192563afb0109df03aa125e6c1e3",
    "lambda12=0": "cc60bd479586857ac8f58279481c1981bcaa608e649442b6fafc21a8dabf0f34",
    "lambda21=0": "434197dd8dea56cfa9fa314e129b4e4191fd587c30a1dd33c45827d8f770c6c9",
    "t12=0": "77d79d45778e56047116e03f6ab11e39b0138951e96ba9a71e1e9a4c7e2e6b63",
    "dressed": "29562d6ab90153aa09f37458d74cd90392063b78774dc21cf1dbc04217bd43d8",
}

# sha256 of the `gen --spins S --source R --block B` bundle, keyed "S/R/B";
# the keys ending in /dressed are at the dressed parameters DRESSED.
LARGE_BUNDLE_DIGESTS = {
    "8,8,7,7/closed-form/both": "04a5da13069c124566e3044890916779dcaa24f42060ddf5e3c3e443ca237c5c",
    "8,8,7,7/closed-form/keep12": "489a98fdfa8a6af1fc026cf0be0bf875f9c416962fb059a0747948926a4175ba",
    "8,8,7,7/closed-form/keep21": "dddd8c9f4bf9a2e1a96b0bab510d1c4a023f151975f6b2c04c3907bdc31a7270",
    "8,8,7,7/recursion/both": "c9810790ef6274f4ceb6b5f060ed0f0d382f8ed9032f8210e8497ff07be55471",
    "8,8,7,7/recursion/keep12": "8e181634a233d9b565c67ab35a811712057d16c6f11c47da3ce33294885fa11b",
    "8,8,7,7/recursion/keep21": "98b38648519fc1be94ebe3daefc7227075b5e11667d783fcfd5b7e0a468a73f7",
    "8,8,7,7/clebsch-gordan/both": "a539410a85f7fbf00857d164a35ece36fee36fda8b6e6ce2918234933cbf2cf9",
    "8,8,7,7/clebsch-gordan/keep12": "08cba5d9d954211512760b67d4ef5755473c2c6ef8637860801fdbcffe956170",
    "8,8,7,7/clebsch-gordan/keep21": "e95a5ac8606d39413b6a8afc214f40e8ce429f22626c52cd84eee5368a0ed8b7",
    "4,5,5,4/closed-form/both/dressed": "9aa0e829508d7126913131b53d8759b0910a7a8049a956600b03088c16a05aa9",
    "4,5,5,4/clebsch-gordan/keep12/dressed": "e482a13ff86b8353e3968cfbd4371ca7f50e9f17aa31525c771b94210c57c510",
    "4,5,5,4/recursion/keep21/dressed": "11631e41131003c24232df82a7c7fef55d1055d46fd44d1983a9a1322c7f0fae",
}

SOURCES = ("closed-form", "recursion", "clebsch-gordan")
BLOCKS = ("both", "keep12", "keep21")

# (bound on doubled spins, t12, t21) per corpus section.
# dressed: t12 = 3/4*sqrt(6) + 2/5*i*sqrt(10), t21 = -5/7*sqrt(3) + 1/3*i*sqrt(14)
SECTIONS = {
    "unit": (4, FreeParams(ONE, ONE)),
    "dressed": (
        2,
        FreeParams(
            RadicalScalar.from_terms([(6, Fraction(3, 4), 0), (10, 0, Fraction(2, 5))]),
            RadicalScalar.from_terms([(3, Fraction(-5, 7), 0), (14, 0, Fraction(1, 3))]),
        ),
    ),
}


def digests(bound, params):
    """sha256 of every bundle in one corpus section, keyed "2A,2B,2C,2D/source/block"."""
    out = {}
    for quad in itertools.product(range(bound + 1), repeat=4):
        spins = tuple(Spin(t) for t in quad)
        if classify_case(*spins) is CaseTag.NO_SOLUTION:
            continue
        label = ",".join(str(t) for t in quad)
        for source in SOURCES:
            full = vectors_from_source(source, spins, params)
            for block in BLOCKS:
                vec = full if block == "both" else momentum_from_vectors(full, block)
                bundle = MatrixBundle.of(source, vec)
                text = bundle.dumps().encode("utf-8")
                out[f"{label}/{source}/{block}"] = hashlib.sha256(text).hexdigest()
    return out


def test_golden_bundle_digests():
    golden = json.loads(DATA.read_text())
    assert set(golden) == set(SECTIONS)
    for name, (bound, params) in SECTIONS.items():
        got = digests(bound, params)
        changed = sorted(k for k in golden[name] if got.get(k) != golden[name][k])
        assert set(got) == set(golden[name]), name
        assert not changed, f"{name}: {len(changed)} bundles changed, first {changed[:5]}"


def test_large_bundle_digests(tmp_path):
    out = tmp_path / "large.json"
    for key, want in LARGE_BUNDLE_DIGESTS.items():
        spins, source, block, *dressed = key.split("/")
        options = ["--source", source, "--block", block, *(DRESSED if dressed else [])]
        assert main(["gen", "--spins", spins, *options, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, key


def test_golden_sweep_reports(tmp_path):
    for bound, want in SWEEP_DIGESTS.items():
        out = tmp_path / f"sweep{bound}.json"
        assert main(["verify", "--sweep", str(bound), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want, bound


def _scaled(entries, k):
    """A JSON matrix with every entry multiplied by the integer k."""
    return [
        [{**t, "re": [k * t["re"][0], t["re"][1]], "im": [k * t["im"][0], t["im"][1]]} for t in terms]
        for terms in entries
    ]


def _bump_jz(mats):
    # Jz of (2,1,1,2) is diagonal in a + b; row 2 is (a, b) = (1, -1/2).
    cell = 2 * 12 + 2
    assert mats["Jz"][cell] == [{"d": 1, "re": [1, 2], "im": [0, 1]}]
    mats["Jz"][cell] = [{"d": 1, "re": [3, 2], "im": [0, 1]}]


DRESSED = ["--t12=3/4*sqrt(6)+2/5*i*sqrt(10)", "--t21=-5/7*sqrt(3)+1/3*i*sqrt(14)"]

# name -> (gen options after --spins 2,1,1,2, edit of the "matrices" object)
CORRUPTIONS = {
    "keep12/Kx-doubled": (["--block", "keep12"], lambda m: m.update(Kx=_scaled(m["Kx"], 2))),
    "keep12/Vt-negated": (["--block", "keep12"], lambda m: m.update(Vt=_scaled(m["Vt"], -1))),
    "keep12/Jz-diagonal-bumped": (["--block", "keep12"], _bump_jz),
    "keep21/Ky-negated": (
        ["--block", "keep21", *DRESSED], lambda m: m.update(Ky=_scaled(m["Ky"], -1))
    ),
    "both/unedited": (["--block", "both", *DRESSED], lambda m: None),
}


def corrupted_report_digests():
    """Digests keyed like CORRUPTIONS; writes bundle.json and report.json here.

    The report names its bundle, so the path is relative to the current directory.
    """
    out = {}
    bundle, report = Path("bundle.json"), Path("report.json")
    for name, (options, edit) in CORRUPTIONS.items():
        assert main(["gen", "--spins", "2,1,1,2", *options, "--out", str(bundle)]) == 0
        data = json.loads(bundle.read_text())
        edit(data["matrices"])
        bundle.write_text(json.dumps(data))
        assert main(["verify", "--in", str(bundle), "--out", str(report)]) == 1, name
        out[name] = hashlib.sha256(report.read_bytes()).hexdigest()
    return out


def test_corrupted_bundle_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert corrupted_report_digests() == CORRUPTED_REPORT_DIGESTS


def spin_bases(monkeypatch) -> Counter:
    """Counts of the spin bases placed for standard sets and formed from a file's J and K."""
    made = Counter()
    place, form = generators._place_spin_basis, generators.GeneratorSet.from_cartesian.__func__

    def placed(spins):
        made["placed"] += 1
        return place(spins)

    def formed(cls, *args):
        made["formed"] += 1
        return form(cls, *args)

    monkeypatch.setattr(generators, "_place_spin_basis", placed)
    monkeypatch.setattr(generators.GeneratorSet, "from_cartesian", classmethod(formed))
    return made


def test_a_gen_written_bundle_places_no_spin_basis(tmp_path, monkeypatch):
    # Its J and K are the standard ones, and every check settles its verdicts
    # from the spins, so verify --in forms no n x n generator matrix.
    monkeypatch.chdir(tmp_path)
    made = spin_bases(monkeypatch)
    for source in SOURCES:
        for block in BLOCKS:
            options = ["--source", source, "--block", block, "--out", "bundle.json"]
            assert main(["gen", "--spins", "4,5,5,4", *options]) == 0
            code = 1 if block == "both" else 0
            assert main(["verify", "--in", "bundle.json", "--out", "report.json"]) == code
    assert made == {}


def test_a_canonical_bundle_with_an_edited_j_x_takes_the_general_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    made = spin_bases(monkeypatch)
    bundle, report = Path("bundle.json"), Path("report.json")
    for pos, want in EDITED_JX_REPORT_DIGESTS.items():
        assert main(["gen", "--spins", "2,1,1,2", "--block", "keep12", "--out", str(bundle)]) == 0
        data = json.loads(bundle.read_text())
        assert data["matrices"]["Jx"][pos] != [{"d": 1, "im": [0, 1], "re": [1, 1]}]
        data["matrices"]["Jx"][pos] = [{"d": 1, "im": [0, 1], "re": [1, 1]}]
        text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        # Still canonical, so the fast loader reads it; its J and K are held.
        loaded = bundle_module._canonical_bundle(text)
        assert loaded is not None and loaded.JK is not None
        assert not loaded.generators.standard
        bundle.write_text(text)
        made.clear()
        assert main(["verify", "--in", str(bundle), "--out", str(report)]) == 1
        # The checks read the basis formed from the file's J and K.
        assert made == {"formed": 1}
        assert hashlib.sha256(report.read_bytes()).hexdigest() == want, pos
        failing = {r["ruleId"][:2] for r in json.loads(report.read_text())["rules"] if not r["holds"]}
        assert {"JJ", "JK"} <= failing
        if pos == 6:
            assert failing <= {"JJ", "JK", "KK"}


def test_a_canonical_bundle_with_an_edited_v_cell_takes_the_general_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    made = spin_bases(monkeypatch)
    bundle, report = Path("bundle.json"), Path("report.json")
    one, two = ([{"d": 1, "im": [0, 1], "re": [k, 1]}] for k in (1, 2))
    for (block, key, pos), want in EDITED_V_REPORT_DIGESTS.items():
        assert main(["gen", "--spins", "2,1,1,2", "--block", block, "--out", str(bundle)]) == 0
        data = json.loads(bundle.read_text())
        assert data["matrices"][key][pos] == one
        data["matrices"][key][pos] = two
        text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        # Still canonical, so the fast loader reads it; J and K are the standard ones.
        loaded = bundle_module._canonical_bundle(text)
        assert loaded is not None and loaded.JK is None
        bundle.write_text(text)
        made.clear()
        assert main(["verify", "--in", str(bundle), "--out", str(report)]) == 1
        # The failed proof falls back to the commutators, which place the basis.
        assert made == {"placed": 1}
        assert hashlib.sha256(report.read_bytes()).hexdigest() == want, (block, key, pos)
        failing = {r["ruleId"] for r in json.loads(report.read_text())["rules"] if not r["holds"]}
        vector = {rule for rule in failing if rule[:2] in ("JV", "KV")}
        assert vector and failing - vector == (set() if block == "keep12" else {
            "PP.xt", "PP.xy", "PP.xz", "PP.yt", "PP.yz", "PP.zt"
        })


# name -> (equiv options after --spins, exit code of every quadruple)
EQUIV_VARIANTS = {
    "default": ([], 0),
    "lambda12=0": (["--lambda12=0"], 1),
    "lambda21=0": (["--lambda21=0"], 1),
    "t12=0": (["--t12=0"], 0),
    "dressed": ([*DRESSED, "--lambda12=2/3*sqrt(5)", "--lambda21=-i"], 0),
}


def test_equiv_payloads(tmp_path):
    out = tmp_path / "equiv.json"
    for name, (options, code) in EQUIV_VARIANTS.items():
        digest, count = hashlib.sha256(), 0
        for quad in itertools.product(range(4), repeat=4):
            if classify_case(*(Spin(t) for t in quad)) is CaseTag.NO_SOLUTION:
                continue
            spins = ",".join(str(t) for t in quad)
            assert main(["equiv", "--spins", spins, *options, "--out", str(out)]) == code, name
            digest.update(out.read_bytes())
            count += 1
        assert count == 36
        assert digest.hexdigest() == EQUIV_DIGESTS[name], name


if __name__ == "__main__":
    corpus = {name: digests(bound, params) for name, (bound, params) in SECTIONS.items()}
    DATA.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print({name: len(d) for name, d in corpus.items()})
