"""Golden bytes of the three CSV layouts the command line writes: a sweep
with '# flag:' lines, an evolve trajectory and a figure table.  The text
pins the layout and the 17-digit values together, so a deliberate change
to either must update it here.  Every figure bundle is pinned by the
sha256 of each file it writes."""

import hashlib

import numpy as np
import pytest

from qbattery import cli
from qbattery.figures import FIGURE_NAMES, GRID_AXIS

EVOLVE_CSV = """\
# command=evolve
# tool_version=0.1.0
# omega0=1.0
# gamma=0.1
# lambda=0.1
# tmax_Omega_tau=5.0
# steps=6
Omega_tau,re_kappa,im_kappa,population,stored_energy,ergotropy
0,0,0,0,0,0
1,0,-0.84073734097958219,0.70683927651741829,0.70683927651741829,0.41367855303483658
2,0,-0.90519086952620642,0.81937051027360963,0.81937051027360963,0.63874102054721926
3,0,-0.1341920710880222,0.018007511942892802,0.018007511942892802,0
4,0,0.75999472489891773,0.57759198187418159,0.57759198187418159,0.15518396374836319
5,0,0.951709231969048,0.90575046221511524,0.90575046221511524,0.81150092443023047
"""

SWEEP_CSV = """\
# quantity=stored_energy_max
# units=omega0
# tool_version=0.1.0
# tmax=1.0
# grid=None
# flag: 0,0,boundary
# flag: 0,1,boundary
gamma_over_omega,lambda_1,lambda_inf
1,0.6141200971094255,0.43916014081667631
5,0.33679113573469915,0.099212565748012474
"""

FIG7A_CSV = """\
# figure=fig7a
# tool_version=0.1.0
lam,stored_energy_max,ergotropy_max
0.10000000000000001,0.99523009610636348,0.99046019221272696
0.12589254117941673,0.99406633704599767,0.98813267409199534
0.15848931924611134,0.99264037669627048,0.98528075339254095
0.19952623149688797,0.99090483763882198,0.98180967527764396
0.25118864315095801,0.98880997156935435,0.9776199431387087
0.31622776601683794,0.98630708157317604,0.97261416314635207
0.39810717055349731,0.98335386868175467,0.96670773736350935
0.50118723362727235,0.97992197177763019,0.95984394355526037
0.63095734448019325,0.97600655312107898,0.95201310624215796
0.79432823472428149,0.97163700764935756,0.94327401529871513
1,0.96688672999871872,0.93377345999743744
1.2589254117941675,0.96187856715275621,0.92375713430551243
1.584893192461114,0.9567817068147445,0.91356341362948901
1.9952623149688797,0.95179633252731377,0.90359266505462754
2.511886431509581,0.94712555467752757,0.89425110935505514
3.1622776601683795,0.94294006636350458,0.88588013272700916
3.9810717055349731,0.93934724530826352,0.87869449061652705
5.0118723362727247,0.93637778003147143,0.87275556006294286
6.3095734448019334,0.9339953560259201,0.8679907120518402
7.9432823472428176,0.9321222871122905,0.86424457422458101
10,0.9306668402381999,0.8613336804763998
"""


@pytest.mark.parametrize("argv, expected", [
    (["evolve", "--gamma", "0.1", "--lambda", "0.1", "--tmax", "5",
      "--steps", "6"], EVOLVE_CSV),
    (["sweep", "--gamma-axis", "1,5", "--lambda-axis", "1,inf",
      "--quantity", "stored_energy_max", "--tmax", "1"], SWEEP_CSV),
])
def test_command_csv_bytes(tmp_path, argv, expected):
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode()


def test_figure_csv_bytes(tmp_path):
    assert cli.main(["figure", "fig7a", "--outdir", str(tmp_path)]) == 0
    table = tmp_path / "fig7a" / "maxima_vs_lambda.csv"
    assert table.read_bytes() == FIG7A_CSV.encode()


PANEL_SHA256 = {
    "fig2": {
        "manifest.json":
            "9f7970e71d12f7c56aca2c577eab09bb8b1294398a23381c1e4ca34885777f05",
        "nonmarkovianity_grid.csv":
            "771bc1b9ec07c554e496958f6cfdd0df96d3c0d4a147f810940e8c24d4e51744",
    },
    "fig3a": {
        "manifest.json":
            "7f811b6120791aa07d41f04cb400b9e8573ddbd2dc11ca318acb958bba551c1f",
        "stored_energy_vs_time.csv":
            "40f522f5be1c7c6ec2c4bdb71fb31fdc7dba7b743da3c4e25c8b487fa4bb65f0",
    },
    "fig3b": {
        "ergotropy_vs_time.csv":
            "6ae7cc00827f60f95a0a091b1b688f68eca69b702e4154a2ce75b2e5453b2713",
        "manifest.json":
            "598959f90e319599526b9a69627cf59149570a6afa947571ec3050c045bb5178",
    },
    "fig4a": {
        "manifest.json":
            "4d5097325136afd4c42ab67ef70064e21799b4caccbcb2bd3765f687c29d1eec",
        "stored_energy_max_grid.csv":
            "5eb4d5b720dd74de12c847a064873ce3d74a18d44c98c299a4d26febcc524f53",
    },
    "fig4b": {
        "ergotropy_max_grid.csv":
            "b9b54bb4ae6adc1d75470d427a45fc2eb9275c32b70bf307098ba75d3e8043fa",
        "manifest.json":
            "50a34eac8fdd804ef9f83b4907cd313a25b5b714aa7dd09de40ab0cf7b467823",
    },
    "fig5a": {
        "manifest.json":
            "aa1e99e3d8e821d4b0e87b3a5ba5f22cd7ed82cd96480451500b1a673b6453f2",
        "stored_energy_vs_time.csv":
            "a7752096533aba68828fa7272613302a05fc48f97ada1c9b4981e3b64ce7710f",
    },
    "fig5b": {
        "ergotropy_vs_time.csv":
            "69af9b37e02976db4118252b22d26551c4a7f9fe27826c6d159c703e98f9d20a",
        "manifest.json":
            "acfe651818a45e599ed4aa35554c2678072ab03741cf8a5f5071c3d19cc0d47e",
    },
    "fig6a": {
        "manifest.json":
            "0690abfb97c20715f0f757d5bb03a9af59fabad5843c41afa012758355133116",
        "stored_energy_comparison.csv":
            "7e676522a8ec3cccdbde782bd329b86aafcb025391de6c332c06d8ffc557ebf9",
    },
    "fig6b": {
        "ergotropy_comparison.csv":
            "94fae70f18ff84da96dc65f5c559fa0754e846f2dc45d44f40758f5976616fab",
        "manifest.json":
            "fed0bc6369dfdd7a13430cc20b7d5da508de94f53f10fd347af354ed4d14d9f3",
    },
    "fig7a": {
        "manifest.json":
            "09cd6914f13f2130849d01789152ebd22342d1f23e439123ee4f596e999ab241",
        "maxima_vs_lambda.csv":
            "484ff9b0c3d4f825ea4a3380c4ab4c4d75a824014607237df19dd9fb410d0c87",
    },
    "fig7b": {
        "manifest.json":
            "5096f319923dfb98d77a2a26e8ff7589fe05437211ce245c279678337895d787",
        "maxima_memoryless.csv":
            "56bdd82b389c4e4d4bc554d0286ed6ce1f91c80dd5b43f9904eef6948f799129",
        "maxima_with_memory.csv":
            "52b2eedb8d9f13028f275d37a5935b8c45075bd38b9c079a0da76c8ab16c6df8",
    },
}


def test_figure_names_order():
    assert FIGURE_NAMES == ("fig2", "fig3a", "fig3b", "fig4a", "fig4b",
                            "fig5a", "fig5b", "fig6a", "fig6b", "fig7a",
                            "fig7b")


def test_grid_axis_is_log_spaced():
    """The pinned axis is np.logspace(-1, 1, 21) to an ulp, whichever
    kernel computes the reference here."""
    want = 10.0 ** np.linspace(-1.0, 1.0, 21)
    assert len(GRID_AXIS) == len(want)
    for got, x in zip(GRID_AXIS, want):
        assert abs(got - x) <= np.spacing(x), (got, x)


@pytest.mark.parametrize("name", FIGURE_NAMES)
def test_figure_bundle_sha256(tmp_path, name):
    assert cli.main(["figure", name, "--outdir", str(tmp_path)]) == 0
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in (tmp_path / name).iterdir()}
    assert written == PANEL_SHA256[name]
